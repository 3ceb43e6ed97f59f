"""Left-invariant geometry backend: catalog facts, connection, curvature."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetflow import chart_jets as cj
from hetflow import homogeneous as hg
from hetflow import tensor_core as tc

SEEDS = st.integers(min_value=0, max_value=10**6)


def _spd(rng, n: int = 3) -> np.ndarray:
    a = rng.normal(size=(n, n))
    return a @ a.T + 0.5 * np.eye(n)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def test_catalog_algebras_satisfy_jacobi():
    for name in hg.CATALOG_NAMES:
        alg = hg.catalog(name)
        assert alg.jacobi_residual() <= 1e-12, name


def test_heisenberg_is_unimodular_nilpotent():
    alg = hg.catalog("heisenberg")
    assert alg.is_unimodular()
    e2, e3 = np.eye(3)[1], np.eye(3)[2]
    np.testing.assert_allclose(alg.bracket(e2, e3), np.eye(3)[0], atol=1e-14)
    # derived algebra is central: [e1, anything] = 0
    e1 = np.eye(3)[0]
    for v in np.eye(3):
        np.testing.assert_allclose(alg.bracket(e1, v), 0.0, atol=1e-14)


def test_su2_bracket_scaling():
    kappa = 1.7
    alg = hg.catalog("su2", kappa=kappa)
    a = 0.5 / np.sqrt(kappa)
    e1, e2, e3 = np.eye(3)
    np.testing.assert_allclose(alg.bracket(e2, e3), a * e1, atol=1e-13)
    np.testing.assert_allclose(alg.bracket(e3, e1), a * e2, atol=1e-13)
    np.testing.assert_allclose(alg.bracket(e1, e2), 4.0 * a * e3, atol=1e-13)
    assert alg.is_unimodular()


def test_hyperbolic_algebra_not_unimodular():
    alg = hg.catalog("hyperbolic", c=0.9)
    assert not alg.is_unimodular()
    traces = np.einsum("jii->j", alg.structure)
    assert np.max(np.abs(traces)) > 0.5


def test_unimodular_catalog_members():
    for name in ("r3", "heisenberg", "su2", "sl2r", "e11", "e2"):
        assert hg.catalog(name).is_unimodular(), name


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: hg.catalog("su2", kappa=np.nan), "finite kappa > 0"),
        (lambda: hg.catalog("su2", kappa=np.inf), "finite kappa > 0"),
        (lambda: hg.catalog("hyperbolic", c=np.nan), "finite"),
        (lambda: hg.catalog("hyperbolic", c=np.inf), "finite"),
        (lambda: hg.from_milnor((np.nan, 0.0, 0.0)), "finite"),
        (lambda: hg.LieAlgebraData("r3", 3, np.full((3, 3, 3), np.nan)), "finite"),
    ],
    ids=["su2-nan", "su2-inf", "hyperbolic-nan", "hyperbolic-inf", "milnor-nan", "raw-nan"],
)
def test_non_finite_structure_constants_rejected(build, message):
    # A NaN passes the antisymmetry check and an inf fails it with a
    # RuntimeWarning; either would give an all-NaN curvature downstream.
    with pytest.raises(ValueError, match=message):
        build()


def test_from_milnor_normal_form(rng):
    lambdas = rng.normal(size=3)
    alg = hg.from_milnor(lambdas)
    e1, e2, e3 = np.eye(3)
    np.testing.assert_allclose(alg.bracket(e2, e3), lambdas[0] * e1, atol=1e-14)
    np.testing.assert_allclose(alg.bracket(e3, e1), lambdas[1] * e2, atol=1e-14)
    np.testing.assert_allclose(alg.bracket(e1, e2), lambdas[2] * e3, atol=1e-14)
    assert alg.jacobi_residual() <= 1e-12


# ---------------------------------------------------------------------------
# connection
# ---------------------------------------------------------------------------


def test_abelian_connection_vanishes(rng):
    g = _spd(np.random.default_rng(1))
    gamma = hg.levi_civita_connection(hg.catalog("r3"), g, tc.metric_inverse(g))
    np.testing.assert_allclose(gamma, 0.0, atol=1e-14)


def test_biinvariant_su2_half_bracket():
    alg = hg.catalog("su2", kappa=0.25)  # brackets (1, 1, 4): not bi-invariant
    alg_round = hg.from_milnor([2.0, 2.0, 2.0])  # equal constants: bi-invariant g = I
    gamma = hg.levi_civita_connection(alg_round, np.eye(3), np.eye(3))
    for a in range(3):
        for b in range(3):
            nabla = gamma[a, b]
            half_bracket = 0.5 * alg_round.bracket(np.eye(3)[a], np.eye(3)[b])
            np.testing.assert_allclose(nabla, half_bracket, atol=1e-13)
    del alg


@settings(max_examples=20)
@given(SEEDS)
def test_connection_metricity_and_no_torsion(seed):
    rng = np.random.default_rng(seed)
    name = hg.CATALOG_NAMES[int(rng.integers(len(hg.CATALOG_NAMES)))]
    alg = hg.catalog(name)
    g = _spd(rng)
    gamma = hg.levi_civita_connection(alg, g, tc.metric_inverse(g))
    # metricity: d_a g(y,z) = 0 invariantly, so g(G(a,b),c) + g(b,G(a,c)) = 0
    metricity = np.einsum("abm,mc->abc", gamma, g) + np.einsum("acm,mb->abc", gamma, g)
    assert np.max(np.abs(metricity)) <= 1e-11
    # vanishing torsion: G(a,b) - G(b,a) = [a,b]
    torsion = gamma - np.swapaxes(gamma, 0, 1) - alg.structure
    assert np.max(np.abs(torsion)) <= 1e-11


def test_twisted_connection_difference(rng):
    alg = hg.catalog("heisenberg")
    g = _spd(rng)
    h = 0.7 * tc.volume_form(g)
    g_inv = tc.metric_inverse(g)
    gamma = hg.levi_civita_connection(alg, g, g_inv)
    gamma_tw = hg.connection_twisted(gamma, g_inv, h)
    # difference is -1/2 H with the last slot raised
    diff = np.einsum("abc,cm->abm", -0.5 * h, g_inv)
    np.testing.assert_allclose(gamma_tw - gamma, diff, atol=1e-12)


# ---------------------------------------------------------------------------
# invariant exterior calculus
# ---------------------------------------------------------------------------


def test_invariant_d_scalar_and_maurer_cartan():
    alg = hg.catalog("heisenberg")
    assert np.max(np.abs(hg.invariant_d(alg, np.array(2.5)))) == 0.0
    # d e^1 = -e^2 ^ e^3 for [e2, e3] = e1 (Maurer-Cartan)
    e1_form = np.eye(3)[0]
    d1 = hg.invariant_d(alg, e1_form)
    expected = -(np.outer(np.eye(3)[1], np.eye(3)[2]) - np.outer(np.eye(3)[2], np.eye(3)[1]))
    np.testing.assert_allclose(d1, expected, atol=1e-14)


def test_invariant_d_squares_to_zero(rng):
    for name in ("heisenberg", "su2", "sl2r", "hyperbolic"):
        alg = hg.catalog(name)
        form = rng.normal(size=3)
        np.testing.assert_allclose(
            hg.invariant_d(alg, hg.invariant_d(alg, form)), 0.0, atol=1e-12
        )


def _palais_d_loop(alg, form):
    """Reference: the Palais formula evaluated one index tuple at a time."""
    form = np.asarray(form, dtype=float)
    p = form.ndim
    n = alg.dim
    out = np.zeros((n,) * (p + 1))
    if p == 0:
        return out
    for idx in itertools.product(range(n), repeat=p + 1):
        total = 0.0
        for i, j in itertools.combinations(range(p + 1), 2):
            rest = tuple(idx[r] for r in range(p + 1) if r not in (i, j))
            bracket = alg.structure[idx[i], idx[j]]
            total += (-1) ** (i + j) * float(bracket @ form[(slice(None),) + rest])
        out[idx] = total
    return out


def _solvable_4d() -> hg.LieAlgebraData:
    """``R x| heisenberg``: ``[e1,e2] = e3``, ``[e4,e1] = a e1``,
    ``[e4,e2] = b e2``, ``[e4,e3] = (a+b) e3``."""
    a, b = 0.7, -1.3
    c = np.zeros((4, 4, 4))
    for x, y, z, val in ((0, 1, 2, 1.0), (3, 0, 0, a), (3, 1, 1, b), (3, 2, 2, a + b)):
        c[x, y, z] = val
        c[y, x, z] = -val
    return hg.LieAlgebraData("solvable4", 4, c)


def test_invariant_d_equals_palais_loop(rng):
    algebras = [hg.catalog(name) for name in hg.CATALOG_NAMES]
    algebras += [hg.catalog("su2", kappa=1.7), hg.catalog("hyperbolic", c=0.83), _solvable_4d()]
    assert _solvable_4d().jacobi_residual() <= 1e-14
    for alg in algebras:
        for p in range(4):
            form = rng.normal(size=(alg.dim,) * p)
            assert np.array_equal(hg.invariant_d(alg, form), _palais_d_loop(alg, form)), (alg.name, p)


def test_closed_one_forms_dimensions():
    assert hg.closed_one_forms(hg.catalog("r3")).shape[0] == 3
    assert hg.closed_one_forms(hg.catalog("heisenberg")).shape[0] == 2
    assert hg.closed_one_forms(hg.catalog("su2")).shape[0] == 0
    assert hg.closed_one_forms(hg.catalog("sl2r")).shape[0] == 0
    assert hg.closed_one_forms(hg.catalog("hyperbolic")).shape[0] == 1


def test_closed_one_forms_are_closed():
    for name in hg.CATALOG_NAMES:
        alg = hg.catalog(name)
        basis = hg.closed_one_forms(alg)
        for row in basis:
            np.testing.assert_allclose(hg.invariant_d(alg, row), 0.0, atol=1e-12)
        # rows annihilate the derived algebra by construction; orthonormal rows
        if basis.shape[0]:
            np.testing.assert_allclose(basis @ basis.T, np.eye(basis.shape[0]), atol=1e-12)


def test_metric_and_volume_parallel(rng):
    alg = hg.catalog("sl2r")
    g = _spd(rng)
    gamma = hg.levi_civita_connection(alg, g, tc.metric_inverse(g))
    np.testing.assert_allclose(hg.invariant_cov_deriv(gamma, g), 0.0, atol=1e-11)
    vol = tc.volume_form(g)
    np.testing.assert_allclose(hg.invariant_cov_deriv(gamma, vol), 0.0, atol=1e-11)


def test_codifferential_of_invariant_flux_vanishes(rng):
    """delta(f vol) = 0 for constant f, so the flux contraction term is f * phi."""
    for name in ("heisenberg", "hyperbolic"):
        alg = hg.catalog(name)
        g = _spd(rng)
        gamma = hg.levi_civita_connection(alg, g, tc.metric_inverse(g))
        f = 1.4
        h = f * tc.volume_form(g)
        nabla_h = hg.invariant_cov_deriv(gamma, h)
        delta_h = tc.codifferential_from_nabla(tc.metric_inverse(g), nabla_h)
        np.testing.assert_allclose(delta_h, 0.0, atol=1e-11)
        # interior product against the flux dualizes the 1-form
        phi = rng.normal(size=3)
        contraction = np.einsum(
            "m,mcd->cd", tc.sharp(tc.metric_inverse(g), phi), h
        )
        np.testing.assert_allclose(
            contraction, f * tc.hodge(tc.metric_inverse(g), tc.volume_form(g), phi), atol=1e-11
        )


# ---------------------------------------------------------------------------
# curvature facts
# ---------------------------------------------------------------------------


def test_principal_ricci_catalog_values():
    np.testing.assert_allclose(hg.milnor_principal_ricci([0.0, 0.0, 0.0]), 0.0, atol=0.0)
    # heisenberg normal form (1, 0, 0) at g = I
    np.testing.assert_allclose(
        hg.milnor_principal_ricci([1.0, 0.0, 0.0]), [0.5, -0.5, -0.5], atol=1e-13
    )
    # flat e2 (1, 1, 0)
    np.testing.assert_allclose(hg.milnor_principal_ricci([1.0, 1.0, 0.0]), 0.0, atol=1e-13)


def test_su2_remark_principal_ricci():
    kappa = 2.3
    alg = hg.catalog("su2", kappa=kappa)
    sample = hg.build_invariant_sample(alg, np.eye(3), 0.0)
    eigs = np.sort(np.linalg.eigvalsh(sample.ricci))
    np.testing.assert_allclose(eigs, [-1.0 / kappa, -1.0 / kappa, 2.0 / kappa], atol=1e-12)
    assert sample.scalar == pytest.approx(0.0, abs=1e-12)


def test_e11_ricci_and_scaling():
    alg = hg.catalog("e11")
    s1 = hg.build_invariant_sample(alg, np.eye(3), 0.0)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(s1.ricci)), [-2.0, 0.0, 0.0], atol=1e-12)
    c = 1.9
    s2 = hg.build_invariant_sample(alg, c * np.eye(3), 0.0)
    # Ricci is scale invariant; generalized eigenvalues scale as 1/c
    np.testing.assert_allclose(s2.ricci, s1.ricci, atol=1e-12)
    assert s2.scalar == pytest.approx(s1.scalar / c, rel=1e-12)


def test_hyperbolic_is_einstein(rng):
    c = 0.75
    alg = hg.catalog("hyperbolic", c=c)
    sample = hg.build_invariant_sample(alg, np.eye(3), 0.0)
    np.testing.assert_allclose(sample.ricci, -2.0 * c**2 * np.eye(3), atol=1e-12)
    assert sample.scalar == pytest.approx(-6.0 * c**2, rel=1e-12)


def test_hyperbolic_matches_chart_backend():
    c = 1.1
    inv = hg.build_invariant_sample(hg.catalog("hyperbolic", c=c), np.eye(3), 0.8)
    chart = cj.build_chart_sample(cj.hyperbolic_chart_spec(c))
    np.testing.assert_allclose(inv.ricci, chart.ricci, atol=1e-9)
    assert inv.scalar == pytest.approx(chart.scalar, rel=1e-9)
    assert tc.rel_err(inv.riemann, chart.riemann) <= 1e-9


def test_heisenberg_axis_rotation_relation():
    """On the nilpotent soliton metric the center direction rotates: its
    covariant derivative is the (-f/2)-scaled dual rotation."""
    f = 0.9
    alg = hg.catalog("heisenberg")
    g = np.diag([f**2, 1.0, 1.0])
    gamma = hg.levi_civita_connection(alg, g, tc.metric_inverse(g))
    xi = np.array([1.0 / f, 0.0, 0.0])  # unit center direction
    assert float(xi @ g @ xi) == pytest.approx(1.0, rel=1e-13)
    g_inv = tc.metric_inverse(g)
    rotation = tc.endo_from_bilinear(g_inv, tc.hodge(g_inv, tc.volume_form(g), tc.flat(g, xi)))
    for a in range(3):
        nabla_xi = np.einsum("b,bm->m", xi, gamma[a])
        expected = -0.5 * f * rotation @ np.eye(3)[a]
        np.testing.assert_allclose(nabla_xi, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------


def test_invariant_sample_gradient_fields_vanish(invariant_samples):
    for sample in invariant_samples:
        assert sample.backend == "homogeneous"
        assert sample.jet_depth == 0
        for name in (
            "d_scalar", "df", "hess_f", "d_torsion_norm2", "d_riemann_tw_norm2",
            "d_dilaton_norm2", "d_delta_dilaton",
        ):
            assert np.max(np.abs(np.asarray(getattr(sample, name)))) <= 1e-12, name
        assert sample.laplace_f == 0.0


def test_invariant_sample_inverts_the_metric_once(count_calls):
    inverses = count_calls(tc, "metric_inverse")
    connections = count_calls(hg, "levi_civita_connection")
    g = _spd(np.random.default_rng(3))
    for name in hg.CATALOG_NAMES:
        inverses.clear()
        connections.clear()
        hg.build_invariant_sample(hg.catalog(name), g, 0.8, dilaton=np.zeros(3))
        assert (len(inverses), len(connections)) == (1, 1), name


def test_invariant_sample_internal_consistency(invariant_samples):
    for sample in invariant_samples:
        g, g_inv = sample.g, sample.g_inv
        np.testing.assert_allclose(g_inv, np.linalg.inv(g), atol=1e-10)
        np.testing.assert_allclose(
            sample.ricci, tc.ricci_from_riemann(g_inv, sample.riemann), atol=1e-10
        )
        np.testing.assert_allclose(
            sample.torsion, sample.f * tc.volume_form(g, sample.orientation), atol=1e-12
        )
        np.testing.assert_allclose(
            sample.torsion_sq, tc.torsion_square(g_inv, sample.torsion), atol=1e-10
        )
        assert sample.torsion_norm2 == pytest.approx(sample.f**2, rel=1e-10, abs=1e-12)
        np.testing.assert_allclose(
            sample.riemann_tw_sq, tc.riemann_square(g_inv, sample.riemann_tw), atol=1e-9
        )
        assert sample.riemann_tw_norm2 == pytest.approx(
            tc.riemann_norm2(g_inv, sample.riemann_tw), rel=1e-9
        )
        np.testing.assert_allclose(
            sample.delta_torsion,
            tc.codifferential_from_nabla(g_inv, sample.nabla_torsion),
            atol=1e-10,
        )
        np.testing.assert_allclose(
            sample.ricci_tw,
            sample.ricci - 0.5 * sample.torsion_sq + 0.5 * sample.delta_torsion,
            atol=1e-10,
        )
        assert sample.dilaton_norm2 == pytest.approx(
            float(sample.dilaton @ g_inv @ sample.dilaton), rel=1e-10, abs=1e-12
        )
        # invariant dilatons are closed 1-forms
        np.testing.assert_allclose(
            hg.invariant_d(hg.catalog(sample.meta["algebra"],
                                      **{k: v for k, v in sample.meta.items() if k != "algebra"}),
                           sample.dilaton),
            0.0,
            atol=1e-10,
        )


def test_random_invariant_sample_deterministic():
    a = hg.random_invariant_sample(123)
    b = hg.random_invariant_sample(123)
    assert a.meta == b.meta
    np.testing.assert_array_equal(a.g, b.g)
    np.testing.assert_array_equal(a.riemann_tw, b.riemann_tw)
    assert a.f == b.f


def test_build_invariant_sample_rejects_bad_metric():
    with pytest.raises(ValueError):
        hg.build_invariant_sample(hg.catalog("r3"), np.diag([1.0, -1.0, 1.0]), 0.0)
