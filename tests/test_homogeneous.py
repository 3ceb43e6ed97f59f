"""Left-invariant geometry backend: catalog facts, connection, curvature."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetflow import chart_jets as cj
from hetflow import homogeneous as hg
from hetflow import soliton as so
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


@pytest.mark.parametrize("rank", [0, 1, 2, 3, 4])
def test_invariant_cov_deriv_matches_the_moveaxis_loop(rank):
    rng = np.random.default_rng(60 + rank)
    gamma = rng.normal(size=(3, 3, 3))
    tensor = rng.normal(size=(3,) * rank)
    expected = np.zeros((3,) + tensor.shape)
    for r in range(rank):
        corr = np.einsum("aim,m...->ai...", gamma, np.moveaxis(tensor, r, 0))
        expected -= np.moveaxis(corr, 1, r + 1)
    got = hg.invariant_cov_deriv(gamma, tensor)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected), initial=0.0) <= 1e-15 * max(1.0, np.max(np.abs(expected)))


# ---------------------------------------------------------------------------
# curvature facts
# ---------------------------------------------------------------------------


def test_principal_ricci_catalog_values():
    np.testing.assert_allclose(hg._principal_ricci(0.0, 0.0, 0.0), 0.0, atol=0.0)
    # heisenberg normal form (1, 0, 0) at g = I
    np.testing.assert_allclose(hg._principal_ricci(1.0, 0.0, 0.0), [0.5, -0.5, -0.5], atol=1e-13)
    # flat e2 (1, 1, 0)
    np.testing.assert_allclose(hg._principal_ricci(1.0, 1.0, 0.0), 0.0, atol=1e-13)


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
        for name in (
            "d_scalar", "df", "d_torsion_norm2", "d_riemann_tw_norm2",
            "d_dilaton_norm2", "d_delta_dilaton",
        ):
            assert np.max(np.abs(np.asarray(getattr(sample, name)))) <= 1e-12, name
        # f is constant, so the skew obstruction -(laplace f + <phi, df>)/3 vanishes
        assert abs(so.strong_skew_scalar(so.SolitonCandidate(sample, 1.0))) <= 1e-12


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
        alg = hg.catalog(sample.meta["algebra"],
                         **{k: v for k, v in sample.meta.items() if k != "algebra"})
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
        gamma = hg.levi_civita_connection(alg, g, g_inv)
        np.testing.assert_allclose(
            sample.delta_torsion,
            tc.codifferential_from_nabla(g_inv, hg.invariant_cov_deriv(gamma, sample.torsion)),
            atol=1e-10,
        )
        np.testing.assert_allclose(
            tc.ricci_from_riemann(g_inv, sample.riemann_tw),
            sample.ricci - 0.5 * sample.torsion_sq + 0.5 * sample.delta_torsion,
            atol=1e-10,
        )
        assert sample.dilaton_norm2 == pytest.approx(
            float(sample.dilaton @ g_inv @ sample.dilaton), rel=1e-10, abs=1e-12
        )
        # invariant dilatons are closed 1-forms
        np.testing.assert_allclose(hg.invariant_d(alg, sample.dilaton), 0.0, atol=1e-10)


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


# ---------------------------------------------------------------------------
# batches and input checks
# ---------------------------------------------------------------------------

_PARAMS = {"su2": {"kappa": 0.7}, "hyperbolic": {"c": 1.3}}


def test_invariant_batch_matches_batches_of_one(samples_match):
    """Every catalog algebra, with and without a dilaton, in one batch."""
    rng = np.random.default_rng(5)
    args = []
    for name in hg.CATALOG_NAMES:
        alg = hg.catalog(name, **_PARAMS.get(name, {}))
        g, f = _spd(rng), float(rng.uniform(-2.0, 2.0))
        basis = hg.closed_one_forms(alg)
        dilaton = basis.T @ rng.uniform(-1.0, 1.0, size=basis.shape[0])
        args += [(alg, g, f), (alg, g, f, dilaton, -1)]
    batch = hg.build_invariant_samples(args)
    samples_match(batch, [hg.build_invariant_sample(*entry) for entry in args])
    assert [sample.meta["algebra"] for sample in batch[::2]] == list(hg.CATALOG_NAMES)
    with pytest.raises(ValueError, match="at least one"):
        hg.build_invariant_samples([])


def test_random_invariant_sample_is_a_batch_of_one(samples_match):
    samples_match(
        hg.build_invariant_samples([hg._random_invariant_args(seed) for seed in range(6)]),
        [hg.random_invariant_sample(seed) for seed in range(6)],
    )


def test_random_invariant_args_compute_each_parameter_free_basis_once(count_calls, monkeypatch):
    """The closed one-forms of an algebra without parameters come from one SVD
    per process, with the bytes of a fresh one; su2 and hyperbolic draw theirs."""
    monkeypatch.setattr(hg, "_CLOSED_FORMS", {})
    svds = count_calls(hg, "closed_one_forms")
    draws = [hg._random_invariant_args(seed) for seed in range(40)]
    names = [alg.name for alg, *_ in draws]
    with_parameters = sum(name in ("su2", "hyperbolic") for name in names)
    assert len(svds) == with_parameters + len(set(names) - {"su2", "hyperbolic"})
    assert set(hg._CLOSED_FORMS) == set(names) - {"su2", "hyperbolic"} == {"r3", "heisenberg", "sl2r", "e11", "e2"}
    for name, basis in hg._CLOSED_FORMS.items():
        assert basis.tobytes() == hg.closed_one_forms(hg.catalog(name)).tobytes()


_R3 = hg.catalog("r3")


@pytest.mark.parametrize(
    "args, match",
    [
        ((_R3, np.zeros((3, 3)), 1.0), "not positive definite"),
        ((_R3, np.diag([1.0, -1.0, 1.0]), 1.0), "not positive definite"),
        ((_R3, np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), 1.0), "not symmetric"),
        ((_R3, np.diag([1.0, np.nan, 1.0]), 1.0), "non-finite"),
        ((_R3, np.eye(2), 1.0), "3x3"),
        ((_R3, np.eye(3), np.inf), "must be finite"),
        ((_R3, np.eye(3), 1.0, [np.nan, 0.0, 0.0]), "dilaton"),
        ((_R3, np.eye(3), 1.0, [1.0, 0.0]), "dilaton"),
        ((_R3, np.eye(3), 1.0, None, 0), "orientation"),
        ((_R3, np.eye(3), 1.0, None, 2), "orientation"),
        ((_R3, np.eye(3) * 1e200, 1.0), "not finite in double precision"),
    ],
)
def test_invariant_builders_reject_bad_input(args, match):
    good = (hg.catalog("su2"), np.eye(3), 1.0)
    with pytest.raises(ValueError, match=f"sample 1: .*{match}"):
        hg.build_invariant_samples([good, args])
    with pytest.raises(ValueError, match=f"sample 0: .*{match}"):
        hg.build_invariant_sample(*args)


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=60, deadline=None)
@given(
    seed=SEEDS,
    name=st.sampled_from(hg.CATALOG_NAMES),
    scale=st.sampled_from([1.0, 1.0, 1e-110, 1e110]),
    edits=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), ANY_FLOAT), max_size=2),
    f=st.one_of(st.floats(-3.0, 3.0), ANY_FLOAT),
    dilaton=st.one_of(
        st.none(),
        st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
        st.lists(ANY_FLOAT, min_size=2, max_size=4),
    ),
    orientation=st.sampled_from([1, -1, 1, -1, 0, 2]),
)
def test_invariant_builders_return_finite_fields_or_raise_value_error(
    seed, name, scale, edits, f, dilaton, orientation
):
    """No other exception and no RuntimeWarning (an error under this suite's
    warning filter), whatever the metric, density, dilaton and orientation."""
    g = _spd(np.random.default_rng(seed)) * scale
    for i, j, value in edits:
        g[i, j] = g[j, i] = value
    args = (hg.catalog(name), g, f, dilaton, orientation)
    for build in (lambda: [hg.build_invariant_sample(*args)],
                  lambda: hg.build_invariant_samples([(hg.catalog("su2"), np.eye(3), 1.0), args])):
        try:
            samples = build()
        except ValueError:
            continue
        for sample in samples:
            for item in dataclasses.fields(sample):
                if item.name not in ("backend", "orientation", "meta"):
                    assert np.all(np.isfinite(getattr(sample, item.name))), item.name
