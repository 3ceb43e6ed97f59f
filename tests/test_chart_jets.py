"""Polynomial-chart backend: jet calculus and sample self-consistency."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetflow import chart_jets as cj
from hetflow import soliton as so
from hetflow import tensor_core as tc

SEEDS = st.integers(min_value=0, max_value=10**6)


def _jet_eval(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate the truncated polynomial at a point (broadcasts leading axes)."""
    a = np.asarray(a, dtype=float)
    monomials = cj.MONOMIALS[: a.shape[-1]]  # a degree-d jet is a prefix
    mono_vals = np.array([x[0] ** m[0] * x[1] ** m[1] * x[2] ** m[2] for m in monomials])
    return a @ mono_vals


def _pullback_chart_metric(seed: int) -> np.ndarray:
    """Degree-2 metric jets of the pullback of the flat metric under a random
    polynomial diffeomorphism ``x -> x + quadratic`` (exactly flat), with
    coefficients uniform in ``[-0.1, 0.1]``."""
    rng = np.random.default_rng(seed)
    # Jet of each component of the map and its partials.
    jac = np.zeros((3, 3, cj.JET_SIZES[2]))  # jac[k, i] = d_i phi^k
    for k in range(3):
        comp = np.zeros(cj.N_COEFFS)
        comp[cj.MONO_INDEX[tuple(np.eye(3, dtype=int)[k])]] = 1.0
        for mono in cj.MONOMIALS:
            if 2 <= sum(mono) <= 3:
                comp[cj.MONO_INDEX[mono]] = rng.uniform(-0.1, 0.1)
        for i in range(3):
            jac[k, i] = cj.jet_deriv(comp, i)
    return cj.jet_einsum("ki,kj->ij", jac, jac)


# ---------------------------------------------------------------------------
# jet arithmetic
# ---------------------------------------------------------------------------


def test_jet_eval_matches_polynomial():
    jet = cj.jet_from_poly({(0, 0, 0): 2.0, (1, 0, 0): -1.0, (0, 2, 0): 3.0, (1, 1, 1): 0.5})
    x = np.array([0.2, -0.3, 0.1])
    expected = 2.0 - x[0] + 3.0 * x[1] ** 2 + 0.5 * x[0] * x[1] * x[2]
    assert _jet_eval(jet, x) == pytest.approx(expected, rel=1e-14)


def test_jet_mul_is_truncated_product():
    a = cj.jet_from_poly({(1, 0, 0): 1.0, (0, 0, 0): 2.0})
    b = cj.jet_from_poly({(0, 1, 0): 3.0})
    prod = cj.jet_mul(a, b)
    x = np.array([0.1, 0.2, -0.05])
    assert _jet_eval(prod, x) == pytest.approx((2.0 + x[0]) * 3.0 * x[1], rel=1e-12)


def test_jet_deriv_and_grad():
    jet = cj.jet_from_poly({(2, 1, 0): 4.0})
    dx = cj.jet_deriv(jet, 0)
    assert dx.shape == (cj.JET_SIZES[2],)
    x = np.array([0.3, -0.2, 0.0])
    assert _jet_eval(dx, x) == pytest.approx(8.0 * x[0] * x[1], rel=1e-12)
    grad = cj.jet_grad(jet)
    assert grad.shape == (3, cj.JET_SIZES[2])
    assert _jet_eval(grad[1], x) == pytest.approx(4.0 * x[0] ** 2, rel=1e-12)


@pytest.mark.parametrize("shape", [(), (3,), (3, 3, 3)])
def test_jet_deriv_of_a_degree_zero_jet_raises(shape):
    value = np.ones(shape + (cj.JET_SIZES[0],))
    with pytest.raises(ValueError, match="degree-0"):
        cj.jet_deriv(value, 0)
    with pytest.raises(ValueError, match="degree-0"):
        cj.jet_grad(value)


@pytest.mark.parametrize("size", [0, 2, 5, 21])
def test_jet_degree_rejects_a_length_that_is_no_degree(size):
    with pytest.raises(ValueError, match="jet axis"):
        cj.jet_degree(np.zeros((3, size)))


def _einsum_triple_loop(spec, a, b):
    """Reference product of degree-3 jets: one ``np.einsum`` per monomial pair of MUL_TRIPLES."""
    out = None
    for i, j, k in cj.MUL_TRIPLES:
        term = np.einsum(spec, a[..., i], b[..., j])
        if out is None:
            out = np.zeros(np.shape(term) + (cj.N_COEFFS,))
        out[..., k] += term
    return out


def _assert_rel_close(actual, expected, rtol=1e-15):
    assert actual.shape == expected.shape
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= rtol * scale


def _graded_pairs(a, b):
    """Every pair of degrees ``(da, db)``, with ``a`` and ``b`` cut to them."""
    for da, size_a in enumerate(cj.JET_SIZES):
        for db, size_b in enumerate(cj.JET_SIZES):
            yield min(da, db), a[..., :size_a], b[..., :size_b]


@pytest.mark.parametrize(
    "spec, shape_a, shape_b",
    [
        ("ij,jk->ik", (3, 3), (3, 3)),
        ("ab,b...->a...", (3, 3), (3, 3, 3)),
        ("aim,m...->ai...", (3, 3, 3), (3, 3, 3, 3)),
        ("aim,m...->ai...", (3, 3, 3), (3,)),
        ("uv,uv->", (3, 3), (3, 3)),
        ("abcd,abcd->", (3, 3, 3, 3), (3, 3, 3, 3)),
        ("ab,aUVb->UV", (3, 3), (3, 3, 3, 3)),
    ],
)
def test_jet_einsum_matches_triple_loop(spec, shape_a, shape_b):
    """At degree 3 to 1e-15; at every pair of degrees, the graded product is
    the leading ``JET_SIZES[min]`` coefficients of the degree-3 loop."""
    rng = np.random.default_rng(31)
    for _ in range(5):
        a = rng.normal(size=shape_a + (cj.N_COEFFS,))
        b = rng.normal(size=shape_b + (cj.N_COEFFS,))
        full = _einsum_triple_loop(spec, a, b)
        _assert_rel_close(cj.jet_einsum(spec, a, b), full)
        for degree, a_d, b_d in _graded_pairs(a, b):
            _assert_rel_close(
                cj.jet_einsum(spec, a_d, b_d), full[..., : cj.JET_SIZES[degree]], rtol=1e-14
            )


def test_jet_mul_matches_triple_loop():
    rng = np.random.default_rng(32)
    for shape_a, shape_b in (((), ()), ((3, 3), ()), ((3, 1), (1, 3)), ((2, 3, 3), (3, 3))):
        a = rng.normal(size=shape_a + (cj.N_COEFFS,))
        b = rng.normal(size=shape_b + (cj.N_COEFFS,))
        spec = "...,...->..."
        full = _einsum_triple_loop(spec, a, b)
        _assert_rel_close(cj.jet_mul(a, b), full)
        for degree, a_d, b_d in _graded_pairs(a, b):
            _assert_rel_close(cj.jet_mul(a_d, b_d), full[..., : cj.JET_SIZES[degree]], rtol=1e-14)


def test_jet_deriv_equals_rule_loop_bit_for_bit():
    """At every degree d >= 1, the derivative is the rule loop's output cut
    to degree d - 1; the loop sets nothing above it."""
    rng = np.random.default_rng(34)
    jets = rng.normal(size=(3, 3, cj.N_COEFFS))
    for axis in range(cj.N_VARS):
        expected = np.zeros_like(jets)
        for dst, src, factor in cj.DERIV_RULES[axis]:
            expected[..., dst] = factor * jets[..., src]
        assert not np.any(expected[..., cj.JET_SIZES[2]:])
        for degree in range(1, cj.JET_ORDER + 1):
            derivative = cj.jet_deriv(jets[..., : cj.JET_SIZES[degree]], axis)
            assert np.array_equal(derivative, expected[..., : cj.JET_SIZES[degree - 1]])


def test_jet_deriv_commutes():
    rng = np.random.default_rng(5)
    jet = rng.normal(size=cj.N_COEFFS)
    d01 = cj.jet_deriv(cj.jet_deriv(jet, 0), 1)
    d10 = cj.jet_deriv(cj.jet_deriv(jet, 1), 0)
    np.testing.assert_allclose(d01, d10, atol=1e-14)


@settings(max_examples=25)
@given(SEEDS)
def test_jet_series_roundtrips(seed):
    rng = np.random.default_rng(seed)
    jet = 0.3 * rng.normal(size=cj.N_COEFFS)
    jet[0] = rng.uniform(0.5, 2.0)
    np.testing.assert_allclose(cj.jet_log(cj.jet_exp(jet)), jet, atol=1e-10)
    sq = cj.jet_mul(cj.jet_sqrt(jet), cj.jet_sqrt(jet))
    np.testing.assert_allclose(sq, jet, atol=1e-10)
    one = cj.jet_mul(cj.jet_inverse(jet), jet)
    np.testing.assert_allclose(one, cj.jet_constant(1.0), atol=1e-10)


def test_jet_exp_derivative_identity():
    """d(exp p) = exp(p) dp at the jet level."""
    p = cj.jet_from_poly({(1, 0, 0): 0.7, (0, 1, 1): -0.2})
    lhs = cj.jet_deriv(cj.jet_exp(p), 0)
    rhs = cj.jet_mul(cj.jet_exp(p), cj.jet_deriv(p, 0))
    # differentiation drops one degree, and the product is cut to it
    assert lhs.shape == rhs.shape == (cj.JET_SIZES[2],)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-14, atol=1e-15)


def _cofactor_loop_inverse(g):
    """Reference inverse: the rule-of-Sarrus determinant and the 9-minor
    cofactor loop, one ``jet_mul`` per product."""
    def mul3(a, b, c):
        return cj.jet_mul(cj.jet_mul(a, b), c)

    det = (
        mul3(g[0, 0], g[1, 1], g[2, 2]) + mul3(g[0, 1], g[1, 2], g[2, 0])
        + mul3(g[0, 2], g[1, 0], g[2, 1]) - mul3(g[0, 2], g[1, 1], g[2, 0])
        - mul3(g[0, 1], g[1, 0], g[2, 2]) - mul3(g[0, 0], g[1, 2], g[2, 1])
    )
    cof = np.zeros_like(g)
    for i in range(3):
        for j in range(3):
            rows = [r for r in range(3) if r != i]
            cols = [c for c in range(3) if c != j]
            minor = cj.jet_mul(g[rows[0], cols[0]], g[rows[1], cols[1]]) - cj.jet_mul(
                g[rows[0], cols[1]], g[rows[1], cols[0]]
            )
            cof[i, j] = (-1) ** (i + j) * minor
    return cj.jet_mul(np.swapaxes(cof, 0, 1), cj.jet_inverse(det)[None, None, :]), det


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_jet_matrix_inverse_matches_the_cofactor_loop(degree):
    size = cj.JET_SIZES[degree]
    rng = np.random.default_rng(degree)
    for seed in range(20):
        g = cj.random_chart_spec(seed).metric[..., :size]
        if seed % 2:  # the adjugate holds for any matrix; a skew part tells C from C^T
            g = g + rng.uniform(-0.1, 0.1, size=g.shape)
        inv, det = cj.jet_matrix_inverse(g)
        ref_inv, ref_det = _cofactor_loop_inverse(g)
        _assert_rel_close(inv, ref_inv, rtol=1e-14)
        _assert_rel_close(det, ref_det, rtol=1e-14)
        # g g^-1 = I at this degree: the constant identity, no higher terms
        prod = cj.jet_einsum("ij,jk->ik", g, inv)
        expected = np.zeros((3, 3, size))
        expected[..., 0] = np.eye(3)
        np.testing.assert_allclose(prod, expected, rtol=0.0, atol=1e-13)


def test_jet_matrix_inverse_identity():
    """``g g^-1 = I``; ``det`` is the determinant at the point, and its first
    derivatives obey Jacobi's formula ``d det = det tr(g^-1 dg)``."""
    first = [cj.MONO_INDEX[tuple(e)] for e in np.eye(3, dtype=int)]
    for seed in range(20):
        g = cj.random_chart_spec(seed).metric
        g_inv, det = cj.jet_matrix_inverse(g)
        prod = cj.jet_einsum("ij,jk->ik", g, g_inv)
        for i in range(3):
            for j in range(3):
                np.testing.assert_allclose(prod[i, j], cj.jet_constant(1.0 if i == j else 0.0), atol=1e-10)
        g0 = cj.jet_value(g)
        det0 = np.linalg.det(g0)
        assert det[0] == pytest.approx(det0, rel=1e-14)
        jacobi = [det0 * np.trace(np.linalg.solve(g0, g[..., k])) for k in first]
        np.testing.assert_allclose(det[first], jacobi, rtol=1e-13)


# ---------------------------------------------------------------------------
# connection and curvature jets
# ---------------------------------------------------------------------------


def test_constant_metric_has_zero_connection():
    g = np.zeros((3, 3, cj.N_COEFFS))
    for i in range(3):
        g[i, i] = cj.jet_constant(1.0)
    g_inv, _ = cj.jet_matrix_inverse(g)
    gamma = cj.christoffel_jets(g, g_inv)
    assert np.max(np.abs(gamma)) == 0.0


def test_pullback_flat_metric_has_zero_curvature():
    g = _pullback_chart_metric(seed=23)
    g_inv, _ = cj.jet_matrix_inverse(g)
    gamma = cj.christoffel_jets(g, g_inv)
    riem = cj.curvature_jets(gamma, g)
    assert np.max(np.abs(cj.jet_value(riem))) <= 1e-10


def test_christoffel_transposes_equal_the_index_loop_bit_for_bit():
    spec = cj.random_chart_spec(17)
    g_inv, _ = cj.jet_matrix_inverse(spec.metric)
    dg = cj.jet_grad(spec.metric)
    t = np.empty((3, 3, 3, dg.shape[-1]))
    for a in range(3):
        for b in range(3):
            for c in range(3):
                t[a, b, c] = dg[a, c, b] + dg[b, c, a] - dg[c, a, b]
    expected = 0.5 * cj.jet_einsum("abc,cm->abm", t, g_inv)
    assert np.array_equal(cj.christoffel_jets(spec.metric, g_inv), expected)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_cov_deriv_slot_specs_match_the_moveaxis_loop(rank):
    rng = np.random.default_rng(40 + rank)
    gamma = rng.normal(size=(3, 3, 3, cj.JET_SIZES[2]))
    tensor = rng.normal(size=(3,) * rank + (cj.JET_SIZES[2],))
    expected = cj.jet_grad(tensor)
    for r in range(rank):
        corr = cj.jet_einsum("aim,m...->ai...", gamma[..., : cj.JET_SIZES[1]], np.moveaxis(tensor, r, 0))
        expected -= np.moveaxis(corr, 1, r + 1)
    _assert_rel_close(cj.cov_deriv_jets(gamma, tensor), expected, rtol=1e-14)


def test_christoffel_metricity():
    spec = cj.random_chart_spec(7)
    g_inv, _ = cj.jet_matrix_inverse(spec.metric)
    gamma = cj.christoffel_jets(spec.metric, g_inv)
    nabla_g = cj.cov_deriv_jets(gamma, spec.metric)
    assert np.max(np.abs(cj.jet_value(nabla_g))) <= 1e-12


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------


def test_flat_zero_sample_all_derived_fields_vanish(chart_laplacian):
    g = np.zeros((3, 3, cj.N_COEFFS))
    for i in range(3):
        g[i, i] = cj.jet_constant(1.0)
    spec = cj.ChartSpec(metric=g, density=np.zeros(cj.N_COEFFS), potential=np.zeros(cj.N_COEFFS))
    sample = cj.build_chart_sample(spec)
    np.testing.assert_allclose(sample.g, np.eye(3), atol=0.0)
    for name in (
        "riemann", "ricci", "riemann_tw", "div_riemann_tw", "torsion",
        "torsion_sq", "riemann_tw_sq", "df", "dilaton",
        "nabla_dilaton", "d_scalar", "nabla_ricci", "delta_torsion",
    ):
        assert np.max(np.abs(np.asarray(getattr(sample, name)))) == 0.0, name
    assert np.max(np.abs(tc.ricci_from_riemann(sample.g_inv, sample.riemann_tw))) == 0.0
    assert sample.scalar == 0.0
    assert sample.f == 0.0
    assert chart_laplacian(spec) == 0.0
    assert so.strong_skew_scalar(so.SolitonCandidate(sample, 1.0)) == 0.0
    assert sample.riemann_tw_norm2 == 0.0


def test_zero_flux_sample_twisted_equals_untwisted():
    spec = cj.random_chart_spec(31)
    spec = cj.ChartSpec(
        metric=spec.metric,
        density=np.zeros(cj.N_COEFFS),
        potential=spec.potential,
        seed=spec.seed,
    )
    sample = cj.build_chart_sample(spec)
    assert sample.f == 0.0
    # no torsion, so the twisted connection is the Levi-Civita one
    assert np.max(np.abs(sample.torsion)) == 0.0
    np.testing.assert_allclose(sample.riemann_tw, sample.riemann, atol=1e-12)
    np.testing.assert_allclose(
        tc.ricci_from_riemann(sample.g_inv, sample.riemann_tw), sample.ricci, atol=1e-12
    )


def test_maxwell_sample_couples_flux_to_dilaton(chart_samples):
    """maxwell charts satisfy f * dilaton = df at the sample point."""
    seen = 0
    for sample in chart_samples:
        if not sample.meta.get("maxwell"):
            continue
        seen += 1
        np.testing.assert_allclose(sample.f * sample.dilaton, sample.df, atol=1e-10)
    assert seen >= 2


def test_generic_sample_dilaton_is_independent(chart_samples):
    generic = [s for s in chart_samples if not s.meta.get("maxwell")]
    assert any(np.max(np.abs(s.f * s.dilaton - s.df)) > 1e-3 for s in generic)


def test_sample_internal_consistency(chart_samples, chart_laplacian):
    for sample in chart_samples:
        g, g_inv = sample.g, sample.g_inv
        np.testing.assert_allclose(g_inv, np.linalg.inv(g), atol=1e-10)
        # contract the builder's fields through an inverse it did not compute
        inv = tc.metric_inverse(g)
        # antisymmetrization-level symmetries of both curvatures
        for riem in (sample.riemann, sample.riemann_tw):
            np.testing.assert_allclose(riem, -np.swapaxes(riem, 0, 1), atol=1e-10)
            np.testing.assert_allclose(riem, -np.swapaxes(riem, 2, 3), atol=1e-10)
        np.testing.assert_allclose(sample.ricci, sample.ricci.T, atol=1e-10)
        np.testing.assert_allclose(
            sample.ricci, tc.ricci_from_riemann(inv, sample.riemann), atol=1e-10
        )
        assert sample.scalar == pytest.approx(
            tc.scalar_curvature(inv, sample.ricci), rel=1e-10, abs=1e-12
        )
        # flux three-form and its contractions
        np.testing.assert_allclose(
            sample.torsion, sample.f * tc.volume_form(g, sample.orientation), atol=1e-10
        )
        np.testing.assert_allclose(
            sample.torsion_sq, tc.torsion_square(inv, sample.torsion), atol=1e-10
        )
        assert sample.torsion_norm2 == pytest.approx(sample.f**2, rel=1e-10, abs=1e-12)
        # H = f vol and vol is parallel, so nabla H = df (x) vol
        nabla_torsion = np.einsum("a,bcd->abcd", sample.df, tc.volume_form(g, sample.orientation))
        np.testing.assert_allclose(
            sample.delta_torsion,
            tc.codifferential_from_nabla(g_inv, nabla_torsion),
            atol=1e-10,
        )
        np.testing.assert_allclose(
            tc.ricci_from_riemann(inv, sample.riemann_tw),
            sample.ricci - 0.5 * sample.torsion_sq + 0.5 * sample.delta_torsion,
            atol=1e-10,
        )
        # quadratic blocks match the pointwise contractions of riemann_tw
        np.testing.assert_allclose(
            sample.riemann_tw_sq, tc.riemann_square(inv, sample.riemann_tw), atol=1e-9
        )
        assert sample.riemann_tw_norm2 == pytest.approx(
            tc.riemann_norm2(inv, sample.riemann_tw), rel=1e-9
        )
        # dilaton bookkeeping
        assert sample.dilaton_norm2 == pytest.approx(
            float(sample.dilaton @ g_inv @ sample.dilaton), rel=1e-10, abs=1e-12
        )
        # Hess f from the chart spec is symmetric, and laplace f =
        # -g^ab (d_a d_b f - Gamma^m_ab d_m f) equals the divergence form
        # -(1/sqrt(det g)) d_a (sqrt(det g) g^ab d_b f)
        spec = cj.random_chart_spec(sample.meta["seed"], maxwell=sample.meta["maxwell"])
        g_inv_jets, det = cj.jet_matrix_inverse(spec.metric)
        gamma = cj.jet_value(cj.christoffel_jets(spec.metric, g_inv_jets))
        d2f = cj.jet_value(cj.jet_grad(cj.jet_grad(spec.density)))
        hess_f = d2f - np.einsum("abm,m->ab", gamma, sample.df)
        np.testing.assert_allclose(hess_f, hess_f.T, atol=1e-10)
        root = cj.jet_sqrt(det)
        flux = cj.jet_einsum("ab,b->a", g_inv_jets, cj.jet_grad(spec.density))
        flux = cj.jet_mul(flux, root[None, :])
        divergence = sum(cj.jet_value(cj.jet_deriv(flux[a], a)) for a in range(3))
        assert chart_laplacian(spec) == pytest.approx(
            -divergence / cj.jet_value(root), rel=1e-10, abs=1e-12
        )
        assert sample.delta_dilaton == pytest.approx(
            -float(np.tensordot(g_inv, sample.nabla_dilaton, axes=2)), rel=1e-10, abs=1e-12
        )
        # chart dilatons come from a potential, so their derivative is symmetric
        np.testing.assert_allclose(
            sample.nabla_dilaton, sample.nabla_dilaton.T, atol=1e-10
        )


def test_chart_sample_contracts_through_the_module_jet_einsum(count_calls):
    """The builder reads ``cj.jet_einsum`` and ``cj.jet_mul`` when it runs, so
    a patched module attribute (a call counter, a tracer) sees every one of
    its products: 41 contractions and 11 scalar products on a maxwell chart.
    Each contraction runs at the degree its readers need: the Christoffel
    symbols and the twisted connection at degree 2, ``H o H``, ``|H|^2`` and
    ``|phi|^2`` at degree 1, ``nabla H`` and ``delta H`` at degree 0."""
    contractions = count_calls(cj, "jet_einsum")
    products = count_calls(cj, "jet_mul")
    cj.build_chart_sample(cj.random_chart_spec(5, maxwell=True))
    assert (len(contractions), len(products)) == (41, 11)
    degrees = [min(cj.jet_degree(a), cj.jet_degree(b)) for _, a, b in contractions]
    assert {d: degrees.count(d) for d in range(4)} == {0: 16, 1: 21, 2: 2, 3: 2}


def test_conformal_chart_curvature():
    """g = exp(2 c x1) Id has Ricci c^2 diag(0, -1, -1) - style values at 0."""
    c = 0.8
    sample = cj.build_chart_sample(cj.conformal_chart_spec(c))
    expected = c**2 * np.diag([0.0, -1.0, -1.0])
    np.testing.assert_allclose(sample.ricci, expected, atol=1e-10)
    assert sample.scalar == pytest.approx(-2.0 * c**2, rel=1e-10)


def test_hyperbolic_chart_constant_curvature():
    c = 1.3
    sample = cj.build_chart_sample(cj.hyperbolic_chart_spec(c))
    np.testing.assert_allclose(sample.ricci, -2.0 * c**2 * sample.g, atol=1e-9)
    assert sample.scalar == pytest.approx(-6.0 * c**2, rel=1e-10)
    rebuilt = tc.riemann_from_ricci_dim3(sample.g, sample.ricci, sample.scalar)
    np.testing.assert_allclose(sample.riemann, rebuilt, atol=1e-9)


def test_second_bianchi_contracted(chart_samples):
    """Contracted differential identity: div Ric = d s / 2."""
    for sample in chart_samples:
        div_ric = np.einsum("ab,abv->v", sample.g_inv, sample.nabla_ricci)
        np.testing.assert_allclose(div_ric, 0.5 * sample.d_scalar, atol=1e-9)


def test_orientation_flips_odd_fields():
    plus = cj.build_chart_sample(cj.random_chart_spec(41))
    spec = cj.random_chart_spec(41)
    minus = cj.build_chart_sample(
        cj.ChartSpec(
            metric=spec.metric, density=spec.density, potential=spec.potential,
            orientation=-1, seed=spec.seed,
        )
    )
    np.testing.assert_allclose(minus.torsion, -plus.torsion, atol=1e-12)
    np.testing.assert_allclose(minus.torsion_sq, plus.torsion_sq, atol=1e-12)
    np.testing.assert_allclose(minus.riemann_tw_norm2, plus.riemann_tw_norm2, atol=1e-12)
    assert minus.f == plus.f


def test_deterministic_rebuild():
    a = cj.random_chart_sample(99, maxwell=True)
    b = cj.random_chart_sample(99, maxwell=True)
    np.testing.assert_array_equal(a.riemann_tw, b.riemann_tw)
    np.testing.assert_array_equal(a.div_riemann_tw, b.div_riemann_tw)
    assert a.f == b.f


def test_maxwell_exponential_relation(chart_laplacian):
    """The tied charts satisfy f = f(0) * exp(potential) along the jet."""
    spec = cj.random_chart_spec(13, maxwell=True)
    sample = cj.build_chart_sample(spec)
    assert sample.f != 0.0
    assert math.isfinite(chart_laplacian(spec))
    # closed dilaton: the twisted skew residual equals the dual of (f phi - df)
    residual = sample.f * sample.dilaton - sample.df
    np.testing.assert_allclose(residual, 0.0, atol=1e-10)



# ---------------------------------------------------------------------------
# batches and input checks
# ---------------------------------------------------------------------------


def _all_fields_finite(sample) -> bool:
    return all(
        np.all(np.isfinite(getattr(sample, item.name)))
        for item in dataclasses.fields(sample)
        if item.name not in ("backend", "orientation", "meta")
    )


def test_chart_batch_matches_batches_of_one(samples_match):
    specs = [cj.random_chart_spec(seed, maxwell=bool(seed % 2)) for seed in range(6)]
    specs[2].orientation = -1  # a plain chart
    specs[3].orientation = -1  # a maxwell chart
    negative = cj.random_chart_spec(17)
    negative.density[0] = -0.9  # no log is taken of a plain chart's density
    specs += [negative, cj.hyperbolic_chart_spec(0.7), cj.conformal_chart_spec(1.1)]
    batch = cj.build_chart_samples(specs)
    samples_match(batch, [cj.build_chart_sample(spec) for spec in specs])
    assert batch[6].f < 0.0 and batch[3].orientation == -1
    # the order of a batch does not matter either
    samples_match(cj.build_chart_samples(specs[::-1]), batch[::-1])
    assert cj.build_chart_samples([]) == []


@pytest.mark.parametrize("size", [1, 2, 5])
def test_chart_batch_contracts_as_often_as_one_sample(count_calls, size):
    contractions = count_calls(cj, "jet_einsum")
    products = count_calls(cj, "jet_mul")
    cj.build_chart_samples([cj.random_chart_spec(seed, maxwell=True) for seed in range(size)])
    assert (len(contractions), len(products)) == (41, 11)


def _set_jet(name, index, value):
    def edit(spec):
        getattr(spec, name)[index] = value
    return edit


def _set_attr(name, value):
    def edit(spec):
        setattr(spec, name, value)
    return edit


@pytest.mark.parametrize(
    "edit, match",
    [
        (_set_jet("metric", Ellipsis, 0.0), "not positive definite"),
        (_set_jet("metric", (0, 0, 0), -1.0), "not positive definite"),
        (_set_jet("metric", (0, 1, 0), 0.2), "not symmetric"),
        (_set_jet("metric", (1, 2, 17), math.nan), "must be finite"),
        (_set_jet("density", 8, math.inf), "must be finite"),
        (_set_jet("potential", 19, -math.inf), "must be finite"),
        (_set_attr("orientation", 0), "orientation"),
        (_set_attr("orientation", 2), "orientation"),
        (_set_attr("density", np.ones(cj.JET_SIZES[2])), "shape"),
        (_set_attr("metric", np.zeros((3, 3, cj.JET_SIZES[2]))), "shape"),
    ],
)
def test_chart_builders_reject_bad_input(edit, match):
    specs = [cj.random_chart_spec(seed) for seed in range(3)]
    edit(specs[1])
    with pytest.raises(ValueError, match=f"sample 1: .*{match}"):
        cj.build_chart_samples(specs)
    with pytest.raises(ValueError, match=f"sample 0: .*{match}"):
        cj.build_chart_sample(specs[1])


def test_chart_builder_rejects_a_maxwell_chart_without_positive_density():
    spec = cj.random_chart_spec(4, maxwell=True)
    spec.density[0] = -0.5
    with pytest.raises(ValueError, match="sample 1: .*positive density"):
        cj.build_chart_samples([cj.random_chart_spec(3), spec])


def test_chart_builder_rejects_a_determinant_that_rounds_to_zero():
    spec = cj.random_chart_spec(4)
    spec.metric = spec.metric * 1e-120  # SPD, but det g underflows
    with pytest.raises(ValueError, match="determinant"):
        cj.build_chart_sample(spec)


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=60, deadline=None)
@given(
    seed=SEEDS,
    maxwell=st.booleans(),
    orientation=st.sampled_from([1, -1, 1, -1, 0, 2]),
    scale=st.sampled_from([1.0, 1.0, 1e-110, 1e110]),
    edits=st.lists(
        st.tuples(st.sampled_from(["metric", "density", "potential"]), st.integers(0, 179), ANY_FLOAT),
        max_size=3,
    ),
)
def test_chart_builders_return_finite_fields_or_raise_value_error(seed, maxwell, orientation, scale, edits):
    """No other exception and no RuntimeWarning (an error under this suite's
    warning filter), whatever the coefficients."""
    spec = cj.random_chart_spec(seed, maxwell=maxwell)
    spec.metric = spec.metric * scale
    spec.orientation = orientation
    for name, index, value in edits:
        jets = getattr(spec, name).reshape(-1)
        jets[index % jets.size] = value
    for build in (lambda: [cj.build_chart_sample(spec)],
                  lambda: cj.build_chart_samples([cj.random_chart_spec(seed + 1), spec])):
        try:
            samples = build()
        except ValueError:
            continue
        assert all(_all_fields_finite(sample) for sample in samples)
