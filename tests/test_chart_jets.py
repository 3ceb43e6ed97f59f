"""Polynomial-chart backend: jet calculus and sample self-consistency."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetflow import chart_jets as cj
from hetflow import tensor_core as tc

SEEDS = st.integers(min_value=0, max_value=10**6)


def _jet_eval(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate the truncated polynomial at a point (broadcasts leading axes)."""
    a = np.asarray(a, dtype=float)
    mono_vals = np.array([x[0] ** m[0] * x[1] ** m[1] * x[2] ** m[2] for m in cj.MONOMIALS])
    return a @ mono_vals


def _pullback_chart_metric(seed: int) -> np.ndarray:
    """Metric jets of the pullback of the flat metric under a random
    polynomial diffeomorphism ``x -> x + quadratic`` (exactly flat), with
    coefficients uniform in ``[-0.1, 0.1]``."""
    rng = np.random.default_rng(seed)
    # Jet of each component of the map and its partials.
    jac = np.zeros((3, 3, cj.N_COEFFS))  # jac[k, i] = d_i phi^k
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
    x = np.array([0.3, -0.2, 0.0])
    assert _jet_eval(dx, x) == pytest.approx(8.0 * x[0] * x[1], rel=1e-12)
    grad = cj.jet_grad(jet)
    assert _jet_eval(grad[1], x) == pytest.approx(4.0 * x[0] ** 2, rel=1e-12)


def _einsum_triple_loop(spec, a, b):
    """Reference product: one ``np.einsum`` per monomial pair of MUL_TRIPLES."""
    out = None
    for i, j, k in cj.MUL_TRIPLES:
        term = np.einsum(spec, a[..., i], b[..., j])
        if out is None:
            out = np.zeros(np.shape(term) + (cj.N_COEFFS,))
        out[..., k] += term
    return out


def _assert_rel_close(actual, expected):
    assert actual.shape == expected.shape
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= 1e-15 * scale


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
    rng = np.random.default_rng(31)
    for _ in range(5):
        a = rng.normal(size=shape_a + (cj.N_COEFFS,))
        b = rng.normal(size=shape_b + (cj.N_COEFFS,))
        _assert_rel_close(cj.jet_einsum(spec, a, b), _einsum_triple_loop(spec, a, b))


def test_jet_mul_matches_triple_loop():
    rng = np.random.default_rng(32)
    for shape_a, shape_b in (((), ()), ((3, 3), ()), ((3, 1), (1, 3)), ((2, 3, 3), (3, 3))):
        a = rng.normal(size=shape_a + (cj.N_COEFFS,))
        b = rng.normal(size=shape_b + (cj.N_COEFFS,))
        spec = "...,...->..."
        _assert_rel_close(cj.jet_mul(a, b), _einsum_triple_loop(spec, a, b))


def test_jet_deriv_equals_rule_loop_bit_for_bit():
    rng = np.random.default_rng(34)
    jets = rng.normal(size=(3, 3, cj.N_COEFFS))
    for axis in range(cj.N_VARS):
        expected = np.zeros_like(jets)
        for dst, src, factor in cj.DERIV_RULES[axis]:
            expected[..., dst] = factor * jets[..., src]
        assert np.array_equal(cj.jet_deriv(jets, axis), expected)


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
    # truncation drops one order on differentiation; compare below top degree
    x = np.array([0.01, 0.02, -0.01])
    assert _jet_eval(lhs, x) == pytest.approx(_jet_eval(rhs, x), abs=1e-6)


def test_jet_matrix_inverse_identity():
    spec = cj.random_chart_spec(11)
    g = spec.metric
    g_inv, det = cj.jet_matrix_inverse(g)
    prod = cj.jet_einsum("ij,jk->ik", g, g_inv)
    for i in range(3):
        for j in range(3):
            target = cj.jet_constant(1.0 if i == j else 0.0)
            np.testing.assert_allclose(prod[i, j], target, atol=1e-10)
    manual_det = cj.jet_determinant(g)
    np.testing.assert_allclose(det, manual_det, atol=1e-12)


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


def test_christoffel_metricity():
    spec = cj.random_chart_spec(7)
    g_inv, _ = cj.jet_matrix_inverse(spec.metric)
    gamma = cj.christoffel_jets(spec.metric, g_inv)
    nabla_g = cj.cov_deriv_jets(gamma, spec.metric)
    assert np.max(np.abs(cj.jet_value(nabla_g))) <= 1e-12


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------


def test_flat_zero_sample_all_derived_fields_vanish():
    g = np.zeros((3, 3, cj.N_COEFFS))
    for i in range(3):
        g[i, i] = cj.jet_constant(1.0)
    spec = cj.ChartSpec(metric=g, density=np.zeros(cj.N_COEFFS), potential=np.zeros(cj.N_COEFFS))
    sample = cj.build_chart_sample(spec)
    np.testing.assert_allclose(sample.g, np.eye(3), atol=0.0)
    for name in (
        "riemann", "ricci", "riemann_tw", "ricci_tw", "div_riemann_tw", "torsion",
        "torsion_sq", "riemann_tw_sq", "df", "hess_f", "dilaton",
        "nabla_dilaton", "d_scalar", "nabla_ricci", "delta_torsion",
    ):
        assert np.max(np.abs(np.asarray(getattr(sample, name)))) == 0.0, name
    assert sample.scalar == 0.0
    assert sample.f == 0.0
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
    np.testing.assert_allclose(sample.riemann_tw, sample.riemann, atol=1e-12)
    np.testing.assert_allclose(sample.ricci_tw, sample.ricci, atol=1e-12)
    np.testing.assert_allclose(sample.gamma_tw, sample.gamma, atol=1e-12)


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


def test_sample_internal_consistency(chart_samples):
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
        assert sample.laplace_f == pytest.approx(
            -float(np.tensordot(g_inv, sample.hess_f, axes=2)), rel=1e-10, abs=1e-12
        )
        assert sample.delta_dilaton == pytest.approx(
            -float(np.tensordot(g_inv, sample.nabla_dilaton, axes=2)), rel=1e-10, abs=1e-12
        )
        np.testing.assert_allclose(sample.hess_f, sample.hess_f.T, atol=1e-10)
        # chart dilatons come from a potential, so their derivative is symmetric
        np.testing.assert_allclose(
            sample.nabla_dilaton, sample.nabla_dilaton.T, atol=1e-10
        )


def test_chart_sample_contracts_through_the_module_jet_einsum(count_calls):
    """The builder reads ``cj.jet_einsum`` when it runs, so a patched module
    attribute (a call counter, a tracer) sees every one of its contractions."""
    calls = count_calls(cj, "jet_einsum")
    cj.build_chart_sample(cj.random_chart_spec(5))
    assert len(calls) == 42


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


def test_maxwell_exponential_relation():
    """The tied charts satisfy f = f(0) * exp(potential) along the jet."""
    spec = cj.random_chart_spec(13, maxwell=True)
    sample = cj.build_chart_sample(spec)
    assert sample.f != 0.0
    assert math.isfinite(sample.laplace_f)
    # closed dilaton: the twisted skew residual equals the dual of (f phi - df)
    residual = sample.f * sample.dilaton - sample.df
    np.testing.assert_allclose(residual, 0.0, atol=1e-10)
