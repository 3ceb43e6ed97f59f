"""Pointwise tensor algebra: conventions, oracles, and algebraic identities."""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hetflow import chart_jets as cj
from hetflow import homogeneous as hg
from hetflow import tensor_core as tc

SEEDS = st.integers(min_value=0, max_value=10**6)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _spd(rng, n: int = 3) -> np.ndarray:
    a = rng.normal(size=(n, n))
    return a @ a.T + 0.5 * np.eye(n)


def _random_riemann(rng, n: int) -> np.ndarray:
    """Tensor antisymmetric in each index pair (no first-Bianchi symmetry)."""
    t = rng.normal(size=(n, n, n, n))
    t = t - np.swapaxes(t, 0, 1)
    return t - np.swapaxes(t, 2, 3)


def _random_three_form(rng, n: int = 3) -> np.ndarray:
    return tc.alt(rng.normal(size=(n, n, n)))


# ---------------------------------------------------------------------------
# metric plumbing
# ---------------------------------------------------------------------------


def test_validate_metric_rejects_indefinite():
    with pytest.raises(ValueError):
        tc.validate_metric(np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        tc.validate_metric(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "bad, match",
    [
        (np.diag([1.0, -1.0, 1.0]), "metric is not positive definite \\(min eigenvalue -1.000e\\+00\\)"),
        (np.zeros((3, 3)), "metric is not positive definite"),
        (np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), "metric is not symmetric"),
        (np.diag([1.0, np.inf, 1.0]), "metric contains non-finite entries"),
    ],
)
def test_validate_metric_names_the_failing_matrix_of_a_stack(bad, match):
    good = np.eye(3) + 0.1
    with pytest.raises(ValueError, match=f"^{match}"):
        tc.validate_metric(bad)
    with pytest.raises(ValueError, match=f"^sample 2: {match}"):
        tc.validate_metric(np.array([good, 2.0 * good, bad, bad]))
    tc.validate_metric(np.array([good, 1e300 * good, 1e-300 * good]))


@settings(max_examples=25)
@given(SEEDS)
def test_frame_orthonormalize_property(seed):
    g = _spd(_rng(seed))
    frame = tc.frame_orthonormalize(g)
    np.testing.assert_allclose(frame.T @ g @ frame, np.eye(3), atol=1e-12)


def test_principal_values_match_scipy_generalized_eigh():
    rng = _rng(61)
    for _ in range(200):
        g = _spd(rng)
        a = rng.normal(size=(3, 3))
        bilinear = a + a.T
        w, vecs = tc.principal_values(g, bilinear)
        ref_w, ref_vecs = scipy.linalg.eigh(bilinear, g)
        scale = max(1.0, float(np.max(np.abs(ref_w))))
        assert np.max(np.abs(w - ref_w)) <= 1e-12 * scale
        # Eigenvectors are fixed up to sign.
        signs = np.sign(np.sum(vecs * ref_vecs, axis=0))
        assert np.max(np.abs(vecs * signs - ref_vecs)) <= 1e-12 * np.max(np.abs(ref_vecs))
        np.testing.assert_allclose(vecs.T @ g @ vecs, np.eye(3), atol=1e-12)


@settings(max_examples=25)
@given(SEEDS)
def test_flat_sharp_roundtrip(seed):
    rng = _rng(seed)
    g = _spd(rng)
    v = rng.normal(size=3)
    np.testing.assert_allclose(tc.sharp(tc.metric_inverse(g), tc.flat(g, v)), v, atol=1e-12)


# ---------------------------------------------------------------------------
# alternation, wedge, interior product
# ---------------------------------------------------------------------------


@settings(max_examples=25)
@given(SEEDS)
def test_alt_is_projection(seed):
    t = _rng(seed).normal(size=(3, 3, 3))
    a = tc.alt(t)
    np.testing.assert_allclose(tc.alt(a), a, atol=1e-12)
    np.testing.assert_allclose(a, -np.swapaxes(a, 0, 1), atol=1e-12)
    np.testing.assert_allclose(a, -np.swapaxes(a, 1, 2), atol=1e-12)


def test_sym_alt_decompose_two_tensors(rng):
    t = rng.normal(size=(3, 3))
    np.testing.assert_allclose(tc.sym(t) + tc.alt(t), t, atol=1e-14)


@settings(max_examples=25)
@given(SEEDS)
def test_wedge_one_forms_anticommute(seed):
    rng = _rng(seed)
    a, b = rng.normal(size=3), rng.normal(size=3)
    ab = tc.wedge(a, b)
    np.testing.assert_allclose(ab, -tc.wedge(b, a), atol=1e-12)
    np.testing.assert_allclose(ab, np.outer(a, b) - np.outer(b, a), atol=1e-12)


def test_wedge_triple_is_determinant_multiple(rng):
    a, b, c = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
    triple = tc.wedge(tc.wedge(a, b), c)
    det = float(np.linalg.det(np.stack([a, b, c])))
    np.testing.assert_allclose(triple, det * tc.levi_civita_symbol(3), atol=1e-12)


def test_interior_is_antiderivation_on_decomposables(rng):
    x = rng.normal(size=3)
    a, b = rng.normal(size=3), rng.normal(size=3)
    lhs = tc.interior(x, tc.wedge(a, b))
    rhs = float(a @ x) * b - float(b @ x) * a
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("rank", [0, 1, 2, 3, 4])
def test_raise_all_matches_the_slot_loop(random_spd, rank):
    g_inv = tc.metric_inverse(random_spd())
    tensor = np.random.default_rng(70 + rank).normal(size=(3,) * rank)
    expected = tensor
    for axis in range(rank):
        expected = np.moveaxis(np.tensordot(g_inv, expected, axes=([1], [axis])), 0, axis)
    got = tc.raise_all(g_inv, tensor)
    assert np.shape(got) == np.shape(expected)
    assert np.max(np.abs(got - expected)) <= 1e-14 * max(1.0, np.max(np.abs(expected)))


# ---------------------------------------------------------------------------
# volume form and duality
# ---------------------------------------------------------------------------


def test_levi_civita_symbol_values():
    eps = tc.levi_civita_symbol(3)
    assert eps[0, 1, 2] == 1.0
    assert eps[1, 0, 2] == -1.0
    assert eps[0, 0, 2] == 0.0


@settings(max_examples=25)
@given(SEEDS)
def test_volume_form_unit_norm(seed):
    g = _spd(_rng(seed))
    vol = tc.volume_form(g)
    assert tc.form_inner(tc.metric_inverse(g), vol, vol) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(tc.volume_form(g, orientation=-1), -vol, atol=1e-14)


@settings(max_examples=25)
@given(SEEDS, st.integers(min_value=0, max_value=3))
def test_hodge_involution_dim3(seed, degree):
    rng = _rng(seed)
    g = _spd(rng)
    g_inv, vol = tc.metric_inverse(g), tc.volume_form(g)
    if degree == 0:
        alpha = float(rng.normal())
        twice = tc.hodge(g_inv, vol, tc.hodge(g_inv, vol, alpha))
        assert twice == pytest.approx(alpha, rel=1e-12, abs=1e-12)
        return
    alpha = tc.alt(rng.normal(size=(3,) * degree))
    np.testing.assert_allclose(tc.hodge(g_inv, vol, tc.hodge(g_inv, vol, alpha)), alpha, atol=1e-10)


def test_hodge_is_isometry(rng):
    g = _spd(rng)
    g_inv = tc.metric_inverse(g)
    a, b = rng.normal(size=3), rng.normal(size=3)
    vol = tc.volume_form(g)
    lhs = tc.form_inner(g_inv, tc.hodge(g_inv, vol, a), tc.hodge(g_inv, vol, b))
    rhs = tc.form_inner(g_inv, a, b)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_interior_volume_is_hodge_of_flat(rng):
    g = _spd(rng)
    x = rng.normal(size=3)
    lhs = tc.interior(x, tc.volume_form(g))
    rhs = tc.hodge(tc.metric_inverse(g), tc.volume_form(g), tc.flat(g, x))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_hodge_orientation_flip(rng):
    g = _spd(rng)
    g_inv = tc.metric_inverse(g)
    a = rng.normal(size=3)
    np.testing.assert_allclose(
        tc.hodge(g_inv, tc.volume_form(g, orientation=-1), a),
        -tc.hodge(g_inv, tc.volume_form(g, orientation=1), a),
        atol=1e-14,
    )


# ---------------------------------------------------------------------------
# endomorphism helpers
# ---------------------------------------------------------------------------


@settings(max_examples=25)
@given(SEEDS)
def test_endo_bilinear_roundtrip(seed):
    rng = _rng(seed)
    g = _spd(rng)
    b = rng.normal(size=(3, 3))
    endo = tc.endo_from_bilinear(tc.metric_inverse(g), b)
    np.testing.assert_allclose(tc.bilinear_from_endo(g, endo), b, atol=1e-10)
    u, v = rng.normal(size=3), rng.normal(size=3)
    assert float(v @ g @ (endo @ u)) == pytest.approx(float(u @ b @ v), rel=1e-10, abs=1e-10)


def _wedge_vectors_endo(g: np.ndarray, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Skew endomorphism ``(v1 ^ v2)(w) = g(v1, w) v2 - g(v2, w) v1``."""
    return np.outer(v2, g @ v1) - np.outer(v1, g @ v2)


def _torsion_endo(g_inv: np.ndarray, torsion: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Endomorphism ``w -> (H(u, w, .))^sharp`` of a 3-form ``H`` and vector ``u``."""
    return np.einsum("a,abc,cm->mb", u, torsion, g_inv)


def test_wedge_vectors_endo_formula(rng):
    g = _spd(rng)
    v1, v2, w = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
    endo = _wedge_vectors_endo(g, v1, v2)
    expected = float(v1 @ g @ w) * v2 - float(v2 @ g @ w) * v1
    np.testing.assert_allclose(endo @ w, expected, atol=1e-12)
    skew = tc.bilinear_from_endo(g, endo)
    np.testing.assert_allclose(skew, -skew.T, atol=1e-12)


def test_torsion_endo_componentwise_oracle(rng):
    g = _spd(rng)
    g_inv = tc.metric_inverse(g)
    h = _random_three_form(rng)
    u = rng.normal(size=3)
    endo = _torsion_endo(g_inv, h, u)
    expected = np.zeros((3, 3))
    for m in range(3):
        for b in range(3):
            expected[m, b] = sum(
                u[a] * h[a, b, c] * g_inv[c, m] for a in range(3) for c in range(3)
            )
    np.testing.assert_allclose(endo, expected, atol=1e-12)
    # metric contraction of the endomorphism recovers the 2-form slice
    np.testing.assert_allclose(
        tc.bilinear_from_endo(g, endo), np.einsum("a,abc->bc", u, h), atol=1e-12
    )


def test_torsion_endo_zero_inputs(rng):
    g_inv = tc.metric_inverse(_spd(rng))
    u = rng.normal(size=3)
    np.testing.assert_allclose(_torsion_endo(g_inv, np.zeros((3, 3, 3)), u), 0.0, atol=0.0)


# ---------------------------------------------------------------------------
# quadratic contractions and their oracles
# ---------------------------------------------------------------------------


def test_torsion_square_zero():
    g_inv = np.eye(3)
    np.testing.assert_allclose(tc.torsion_square(g_inv, np.zeros((3, 3, 3))), 0.0, atol=0.0)


def test_torsion_square_componentwise_oracle(rng):
    g = _spd(rng)
    g_inv = tc.metric_inverse(g)
    h = _random_three_form(rng)
    expected = np.zeros((3, 3))
    for a in range(3):
        for b in range(3):
            expected[a, b] = 0.5 * sum(
                h[a, i, j] * h[b, k, l] * g_inv[i, k] * g_inv[j, l]
                for i in range(3)
                for j in range(3)
                for k in range(3)
                for l in range(3)
            )
    np.testing.assert_allclose(tc.torsion_square(g_inv, h), expected, atol=1e-12)


def test_torsion_square_of_scaled_volume(rng):
    """The dual-scalar torsion ``f nu`` squares to ``f^2 g``."""
    g = _spd(rng)
    f = 1.7
    h = f * tc.volume_form(g)
    g_inv = tc.metric_inverse(g)
    np.testing.assert_allclose(tc.torsion_square(g_inv, h), f**2 * g, atol=1e-10)
    assert tc.torsion_norm2(g_inv, h) == pytest.approx(f**2, rel=1e-12)


def test_riemann_square_zero():
    g_inv = np.eye(4)
    np.testing.assert_allclose(tc.riemann_square(g_inv, np.zeros((4, 4, 4, 4))), 0.0, atol=0.0)


def test_riemann_square_triple_sum_oracle_dim4(rng):
    g = _spd(rng, 4)
    g_inv = tc.metric_inverse(g)
    riem = _random_riemann(rng, 4)
    expected = np.zeros((4, 4))
    idx = range(4)
    for a in idx:
        for b in idx:
            total = 0.0
            for i, j, k in itertools.product(idx, idx, idx):
                raised = sum(
                    riem[b, p, q, r] * g_inv[p, i] * g_inv[q, j] * g_inv[r, k]
                    for p in idx
                    for q in idx
                    for r in idx
                )
                total += riem[a, i, j, k] * raised
            expected[a, b] = 0.5 * total
    np.testing.assert_allclose(tc.riemann_square(g_inv, riem), expected, atol=1e-10)


def test_riemann_norm2_quadruple_sum_oracle(rng):
    g = _spd(rng)
    g_inv = tc.metric_inverse(g)
    riem = _random_riemann(rng, 3)
    raised = np.einsum("abcd,ap,bq,cr,ds->pqrs", riem, g_inv, g_inv, g_inv, g_inv)
    expected = 0.25 * float(np.sum(riem * raised))
    assert tc.riemann_norm2(g_inv, riem) == pytest.approx(expected, rel=1e-12)
    assert tc.riemann_norm2(g_inv, np.zeros((3, 3, 3, 3))) == 0.0


def _wedge_two_forms_bruteforce(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a ^ b) for 2-forms via the interleaving permutation sum."""
    n = a.shape[0]
    out = np.zeros((n, n, n, n))
    for idx in itertools.product(range(n), repeat=4):
        total = 0.0
        for perm in itertools.permutations(range(4)):
            sign = tc._perm_sign(perm)
            p = [idx[perm[r]] for r in range(4)]
            total += sign * a[p[0], p[1]] * b[p[2], p[3]]
        out[idx] = total / 4.0
    return out


def _riemann_wedge_bruteforce(g: np.ndarray, riem: np.ndarray) -> np.ndarray:
    """Frame-summed wedge of the curvature 2-forms, assembled by loops."""
    n = g.shape[0]
    frame = tc.frame_orthonormalize(g)
    out = np.zeros((n, n, n, n))
    for p in range(n):
        for q in range(n):
            two_form = np.einsum("abij,i,j->ab", riem, frame[:, p], frame[:, q])
            out += _wedge_two_forms_bruteforce(two_form, two_form)
    return 0.5 * out


def test_riemann_wedge_riemann_dim3_is_zero(rng):
    g = _spd(rng)
    riem = _random_riemann(rng, 3)
    result = tc.riemann_wedge_riemann(tc.metric_inverse(g), riem)
    assert np.max(np.abs(result)) == 0.0


def test_riemann_wedge_riemann_constant_curvature_dim4_vanishes(rng):
    """Constant-curvature input: every 2-form wedges itself to zero."""
    g = np.eye(4)
    riem = np.zeros((4, 4, 4, 4))
    for a, b in itertools.product(range(4), range(4)):
        for c, d in itertools.product(range(4), range(4)):
            riem[a, b, c, d] = (
                (1.0 if a == c and b == d else 0.0) - (1.0 if a == d and b == c else 0.0)
            )
    np.testing.assert_allclose(
        tc.riemann_wedge_riemann(tc.metric_inverse(g), riem), 0.0, atol=1e-12
    )


def test_riemann_wedge_riemann_self_dual_block_dim4(rng):
    """A self-dual unit frame block: nonzero, matches the brute force."""
    g = np.eye(4)
    w = np.zeros((4, 4))
    w[0, 1], w[1, 0] = 1.0, -1.0
    w[2, 3], w[3, 2] = 1.0, -1.0
    riem = np.einsum("ab,cd->abcd", w, w)
    result = tc.riemann_wedge_riemann(tc.metric_inverse(g), riem)
    assert np.max(np.abs(result)) > 0.1
    np.testing.assert_allclose(result, tc.alt(result), atol=1e-12)
    np.testing.assert_allclose(result, _riemann_wedge_bruteforce(g, riem), atol=1e-10)


def test_riemann_wedge_riemann_random_dim4_oracle(rng):
    g = _spd(rng, 4)
    riem = _random_riemann(rng, 4)
    g_inv = tc.metric_inverse(g)
    np.testing.assert_allclose(
        tc.riemann_wedge_riemann(g_inv, riem), _riemann_wedge_bruteforce(g, riem), atol=1e-10
    )
    np.testing.assert_allclose(
        tc.riemann_wedge_riemann(g_inv, np.zeros((4, 4, 4, 4))), 0.0, atol=0.0
    )


# ---------------------------------------------------------------------------
# traces and low-dimensional reconstructions
# ---------------------------------------------------------------------------


def test_ricci_zero_curvature_reconstructs_zero():
    g = np.eye(3)
    np.testing.assert_allclose(tc.riemann_from_ricci_dim3(g, np.zeros((3, 3)), 0.0), 0.0, atol=0.0)


def test_constant_curvature_reconstruction(rng):
    """Ric = 2c g, s = 6c reconstructs a curvature with sectional value c."""
    g = _spd(rng)
    c = 0.7
    riem = tc.riemann_from_ricci_dim3(g, 2.0 * c * g, 6.0 * c)
    g_inv = tc.metric_inverse(g)
    np.testing.assert_allclose(tc.ricci_from_riemann(g_inv, riem), 2.0 * c * g, atol=1e-10)
    assert tc.scalar_curvature(g_inv, 2.0 * c * g) == pytest.approx(6.0 * c, rel=1e-12)
    # plane spanned by orthonormal u, v has sectional curvature c
    frame = tc.frame_orthonormalize(g)
    u, v = frame[:, 0], frame[:, 1]
    sec = float(np.einsum("abcd,a,b,c,d->", riem, u, v, v, u))
    assert sec == pytest.approx(c, rel=1e-10)


def test_reconstruction_matches_chart_backend(chart_samples):
    for sample in chart_samples:
        rebuilt = tc.riemann_from_ricci_dim3(sample.g, sample.ricci, sample.scalar)
        assert tc.rel_err(sample.riemann, rebuilt) <= 1e-12


def test_square_expansions_match_on_samples(chart_samples, invariant_samples):
    for sample in chart_samples + invariant_samples:
        g, ric, s = sample.g, sample.ricci, sample.scalar
        g_inv = tc.metric_inverse(g)
        assert tc.rel_err(
            tc.riemann_square(g_inv, sample.riemann), tc.riemann_square_dim3(g, g_inv, ric, s)
        ) <= 1e-12
        assert tc.rel_err(
            tc.riemann_norm2(g_inv, sample.riemann), tc.riemann_norm2_dim3(g_inv, ric, s)
        ) <= 1e-12


def test_twisted_expansions_match_on_samples(chart_samples, invariant_samples):
    for sample in chart_samples + invariant_samples:
        g, ric, s = sample.g, sample.ricci, sample.scalar
        g_inv = tc.metric_inverse(g)
        assert tc.rel_err(
            sample.riemann_tw_sq,
            tc.riemann_square_twisted_dim3(
                g, g_inv, ric, s, sample.f, sample.df, sample.orientation
            ),
        ) <= 1e-12
        assert tc.rel_err(
            sample.riemann_tw_norm2,
            tc.riemann_norm2_twisted_dim3(g_inv, ric, s, sample.f, sample.df),
        ) <= 1e-12


def test_twisted_curvature_closed_form_matches_samples():
    """``riemann_twisted_dim3`` rebuilds the torsion-connection curvature of
    chart samples (nonconstant f, both orientations) and invariant samples."""
    samples = [hg.random_invariant_sample(seed) for seed in range(20)]
    for seed in range(10):
        spec = cj.random_chart_spec(seed, maxwell=bool(seed % 2))
        for orientation in (1, -1):
            spec.orientation = orientation
            samples.append(cj.build_chart_sample(spec))
    assert {s.orientation for s in samples} == {1, -1}
    assert all(np.any(s.df) for s in samples if s.backend == "chart")
    for sample in samples:
        closed = tc.riemann_twisted_dim3(
            sample.g, sample.riemann, sample.f, sample.df, sample.orientation
        )
        assert tc.rel_err(sample.riemann_tw, closed) <= 1e-12


def test_hodge_and_closed_forms_invert_nothing(rng, count_calls):
    g = _spd(rng)
    g_inv = tc.metric_inverse(g)
    ric = tc.sym(rng.normal(size=(3, 3)))
    s = tc.scalar_curvature(g_inv, ric)
    f, df = 0.7, rng.normal(size=3)
    inverses = count_calls(tc, "metric_inverse")
    tc.hodge(g_inv, tc.volume_form(g), df)
    tc.riemann_square_dim3(g, g_inv, ric, s)
    tc.riemann_norm2_dim3(g_inv, ric, s)
    tc.riemann_square_twisted_dim3(g, g_inv, ric, s, f, df, -1)
    tc.riemann_norm2_twisted_dim3(g_inv, ric, s, f, df)
    assert inverses == []


def test_twisted_square_constant_flux_reduces(rng):
    """df = 0 kills the commutator and gradient-square corrections."""
    g = _spd(rng)
    ric = tc.sym(rng.normal(size=(3, 3)))
    g_inv = tc.metric_inverse(g)
    s = tc.scalar_curvature(g_inv, ric)
    f = 1.3
    base = tc.riemann_square_dim3(g, g_inv, ric, s)
    twisted = tc.riemann_square_twisted_dim3(g, g_inv, ric, s, f, np.zeros(3), 1)
    expected = base - 0.5 * f**2 * ric + 0.125 * f**4 * g
    np.testing.assert_allclose(twisted, expected, atol=1e-10)
    assert tc.riemann_norm2_twisted_dim3(g_inv, ric, s, f, np.zeros(3)) == pytest.approx(
        tc.riemann_norm2_dim3(g_inv, ric, s) - 0.25 * f**2 * s + 3.0 / 16.0 * f**4, rel=1e-12
    )


# Each kernel that takes stacks, on one sample's (or stack's) fields.
_BATCHED_KERNELS = {
    "riemann_from_ricci_dim3": lambda s: tc.riemann_from_ricci_dim3(s.g, s.ricci, s.scalar),
    "riemann_square": lambda s: tc.riemann_square(s.g_inv, s.riemann),
    "riemann_norm2": lambda s: tc.riemann_norm2(s.g_inv, s.riemann),
    "ricci_norm2": lambda s: tc.ricci_norm2(s.g_inv, s.ricci),
    "riemann_square_dim3": lambda s: tc.riemann_square_dim3(s.g, s.g_inv, s.ricci, s.scalar),
    "riemann_norm2_dim3": lambda s: tc.riemann_norm2_dim3(s.g_inv, s.ricci, s.scalar),
    "riemann_twisted_dim3": lambda s: tc.riemann_twisted_dim3(s.g, s.riemann, s.f, s.df, s.orientation),
    "riemann_square_twisted_dim3": lambda s: tc.riemann_square_twisted_dim3(
        s.g, s.g_inv, s.ricci, s.scalar, s.f, s.df, s.orientation
    ),
    "riemann_norm2_twisted_dim3": lambda s: tc.riemann_norm2_twisted_dim3(
        s.g_inv, s.ricci, s.scalar, s.f, s.df
    ),
    "volume_form": lambda s: tc.volume_form(s.g, s.orientation),
    "hodge_0": lambda s: tc.hodge(s.g_inv, tc.volume_form(s.g, s.orientation), s.f),
    "hodge_1": lambda s: tc.hodge(s.g_inv, tc.volume_form(s.g, s.orientation), s.df),
    "hodge_2": lambda s: tc.hodge(s.g_inv, tc.volume_form(s.g, s.orientation), s.delta_torsion),
    "hodge_3": lambda s: tc.hodge(s.g_inv, tc.volume_form(s.g, s.orientation), s.torsion),
    "form_inner": lambda s: tc.form_inner(s.g_inv, s.torsion, tc.volume_form(s.g, s.orientation)),
    "raise_all": lambda s: tc.raise_all(s.g_inv, s.riemann_tw),
    "sharp": lambda s: tc.sharp(s.g_inv, s.df),
    "endo_from_bilinear": lambda s: tc.endo_from_bilinear(s.g_inv, s.ricci),
    "bilinear_from_endo": lambda s: tc.bilinear_from_endo(s.g, s.nabla_dilaton),
    "principal_values": lambda s: tc.principal_values(s.g, s.ricci),
}
# Kernels whose unbatched result is a Python float.
_SCALAR_KERNELS = (
    "riemann_norm2", "ricci_norm2", "riemann_norm2_dim3", "riemann_norm2_twisted_dim3",
    "hodge_3", "form_inner",
)


@pytest.mark.parametrize("name", sorted(_BATCHED_KERNELS))
def test_batched_kernel_slices_equal_single_sample_calls(mixed_stack, slices_match, name):
    stack, samples = mixed_stack
    kernel = _BATCHED_KERNELS[name]
    batched, singles = kernel(stack), [kernel(s) for s in samples]
    if name == "principal_values":  # (values, vectors)
        for part in range(2):
            slices_match(batched[part], [single[part] for single in singles])
    else:
        slices_match(batched, singles)
    if name in _SCALAR_KERNELS:
        assert all(type(single) is float for single in singles)
        assert isinstance(batched, np.ndarray)


def test_batched_rel_err_is_per_sample(mixed_stack):
    stack, samples = mixed_stack
    closed = tc.riemann_from_ricci_dim3(stack.g, stack.ricci, stack.scalar)
    per_sample = tc.rel_err(stack.riemann, closed, batch=1)
    assert per_sample.shape == (len(samples),)
    for k, s in enumerate(samples):
        single = tc.rel_err(s.riemann, tc.riemann_from_ricci_dim3(s.g, s.ricci, s.scalar))
        assert type(single) is float
        assert per_sample[k] == single


def test_rel_err_floor():
    assert tc.rel_err(np.zeros(3), np.zeros(3)) == 0.0
    assert tc.rel_err(np.array([1e-20]), np.array([0.0])) <= 1e-19
    assert tc.rel_err(np.array([2.0]), np.array([1.0])) == pytest.approx(0.5)


def test_codifferential_sign_convention(rng):
    """delta alpha = -g^{ab} (nabla alpha)_{b...} with the derivative slot first."""
    g = _spd(rng)
    g_inv = tc.metric_inverse(g)
    nabla_form = rng.normal(size=(3, 3, 3))
    expected = -np.einsum("ab,abv->v", g_inv, nabla_form)
    np.testing.assert_allclose(
        tc.codifferential_from_nabla(g_inv, nabla_form), expected, atol=1e-12
    )


def test_sectional_scale_covariance(rng):
    """Quadratic contractions scale correctly under g -> c g, R -> c R."""
    g = _spd(rng)
    riem = _random_riemann(rng, 3)
    c = 2.5
    g_inv, cg_inv = tc.metric_inverse(g), tc.metric_inverse(c * g)
    np.testing.assert_allclose(
        tc.riemann_square(cg_inv, c * riem), tc.riemann_square(g_inv, riem) / c, atol=1e-10
    )
    assert tc.riemann_norm2(cg_inv, c * riem) == pytest.approx(
        tc.riemann_norm2(g_inv, riem) / c**2, rel=1e-10
    )


def test_metric_trace_conventions(rng):
    g = _spd(rng)
    g_inv = tc.metric_inverse(g)
    assert tc.scalar_curvature(g_inv, g) == pytest.approx(3.0, rel=1e-12)
    vol = tc.volume_form(g)
    assert tc.form_norm2(g_inv, vol) == pytest.approx(1.0, rel=1e-12)
    assert math.isclose(tc.form_inner(g_inv, vol, vol), 1.0, rel_tol=1e-12)
