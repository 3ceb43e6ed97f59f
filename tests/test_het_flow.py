"""Flow right-hand sides, conservation laws, events, and scalar cross-checks.

Oracles used here:

* generalized-flow reduction at ``kappa = 0`` assembled independently from
  the homogeneous curvature pipeline;
* scalar conformal-factor ODEs from :mod:`hetflow.homothety` in the regimes
  where the tensor flow provably preserves the conformal family (flat base
  for any coupling, ``kappa = 0`` for any base, and initial slopes at unit
  scale, at zero flux for a curved Einstein base);
* the generic curvature chain for the diagonal and Einstein paths of
  :func:`hf.integrate_flow`, in a rotated frame that keeps it generic, and an
  ``mpmath`` quadrature for the Einstein path's degeneration time;
* a Maurer-Cartan antiderivation build of the exterior derivative plus a
  permutation-sum wedge of curvature 2-forms for the dimension-4 constraint.
"""

import importlib.util
import itertools
import math
import traceback
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp as scipy_solve_ivp

import hetflow
from hetflow import het_flow as hf
from hetflow import homogeneous as hg
from hetflow import homothety as ht
from hetflow import soliton as so
from hetflow import tensor_core as tc

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _random_state(rng, name, **kwargs):
    alg = hg.catalog(name, **kwargs)
    a = rng.normal(size=(3, 3))
    g = a @ a.T + 0.5 * np.eye(3)
    return hf.FlowState3(algebra=alg, g=g, f=float(rng.normal()))


def _algebra_of(candidate):
    meta = candidate.sample.meta
    name = meta["algebra"]
    if name == "hyperbolic":
        return hg.catalog("hyperbolic", c=meta["c"])
    if name == "heisenberg":
        return hg.catalog("heisenberg")
    raise AssertionError(f"unexpected constructor algebra {name!r}")


def _einstein_positive_algebra():
    # Bi-invariant metric on the compact simple algebra: Ricci = (lam^2 / 2) g,
    # so lam = sqrt(2/3) normalizes the scalar curvature of the identity
    # metric to +1.
    lam = math.sqrt(2.0 / 3.0)
    return hg.from_milnor([lam, lam, lam], name="round")


def _rotation():
    # Rodrigues' formula: angle 0.7 about the axis (1, 2, 3).
    axis = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
    k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    return np.eye(3) + math.sin(0.7) * k + (1.0 - math.cos(0.7)) * k @ k


_Q = _rotation()


def _rotated(alg, diag):
    """``alg`` in the frame ``e'_i = Q_ia e_a`` and the metric ``Q diag(d) Q^T`` there.

    The same geometry as ``diag(d)`` on ``alg``, but not in bracket normal
    form, so :func:`hf.integrate_flow` takes its generic path.
    """
    c = np.einsum("ia,jb,abm,km->ijk", _Q, _Q, alg.structure, _Q)
    return hg.LieAlgebraData(f"{alg.name}-rotated", 3, c), _Q @ np.diag(diag) @ _Q.T


def _l_form_algebra(ell):
    """The algebra ``[e_i, e_j] = l_i e_j - l_j e_i`` of a one-form ``l``."""
    eye = np.eye(3)
    c = np.einsum("i,jk->ijk", ell, eye) - np.einsum("j,ik->ijk", ell, eye)
    return hg.LieAlgebraData("l-form", 3, c)


def _compare_with_scalar(alg, case, kappa, mu, t_end, n_points=17):
    state = hf.FlowState3(algebra=alg, g=np.eye(3), f=mu)
    traj = hf.integrate_flow(
        state, hf.FlowParams(kappa=kappa, t_span=(0.0, t_end), n_points=n_points)
    )
    scalar = ht.integrate(
        ht.HomothetyProblem(case=case, kappa=kappa, mu=mu), (0.0, t_end), n_points=n_points
    )
    m = min(traj.t.size, scalar.t.size)
    assert m >= 2
    worst_sigma = 0.0
    worst_aniso = 0.0
    worst_f = 0.0
    for i in range(m):
        g = traj.g[i]
        worst_aniso = max(worst_aniso, float(np.max(np.abs(g - g[0, 0] * np.eye(3)))))
        worst_sigma = max(worst_sigma, abs(g[0, 0] - scalar.sigma[i]) / abs(scalar.sigma[i]))
        worst_f = max(worst_f, abs(traj.f[i] - scalar.f[i]))
    return worst_sigma, worst_aniso, worst_f


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------


def test_flat_torsion_free_data_is_stationary():
    state = hf.FlowState3(algebra=hg.catalog("r3"), g=np.eye(3), f=0.0)
    g_dot, f_dot = hf.rhs_3d(state, kappa=2.5)
    assert np.max(np.abs(g_dot)) == 0.0
    assert f_dot == 0.0


def test_kappa_zero_reduces_to_generalized_flow():
    rng = np.random.default_rng(41)
    for name, kwargs in [
        ("heisenberg", {}),
        ("su2", {"kappa": 1.4}),
        ("sl2r", {}),
        ("hyperbolic", {"c": 0.6}),
    ]:
        state = _random_state(rng, name, **kwargs)
        g_dot, _ = hf.rhs_3d(state, kappa=0.0)
        g_inv = tc.metric_inverse(state.g)
        gamma = hg.levi_civita_connection(state.algebra, state.g, g_inv)
        riemann = hg.invariant_riemann(state.algebra, state.g, gamma)
        ricci = tc.ricci_from_riemann(g_inv, riemann)
        torsion = state.f * tc.volume_form(state.g)
        expected = -2.0 * ricci + tc.torsion_square(g_inv, torsion)
        np.testing.assert_allclose(g_dot, expected, atol=1e-13)


def test_reduction_agrees_with_general_rhs():
    rng = np.random.default_rng(7)
    for name, kwargs in [
        ("heisenberg", {}),
        ("su2", {"kappa": 1.4}),
        ("r3", {}),
        ("sl2r", {}),
        ("hyperbolic", {"c": 0.6}),
    ]:
        state = _random_state(rng, name, **kwargs)
        g_dot, _ = hf.rhs_3d(state, kappa=0.9)
        torsion = state.f * tc.volume_form(state.g)
        g_dot_full, h_dot = hf.rhs_general(state.algebra, state.g, torsion, kappa=0.9)
        np.testing.assert_allclose(g_dot, g_dot_full, atol=1e-12)
        # invariant 3-form torsion is harmonic in dimension three
        np.testing.assert_allclose(h_dot, 0.0, atol=1e-13)


def test_density_rate_tracks_metric_trace():
    rng = np.random.default_rng(13)
    for _ in range(4):
        state = _random_state(rng, "su2", kappa=2.0)
        g_dot, f_dot = hf.rhs_3d(state, kappa=1.1)
        g_inv = tc.metric_inverse(state.g)
        expected = -0.5 * float(np.einsum("ab,ab->", g_inv, g_dot)) * state.f
        assert f_dot == pytest.approx(expected, abs=1e-14)


def test_milnor_rhs_matches_generic_rhs_on_diagonal_metrics():
    # On a diagonal metric over a bracket-normal-form algebra the generic rhs
    # stays diagonal, and its diagonal is the three-ODE rhs.
    rng = np.random.default_rng(20261018)
    names = ("r3", "heisenberg", "su2", "sl2r", "e11", "e2")
    worst = worst_off = 0.0
    for k in range(1000):
        name = names[k % len(names)]
        params = {"kappa": float(rng.uniform(0.3, 3.0))} if name == "su2" else {}
        alg = hg.catalog(name, **params)
        d = rng.uniform(0.1, 3.0, size=3)
        kappa, f = float(rng.uniform(0.0, 3.0)), float(rng.uniform(-2.0, 2.0))
        g_dot, _ = hf.rhs_3d(hf.FlowState3(alg, np.diag(d), f), kappa)
        diagonal = np.diagonal(g_dot)
        rhs, _ = hf._milnor_system(hg.milnor_lambdas(alg), f * math.sqrt(d[0] * d[1] * d[2]), kappa)
        fast = np.array(rhs(0.0, d.tolist()))
        worst = max(worst, float(np.max(np.abs(fast - diagonal)) / np.max(np.abs(diagonal))))
        worst_off = max(worst_off, float(np.max(np.abs(g_dot - np.diag(diagonal)))))
    assert worst <= 1e-13
    assert worst_off <= 1e-12


def test_milnor_lambdas_accept_only_the_normal_form():
    for name in ("r3", "heisenberg", "su2", "sl2r", "e11", "e2"):
        alg = hg.catalog(name)
        expected = alg.params.get("lambdas", (0.0, 0.0, 0.0))
        assert hg.milnor_lambdas(alg) == expected, name
        if name != "r3":  # the abelian algebra is in normal form in every frame
            assert hg.milnor_lambdas(_rotated(alg, [1.0, 1.0, 1.0])[0]) is None, name
    assert hg.milnor_lambdas(hg.catalog("hyperbolic", c=0.8)) is None
    assert hg.milnor_lambdas(hg.LieAlgebraData("abelian4", 4, np.zeros((4, 4, 4)))) is None


def test_rhs_is_a_multiple_of_g_on_l_form_algebras(random_spd, rng):
    # [x, y] = l(x) y - l(y) x: every metric has Ric = -2K g with K = l.g^-1.l,
    # so g' = (4K + f^2 - kappa (2K + f^2/2)^2) g.
    for _ in range(20):
        alg = _l_form_algebra(rng.normal(size=3))
        assert alg.jacobi_residual() <= 1e-14
        g, f, kappa = random_spd(), float(rng.normal()), float(rng.uniform(0.0, 2.0))
        ell = np.array(hg.l_form(alg))
        k = float(ell @ np.linalg.solve(g, ell))
        phi = 4.0 * k + f * f - kappa * (2.0 * k + 0.5 * f * f) ** 2
        g_dot, _ = hf.rhs_3d(hf.FlowState3(algebra=alg, g=g, f=f), kappa)
        assert np.max(np.abs(g_dot - phi * g)) <= 1e-12 * np.max(np.abs(phi * g))


def test_batched_rhs_slices_equal_single_sample_calls(mixed_stack, slices_match):
    stack, samples = mixed_stack
    kappas = np.linspace(0.0, 2.0, len(samples))
    g_dot, f_dot = hf._rhs_3d_core(stack.g, stack.g_inv, stack.ricci, stack.scalar, stack.f, kappas)
    singles = [hf._rhs_3d_core(s.g, s.g_inv, s.ricci, s.scalar, s.f, float(k)) for s, k in zip(samples, kappas)]
    slices_match(g_dot, [single[0] for single in singles])
    slices_match(f_dot, [single[1] for single in singles])
    assert all(type(single[1]) is float for single in singles)


def test_l_form_accepts_only_the_exact_form():
    assert hg.l_form(hg.catalog("hyperbolic", c=0.7)) == (0.0, 0.0, 0.7)
    assert hg.l_form(hg.catalog("r3")) == (0.0, 0.0, 0.0)  # l = 0: flat
    for name in ("heisenberg", "su2", "sl2r", "e11", "e2"):
        assert hg.l_form(hg.catalog(name)) is None, name
    assert hg.l_form(_rotated(hg.catalog("hyperbolic", c=0.7), [1.0, 1.0, 1.0])[0]) is None
    assert hg.l_form(_l_form_algebra([0.3, -1.1, 0.5])) == (0.3, -1.1, 0.5)


def test_only_a_start_off_the_diagonal_path_asks_for_the_l_form(count_calls):
    l_forms = count_calls(hf, "l_form")
    params = hf.FlowParams(kappa=0.3, t_span=(0.0, 0.2), n_points=5)
    for name in ("r3", "sl2r"):  # r3 is also an l-form algebra, with l = 0
        hf.integrate_flow(hf.FlowState3(algebra=hg.catalog(name), g=np.diag([1.0, 2.0, 0.5]), f=0.7), params)
    assert l_forms == []
    hyperbolic = hf.FlowState3(algebra=hg.catalog("hyperbolic", c=0.7), g=np.diag([1.0, 2.0, 0.5]), f=0.7)
    assert hf.integrate_flow(hyperbolic, params).status == "completed"
    assert len(l_forms) == 1


def test_rhs_validation():
    state = hf.FlowState3(algebra=hg.catalog("r3"), g=np.eye(3), f=0.2)
    with pytest.raises(ValueError):
        hf.rhs_3d(state, kappa=-0.1)
    with pytest.raises(ValueError):
        hf.FlowState3(algebra=hg.catalog("r3"), g=np.diag([1.0, -1.0, 1.0]), f=0.0)
    with pytest.raises(ValueError):
        hf.FlowState3(algebra=hg.catalog("r3"), g=np.eye(3), f=float("nan"))
    with pytest.raises(ValueError):
        hf.FlowParams(kappa=-1.0)
    with pytest.raises(ValueError):
        hf.FlowParams(kappa=1.0, n_points=1)


@pytest.mark.parametrize("kappa", [math.nan, math.inf])
def test_non_finite_kappa_rejected(kappa):
    state = hf.FlowState3(algebra=hg.catalog("r3"), g=np.eye(3), f=0.2)
    torsion = state.f * tc.volume_form(state.g)
    with pytest.raises(ValueError, match="kappa"):
        hf.FlowParams(kappa=kappa)
    with pytest.raises(ValueError, match="kappa"):
        hf.rhs_3d(state, kappa=kappa)
    with pytest.raises(ValueError, match="kappa"):
        hf.rhs_general(state.algebra, state.g, torsion, kappa=kappa)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda state, torsion: hf.dilaton_rhs(state, -1.0), id="dilaton_rhs-negative-kappa"),
        pytest.param(lambda state, torsion: hf.dilaton_rhs(state, math.inf), id="dilaton_rhs-inf-kappa"),
        pytest.param(lambda state, torsion: hf.dilaton_rhs(state, math.nan), id="dilaton_rhs-nan-kappa"),
        pytest.param(
            lambda state, torsion: hf.bianchi_residual(state.algebra, state.g, torsion, math.nan),
            id="bianchi_residual-nan-kappa",
        ),
        pytest.param(
            lambda state, torsion: hf.bianchi_residual(state.algebra, state.g, torsion, -1.0),
            id="bianchi_residual-negative-kappa",
        ),
    ],
)
def test_flow_diagnostics_reject_bad_kappa_as_the_rhs_do(call):
    state = hf.FlowState3(algebra=hg.catalog("su2"), g=np.eye(3), f=1.0)
    with pytest.raises(ValueError, match="kappa must be finite and non-negative"):
        call(state, state.f * tc.volume_form(state.g))


@pytest.mark.parametrize("name", ["su2", "hyperbolic"])
@pytest.mark.parametrize("g", [np.eye(3), np.array([[1.0, 0.1, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 1.0]])])
def test_a_start_whose_rates_overflow_fails_alike_on_every_path(name, g):
    # su2 runs the diagonal and the generic path, hyperbolic the Einstein
    # path.  At f = 1e78 the float f**4 passes the largest double: at kappa = 1
    # the rates overflow, and every path's start fails alike; at kappa = 0 the
    # law is g' = -2 Ric + f^2 g with dilaton rate f^2 / 2, and both are finite.
    alg = hg.catalog(name)
    state = hf.FlowState3(algebra=alg, g=g, f=1e78)
    with pytest.raises(ValueError, match="overflow a double"):
        hf.rhs_3d(state, 1.0)
    with pytest.raises(RuntimeError, match="not finite at the initial state"):
        hf.integrate_flow(state, hf.FlowParams(kappa=1.0, t_span=(0.0, 1.0)))
    g_dot, f_dot = hf.rhs_3d(state, 0.0)
    g_inv, _, _, ricci, _ = hf.invariant_curvature(alg, g)
    np.testing.assert_array_equal(g_dot, -2.0 * ricci + (1e78 * 1e78) * g)
    assert f_dot == -0.5 * np.einsum("ab,ab->", g_inv, g_dot) * 1e78
    assert hf.dilaton_rhs(state, 0.0) == 0.5 * (1e78 * 1e78)
    assert hf.integrate_flow(state, hf.FlowParams(kappa=0.0, t_span=(0.0, 1.0))).status == "event"
    state.f = 1e60
    assert hf.integrate_flow(state, hf.FlowParams(kappa=1.0, t_span=(0.0, 1.0))).status == "event"


# A rate and its copy under the scaling symmetry may differ by this many eps
# times the size of the terms that make the rate: the 3D law takes s**2 and
# f**4, and the Einstein path its square, from libm's pow, which is within
# 1 ulp but not correctly rounded (pow(x, 2) != x * x for about 1 x in 1 300),
# so the two copies' powers differ by up to 2 ulps, and the few roundings
# after them by an ulp each.  The worst seen is 1.3 eps over 4 000 seeds on
# each catalog algebra.
_POW_ROOM = 8.0 * np.finfo(float).eps


@settings(max_examples=140, deadline=None)
@given(st.sampled_from(hg.CATALOG_NAMES), st.integers(0, 2**32 - 1))
@example(name="sl2r", seed=3400)
@example(name="r3", seed=1835)
@example(name="hyperbolic", seed=1289)
def test_the_rhs_are_invariant_under_the_scaling_symmetry(name, seed):
    # (g, f, kappa, t) -> (4g, f/2, 4kappa, 4t) maps solutions to solutions:
    # Ric is scale-invariant, and Ric.Ric, s and |Ric|^2 scale as 1/4, 1/4 and
    # 1/16.  With H -> 4H it holds for rhs_general too, and with the flux volume
    # c = f sqrt(det g) -> 4c for each path of integrate_flow.  4 is a power of
    # two, so every product and sum scales with it and keeps its bits; only the
    # powers of the 3D law and the Einstein path need _POW_ROOM.
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 3))
    g = a @ a.T + 0.5 * np.eye(3)
    f, kappa = float(rng.normal()), float(rng.uniform(0.0, 2.0))
    alg = hg.catalog(name)
    g_inv, _, _, ricci, s = hf.invariant_curvature(alg, g)
    room = _POW_ROOM * (
        2.0 * kappa * np.abs(ricci @ g_inv @ ricci)
        + abs(2.0 + kappa * (2.0 * s - f * f)) * np.abs(ricci)
        + (f * f + kappa * (s * s + 2.0 * tc.ricci_norm2(g_inv, ricci) + 0.25 * f**4)) * np.abs(g)
    )
    g_dot, _ = hf.rhs_3d(hf.FlowState3(algebra=alg, g=g, f=f), kappa)
    scaled, _ = hf.rhs_3d(hf.FlowState3(algebra=alg, g=4.0 * g, f=0.5 * f), 4.0 * kappa)
    assert (np.abs(scaled - g_dot) <= room).all()
    torsion = f * tc.volume_form(g)
    g_dot, _ = hf.rhs_general(alg, g, torsion, kappa)
    scaled, _ = hf.rhs_general(alg, 4.0 * g, 4.0 * torsion, 4.0 * kappa)
    assert scaled.tobytes() == g_dot.tobytes()
    c = f * math.sqrt(np.linalg.det(g))
    packed = g[hf._TRIU].tolist()
    rhs, _ = hf._generic_system(alg, c, kappa)
    scaled_rhs, _ = hf._generic_system(alg, 4.0 * c, 4.0 * kappa)
    assert (np.abs(np.subtract(scaled_rhs(0.0, [4.0 * v for v in packed]), rhs(0.0, packed))) <= room[hf._TRIU]).all()
    if (lambdas := hg.milnor_lambdas(alg)) is not None:
        d = rng.uniform(0.2, 3.0, size=3).tolist()
        rhs, _ = hf._milnor_system(lambdas, c, kappa)
        scaled_rhs, _ = hf._milnor_system(lambdas, 4.0 * c, 4.0 * kappa)
        assert scaled_rhs(0.0, [4.0 * v for v in d]) == rhs(0.0, d)
    if (ell := hg.l_form(alg)) is not None:
        sigma = float(rng.uniform(0.2, 3.0))
        k0, w = float(ell @ np.linalg.solve(g, ell)), f * f / sigma**2
        rhs, _ = hf._einstein_system(ell, g, c, kappa)
        scaled_rhs, _ = hf._einstein_system(ell, 4.0 * g, 4.0 * c, 4.0 * kappa)
        size = 4.0 * abs(k0) + w + kappa * (2.0 * k0 + 0.5 * w) ** 2 / sigma
        assert abs(4.0 * scaled_rhs(0.0, [sigma])[0] - rhs(0.0, [sigma])[0]) <= _POW_ROOM * size


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "bad",
    [
        {"t_span": (0.0, math.nan)},
        {"t_span": (0.0, math.inf)},
        {"t_span": (-math.inf, 0.0)},
        {"rtol": math.nan},
        {"rtol": 0.0},
        {"atol": math.inf},
        {"atol": -1e-12},
    ],
)
def test_integrators_reject_bad_span_and_tolerances(bad):
    args = {"t_span": (0.0, 1.0), "rtol": 1e-10, "atol": 1e-12, **bad}
    match = "t_span" if "t_span" in bad else "rtol"
    state = hf.FlowState3(algebra=hg.catalog("su2"), g=np.eye(3), f=1.0)
    with pytest.raises(ValueError, match=match):
        hf.integrate_flow(state, hf.FlowParams(kappa=1.0, **args))
    moving = ht.HomothetyProblem(case="positive", kappa=0.12, mu=1.0)
    static = ht.HomothetyProblem(case="flat", kappa=4.0, mu=1.0)
    for problem in (moving, static):
        with pytest.raises(ValueError, match=match):
            ht.integrate(problem, **args)


def test_flow_state_takes_no_start_time():
    # integrate_flow starts at params.t_span[0]; a time on the state went unread.
    with pytest.raises(TypeError):
        hf.FlowState3(algebra=hg.catalog("r3"), g=np.eye(3), f=0.0, t=5.0)


def test_four_dimensional_algebra_rejected_by_state():
    c4 = np.zeros((4, 4, 4))
    alg4 = hg.LieAlgebraData(name="abelian4", dim=4, structure=c4)
    with pytest.raises(ValueError):
        hf.FlowState3(algebra=alg4, g=np.eye(3), f=0.0)


# ---------------------------------------------------------------------------
# stationary data
# ---------------------------------------------------------------------------


def test_soliton_data_is_stationary():
    for candidate in [so.heisenberg_strong_soliton(1.3), so.hyperbolic_soliton(0.7)]:
        alg = _algebra_of(candidate)
        state = hf.FlowState3(algebra=alg, g=candidate.sample.g, f=float(candidate.sample.f))
        g_dot, f_dot = hf.rhs_3d(state, kappa=candidate.kappa)
        assert np.max(np.abs(g_dot)) <= 1e-12
        assert abs(f_dot) <= 1e-12
        assert abs(hf.dilaton_rhs(state, kappa=candidate.kappa)) <= 1e-12


def test_flow_from_soliton_start_stays_constant():
    candidate = so.heisenberg_strong_soliton(0.8)
    alg = _algebra_of(candidate)
    state = hf.FlowState3(algebra=alg, g=candidate.sample.g, f=float(candidate.sample.f))
    traj = hf.integrate_flow(
        state, hf.FlowParams(kappa=candidate.kappa, t_span=(0.0, 2.0), n_points=9)
    )
    assert traj.status == "completed"
    for i in range(traj.t.size):
        np.testing.assert_allclose(traj.g[i], candidate.sample.g, atol=1e-9)
        assert traj.f[i] == pytest.approx(float(candidate.sample.f), abs=1e-9)


def test_dilaton_rate_formula():
    rng = np.random.default_rng(17)
    state = _random_state(rng, "su2", kappa=1.2)
    kappa = 0.6
    torsion = state.f * tc.volume_form(state.g)
    g_inv = tc.metric_inverse(state.g)
    gamma = hg.levi_civita_connection(state.algebra, state.g, g_inv)
    gamma_tw = hg.connection_twisted(gamma, g_inv, torsion)
    riem_tw = hg.invariant_riemann(state.algebra, state.g, gamma_tw)
    expected = 0.5 * (
        tc.torsion_norm2(g_inv, torsion) - kappa * tc.riemann_norm2(g_inv, riem_tw)
    )
    assert hf.dilaton_rhs(state, kappa=kappa) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# conservation and events
# ---------------------------------------------------------------------------


def test_torsion_volume_is_conserved():
    state = hf.FlowState3(
        algebra=hg.catalog("su2", kappa=1.5), g=np.diag([1.0, 1.2, 0.8]), f=0.7
    )
    traj = hf.integrate_flow(state, hf.FlowParams(kappa=0.4, t_span=(0.0, 0.5), n_points=21))
    volumes = traj.torsion_volume
    np.testing.assert_allclose(volumes, volumes[0], rtol=1e-13)


def test_round_collapse_time_under_plain_ricci_flow():
    # kappa = mu = 0 positive case: the scale factor decreases linearly and
    # degenerates at t = 3/2.  The solver locates the threshold crossing, and
    # the event state sits on it.
    state = hf.FlowState3(algebra=_einstein_positive_algebra(), g=np.eye(3), f=0.0)
    traj = hf.integrate_flow(state, hf.FlowParams(kappa=0.0, t_span=(0.0, 5.0), n_points=11))
    assert traj.status == "event"
    (event,) = traj.events
    assert event.kind == "degenerate"
    assert event.t == pytest.approx(1.5, abs=1e-6)
    g_event = np.array(event.y)[hf._SYM]
    assert float(np.min(np.linalg.eigvalsh(g_event))) == pytest.approx(hf.EPS_DEGENERATE, rel=1e-6)


def test_flat_collapse_event_matches_closed_form():
    kappa, mu = 2.0, 2.0  # quartic correction dominates: finite-time degeneration
    state = hf.FlowState3(algebra=hg.catalog("r3"), g=np.eye(3), f=mu)
    traj = hf.integrate_flow(state, hf.FlowParams(kappa=kappa, t_span=(0.0, 5.0), n_points=11))
    assert traj.status == "event"
    assert traj.events[0].kind == "degenerate"
    assert traj.events[0].t == pytest.approx(ht.flat_collapse_time(kappa, mu), abs=1e-6)


def test_steep_degeneration_is_a_threshold_crossing():
    # su2 with f = 0 and kappa = 1 degenerates at t ~ 0.04517, so steeply that
    # stepping in t stalls while the smallest eigenvalue is still ~1.3e-4.
    # In the regularised time the eigenvalue crosses the 1e-8 threshold, and
    # the last sample is the event's state.
    state = hf.FlowState3(algebra=hg.catalog("su2", kappa=1.0), g=np.eye(3), f=0.0)
    traj = hf.integrate_flow(state, hf.FlowParams(kappa=1.0, t_span=(0.0, 1.0), n_points=11))
    assert traj.status == "event"
    (event,) = traj.events
    assert event.kind == "degenerate"
    assert event.t == pytest.approx(0.04517, abs=1e-5)
    assert traj.t[-1] == event.t
    np.testing.assert_array_equal(traj.g[-1][np.triu_indices(3)], event.y)
    assert float(np.min(np.linalg.eigvalsh(traj.g[-1]))) == pytest.approx(hf.EPS_DEGENERATE, rel=1e-6)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_blowup_is_a_threshold_crossing_in_either_direction(sign):
    # y' = sign y^2 from y(0) = 1 is 1 / (1 - sign t): it blows up at
    # t = sign and reaches 1e8 at t = sign (1 - 1e-8), where y' = 1e16.
    events = (("blowup", lambda t, y: y[0] - 1e8, 1),)
    t, y, found, status = hf.integrate_events(
        lambda t, y: [sign * y[0] * y[0]], (0.0, 2.0 * sign), [1.0], events, 1e-10, 1e-12, 41
    )
    (event,) = found
    assert status == "event" and event.kind == "blowup"
    assert event.t == pytest.approx(sign * (1.0 - 1e-8), abs=1e-9)
    assert event.y[0] == pytest.approx(1e8, rel=1e-6)
    assert (t[-1], y[0, -1]) == (event.t, event.y[0])
    np.testing.assert_allclose(y[0, :-1], 1.0 / (1.0 - sign * t[:-1]), rtol=1e-7)


@pytest.mark.parametrize("nan_from", [0.0, 0.5])
def test_integration_with_a_nan_rhs_raises(nan_from):
    # NaN from the start, or from t = 0.5 on, where every step is rejected
    # until the step size underflows.
    def rhs(t, y):
        return [math.nan] if t >= nan_from else [1.0]

    with pytest.raises(RuntimeError):
        hf.integrate_events(rhs, (0.0, 1.0), [1.0], (), 1e-10, 1e-12, 11)


@pytest.mark.parametrize("n_points", [0, 1])
def test_integrate_events_needs_two_samples(n_points):
    with pytest.raises(ValueError, match="n_points"):
        hf.integrate_events(lambda t, y: [1.0], (0.0, 1.0), [1.0], (), 1e-10, 1e-12, n_points)


def test_tracer_counts_rhs_evaluations_of_a_flow():
    # The benchmark's tracer counts rhs evaluations by patching het_flow's
    # solve_ivp; the flow must still reach the solver through that name.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer(hetflow)
    tracer.install()
    try:
        state = hf.FlowState3(algebra=hg.catalog("sl2r"), g=np.diag([1.0, 1.3, 0.7]), f=0.4)
        hf.integrate_flow(state, hf.FlowParams(kappa=0.5, t_span=(0.0, 0.1), n_points=5))
    finally:
        tracer.uninstall()
    assert tracer.flow_counts(tracer.arrays())["rhs_evals"] > 0


def test_one_metric_inverse_per_rhs_evaluation(monkeypatch, count_calls):
    nfev = []
    solve_ivp = hf.solve_ivp

    def solve_counted(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(hf, "solve_ivp", solve_counted)
    # A rotated frame keeps the generic path; the diagonal start in bracket
    # normal form takes the three-ODE path, which inverts nothing.
    alg, g0 = _rotated(hg.catalog("sl2r"), [1.0, 2.0, 0.5])
    state = hf.FlowState3(algebra=alg, g=g0, f=0.7)
    diagonal = hf.FlowState3(algebra=hg.catalog("sl2r"), g=np.diag([1.0, 2.0, 0.5]), f=0.7)
    inverses = count_calls(tc, "metric_inverse")
    connections = count_calls(hg, "levi_civita_connection")
    traj = hf.integrate_flow(state, hf.FlowParams(kappa=0.3, t_span=(0.0, 0.5)))
    assert traj.status == "completed"
    assert len(inverses) == sum(nfev) > 0
    inverses.clear()
    hf.rhs_3d(state, kappa=0.3)
    assert len(inverses) == 1
    inverses.clear()
    connections.clear()
    traj = hf.integrate_flow(diagonal, hf.FlowParams(kappa=0.3, t_span=(0.0, 0.5)))
    assert traj.status == "completed"
    assert (len(inverses), len(connections)) == (0, 0)
    # Every metric on hyperbolic is Einstein: the scalar path inverts nothing.
    einstein = hf.FlowState3(algebra=hg.catalog("hyperbolic", c=0.8), g=g0, f=0.7)
    traj = hf.integrate_flow(einstein, hf.FlowParams(kappa=0.3, t_span=(0.0, 0.5)))
    assert traj.status == "completed"
    assert (len(inverses), len(connections)) == (0, 0)


# (algebra, catalog parameters, kappa, f, metric diagonal, status): per
# algebra a run that reaches t = 1 and one that degenerates first.
_ORACLE_RUNS = (
    ("su2", {"kappa": 1.247}, 0.2397, 1.306, (1.763, 1.4, 1.743), "completed"),
    ("su2", {"kappa": 0.535}, 1.221, 0.256, (1.865, 1.489, 1.86), "event"),
    ("sl2r", {}, 0.3199, 0.4606, (1.645, 1.783, 1.413), "completed"),
    ("sl2r", {}, 1.521, 1.936, (0.9743, 1.87, 0.5031), "event"),
    ("heisenberg", {}, 0.2548, 0.9624, (0.5589, 1.636, 1.724), "completed"),
    ("heisenberg", {}, 1.657, 1.133, (0.949, 1.16, 1.028), "event"),
    ("e11", {}, 0.4893, 1.139, (1.469, 1.858, 0.8198), "completed"),
    ("e11", {}, 1.745, 1.404, (1.674, 1.568, 1.524), "event"),
)


@pytest.mark.parametrize("name, params, kappa, f, diag, status", _ORACLE_RUNS)
def test_diagonal_path_matches_generic_path_in_a_rotated_frame(name, params, kappa, f, diag, status):
    alg = hg.catalog(name, **params)
    rotated, g0 = _rotated(alg, diag)
    flow = hf.FlowParams(kappa=kappa, t_span=(0.0, 1.0), n_points=11)
    fast = hf.integrate_flow(hf.FlowState3(algebra=alg, g=np.diag(diag), f=f), flow)
    generic = hf.integrate_flow(hf.FlowState3(algebra=rotated, g=g0, f=f), flow)
    off_diagonal = ~np.eye(3, dtype=bool)
    assert not np.any(fast.g[:, off_diagonal])
    assert fast.status == generic.status == status
    assert [e.kind for e in fast.events] == [e.kind for e in generic.events]
    for a, b in zip(fast.events, generic.events):
        assert a.t == pytest.approx(b.t, rel=1e-8, abs=0.0)
        assert not np.any(np.array(a.y)[hf._SYM][off_diagonal])
    if status == "completed":
        for g_fast, g_generic in zip(fast.g, generic.g):
            expected = _Q @ g_fast @ _Q.T
            assert np.max(np.abs(g_generic - expected)) <= 1e-8 * np.max(np.abs(expected))
        np.testing.assert_allclose(generic.f, fast.f, rtol=1e-8)


# The hyperbolic rows of the benchmark's flow design: two runs that reach
# t = 1 and one that degenerates first.
_EINSTEIN_RUNS = (
    (1.287, 0.0, 0.2148, (1.892, 0.7962, 1.066), "completed"),
    (0.576, 0.7643, 0.2091, (1.275, 1.224, 1.167), "completed"),
    (1.616, 1.628, 0.4419, (0.7241, 0.9038, 1.452), "event"),
)


@pytest.mark.parametrize("c, kappa, f, diag, status", _EINSTEIN_RUNS)
def test_einstein_path_matches_generic_path_in_a_rotated_frame(c, kappa, f, diag, status):
    alg = hg.catalog("hyperbolic", c=c)
    rotated, g0 = _rotated(alg, diag)
    assert hg.l_form(alg) is not None and hg.l_form(rotated) is None
    flow = hf.FlowParams(kappa=kappa, t_span=(0.0, 1.0), n_points=11)
    fast = hf.integrate_flow(hf.FlowState3(algebra=alg, g=np.diag(diag), f=f), flow)
    generic = hf.integrate_flow(hf.FlowState3(algebra=rotated, g=g0, f=f), flow)
    assert fast.status == generic.status == status
    assert [e.kind for e in fast.events] == [e.kind for e in generic.events]
    for a, b in zip(fast.events, generic.events):
        assert a.t == pytest.approx(b.t, rel=1e-8, abs=0.0)
        np.testing.assert_array_equal(np.array(a.y)[hf._SYM], fast.g[-1])
    for g_fast, g_generic in zip(fast.g, generic.g):
        expected = _Q @ g_fast @ _Q.T
        assert np.max(np.abs(g_generic - expected)) <= 1e-8 * np.max(np.abs(expected))
    np.testing.assert_allclose(generic.f, fast.f, rtol=1e-8)
    np.testing.assert_allclose(fast.torsion_volume, f * math.sqrt(math.prod(diag)), rtol=1e-14)


def test_einstein_degeneration_time_matches_quadrature():
    # sigma' = F(sigma) on g = sigma g0 from sigma = 1 down to the threshold
    # sigma lam_min(g0) = 1e-8 takes t = int_1^sigma_e dsigma / F(sigma).
    mpmath = pytest.importorskip("mpmath")
    c, kappa, f, diag, _ = _EINSTEIN_RUNS[2]
    g0 = _Q @ np.diag(diag) @ _Q.T  # a non-diagonal start on catalog hyperbolic
    traj = hf.integrate_flow(hf.FlowState3(algebra=hg.catalog("hyperbolic", c=c), g=g0, f=f),
                             hf.FlowParams(kappa=kappa))
    (event,) = traj.events
    assert event.kind == "degenerate"
    with mpmath.workdps(30):
        ell = mpmath.matrix([0, 0, c])
        k0 = (ell.T * mpmath.inverse(mpmath.matrix(g0.tolist())) * ell)[0]
        f0_sq = mpmath.mpf(f) ** 2

        def rate(s):
            w = f0_sq / s**2
            return 4 * k0 + w - kappa * (2 * k0 + w / 2) ** 2 / s

        sigma_e = mpmath.mpf(hf.EPS_DEGENERATE) / min(np.linalg.eigvalsh(g0))
        assert rate(1) < 0
        t_deg = mpmath.quad(lambda s: 1 / rate(s), [1, mpmath.mpf("1e-3"), sigma_e])
    assert event.t == pytest.approx(float(t_deg), rel=1e-9, abs=0.0)


def test_integration_is_deterministic():
    state = hf.FlowState3(algebra=hg.catalog("sl2r"), g=np.diag([1.0, 1.3, 0.7]), f=0.4)
    params = hf.FlowParams(kappa=0.5, t_span=(0.0, 0.4), n_points=11)
    one = hf.integrate_flow(state, params)
    two = hf.integrate_flow(state, params)
    np.testing.assert_array_equal(one.g, two.g)
    np.testing.assert_array_equal(one.f, two.f)
    np.testing.assert_array_equal(one.t, two.t)


# ---------------------------------------------------------------------------
# the Dormand-Prince stepper against scipy's RK45
# ---------------------------------------------------------------------------


def test_step_interpolant_matches_dense_output_bit_for_bit(rng):
    fun = _milnor_rhs()
    y0, tau0, h = [1.0, 1.3, 0.7], 0.37, 0.21
    _, ks, _ = hf._dp_step(fun, tau0, y0, fun(tau0, y0), h, 1e-10, 1e-12)
    step = (tau0, h, y0, ks)
    dense = hf._DenseOutput((tau0, tau0 + h), [step])
    at = dense.interpolant(0)
    for tau in [tau0, tau0 + h, *rng.uniform(tau0, tau0 + h, size=200)]:
        assert at(float(tau)) == dense(np.array([tau]))[:, 0].tolist()


def _loop_dp_step(fun, t, y, k0, h, rtol, atol):
    """The Dormand-Prince step as a loop over the state's entries: the oracle
    of the step :func:`hf._dp_step_for` generates."""
    k1 = fun(t + 1 / 5 * h, [a + h * (1 / 5 * p) for a, p in zip(y, k0)])
    k2 = fun(t + 3 / 10 * h, [a + h * (3 / 40 * p + 9 / 40 * q) for a, p, q in zip(y, k0, k1)])
    k3 = fun(
        t + 4 / 5 * h,
        [a + h * (44 / 45 * p - 56 / 15 * q + 32 / 9 * r) for a, p, q, r in zip(y, k0, k1, k2)],
    )
    k4 = fun(
        t + 8 / 9 * h,
        [
            a + h * (19372 / 6561 * p - 25360 / 2187 * q + 64448 / 6561 * r - 212 / 729 * u)
            for a, p, q, r, u in zip(y, k0, k1, k2, k3)
        ],
    )
    k5 = fun(
        t + h,
        [
            a + h * (9017 / 3168 * p - 355 / 33 * q + 46732 / 5247 * r + 49 / 176 * u - 5103 / 18656 * v)
            for a, p, q, r, u, v in zip(y, k0, k1, k2, k3, k4)
        ],
    )
    y_new = [
        a + h * (35 / 384 * p + 500 / 1113 * r + 125 / 192 * u - 2187 / 6784 * v + 11 / 84 * w)
        for a, p, r, u, v, w in zip(y, k0, k2, k3, k4, k5)
    ]
    k6 = fun(t + h, y_new)
    errors = [
        h * (-71 / 57600 * p + 71 / 16695 * r - 71 / 1920 * u + 17253 / 339200 * v - 22 / 525 * w + 1 / 40 * z)
        / (atol + max(abs(a), abs(b)) * rtol)
        for a, b, p, r, u, v, w, z in zip(y, y_new, k0, k2, k3, k4, k5, k6)
    ]
    return y_new, (k0, k2, k3, k4, k5, k6), math.hypot(*errors) / math.sqrt(len(errors))


# Entries of one size, where the order of a sum changes its rounding, and
# now and then any finite double.
_ENTRY = st.one_of(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _dp_step_cases(draw):
    n = draw(st.integers(1, 7))
    y = draw(st.lists(_ENTRY, min_size=n, max_size=n))
    # k0 and the six stages fun returns
    stages = draw(st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=7, max_size=7))
    nan_at = draw(st.none() | st.tuples(st.integers(1, 6), st.integers(0, n - 1)))
    if nan_at is not None:  # fun's answer at a trial state off the domain
        stages[nan_at[0]][nan_at[1]] = math.nan
    t = draw(st.floats(-10.0, 10.0))
    h = draw(st.floats(1e-12, 10.0))
    rtol = draw(st.floats(1e-14, 1.0))
    atol = draw(st.one_of(st.just(0.0), st.floats(1e-16, 1.0)))
    return y, stages, t, h, rtol, atol


def _bits(values) -> list:
    return [float(v).hex() for v in values]  # NaN matches NaN, and -0.0 differs from 0.0


def _step_outcome(step, y, stages, t, h, rtol, atol):
    calls, answers = [], iter(stages[1:])

    def fun(tau, state):
        calls.append((float(tau).hex(), _bits(state)))
        return list(next(answers))

    try:
        y_new, ks, err = step(fun, t, y, list(stages[0]), h, rtol, atol)
    except ZeroDivisionError:  # atol = 0 at an entry that is 0 before and after the step
        return calls, ZeroDivisionError
    return calls, (_bits(y_new), [_bits(k) for k in ks], float(err).hex())


@settings(max_examples=300, deadline=None)
@given(_dp_step_cases())
def test_the_generated_step_is_the_loop_bit_for_bit(case):
    expected = _step_outcome(_loop_dp_step, *case)
    assert _step_outcome(hf._dp_step_for(len(case[0])), *case) == expected
    assert _step_outcome(hf._dp_step, *case) == expected


def test_a_traceback_through_the_generated_step_shows_the_stage_line():
    def fun(tau, y):
        if tau > 0.0:
            raise ArithmeticError("stage")
        return [1.0, 2.0]

    with pytest.raises(ArithmeticError) as info:
        hf._dp_step(fun, 0.0, [1.0, 1.0], fun(0.0, [1.0, 1.0]), 0.5, 1e-10, 1e-12)
    frames = traceback.extract_tb(info.value.__traceback__)
    assert [(f.filename, f.line) for f in frames if f.filename.startswith("<")] == [
        ("<_dp_step 2>", "k1 = fun(t + 1 / 5 * h, [")
    ]


def test_illinois_converges_where_regula_falsi_stalls():
    # On x^10 - 0.5 over [0, 1] regula falsi keeps the end 1 for good and
    # creeps towards the root from below; halving the kept end's value
    # moves both ends in.
    calls = []

    def fn(x):
        calls.append(x)
        return x**10 - 0.5

    root = hf._illinois(fn, 0.0, 1.0, -0.5, 0.5, 0.0)
    assert abs(root - 0.5**0.1) <= 4 * math.ulp(0.5**0.1)
    assert len(calls) < 60
    assert root in calls and abs(root**10 - 0.5) == min(abs(x**10 - 0.5) for x in calls)


def test_illinois_finds_a_root_where_the_secants_products_overflow():
    # Ends and values near 1e200, as at the span-end event of a flow that
    # long: a * fb overflows, and the product form of the secant is inf.
    calls = []

    def fn(x):
        calls.append(x)
        return x - 1.5e200

    a, b = 1e200, 2e200
    assert (a * fn(b) - b * fn(a)) / (fn(b) - fn(a)) == math.inf
    assert hf._illinois(fn, a, b, fn(a), fn(b), 0.0) == 1.5e200
    assert all(math.isfinite(x) for x in calls)


def _list_illinois(fn, a, b, fa, fb, ftol, x):
    """:func:`hf._illinois` on two-entry lists of the ends and their values,
    indexed by the end each iterate replaces: the reference of its iterates."""
    ends, vals, last, best, f_best = [a, b], [fa, fb], -1, x, math.inf
    for _ in range(60):
        fx = fn(x)
        if abs(fx) < f_best:
            best, f_best = x, abs(fx)
        if abs(fx) <= ftol or ends[1] - ends[0] <= 4.0 * hf._EPS * abs(ends[1]):
            break
        side = int((fx > 0.0) != (vals[0] > 0.0))  # the end x replaces: 0 for a, 1 for b
        if side == last:
            vals[1 - side] *= 0.5
        ends[side], vals[side], last = x, fx, side
        x = (ends[0] * vals[1] - ends[1] * vals[0]) / (vals[1] - vals[0])
    return best


def test_illinois_takes_the_iterates_of_the_list_version_bit_for_bit():
    rng = np.random.default_rng(26)
    cases = [(lambda s: s**10 - 0.5, 0.0)]  # where regula falsi stalls
    for _ in range(400):
        c0, c1, root, cut = rng.normal(), rng.uniform(-2.0, 2.0), rng.uniform(0.05, 0.95), rng.uniform(0.5, 2.0)
        fn = lambda s, c0=c0, c1=c1, r=root: (s - r) * (1.0 + 0.5 * math.tanh(c0 * s)) + c1 * (s - r) ** 3
        cases.append((fn, float(rng.choice([0.0, 1e-12]))))
        cases.append((lambda s, fn=fn, cut=cut: math.nan if s > cut else fn(s), 0.0))  # NaN past a cut
    compared = 0
    for fn, ftol in cases:
        fa, fb = fn(0.0), fn(1.0)
        if not fa * fb < 0.0:
            continue
        iterates = {}
        for illinois in (hf._illinois, _list_illinois):
            calls = []
            root = illinois(lambda s: calls.append(s) or fn(s), 0.0, 1.0, fa, fb, ftol, -fa / (fb - fa))
            iterates[illinois] = [v.hex() for v in (*calls, root)]
        assert iterates[hf._illinois] == iterates[_list_illinois]
        compared += 1
    assert compared > 400


@pytest.mark.parametrize("crossing", [1.0, 0.0])  # a threshold met at a node; an event that is 0 throughout
def test_an_event_that_is_zero_at_an_end_has_its_root_there(crossing):
    # y' = 1 has no error estimate, so the steps grow tenfold from 1e-4.
    nodes = hf.solve_ivp(lambda tau, y: [1.0], [0.0], [(lambda tau, y: tau - 5.0, 1)], 1e-10, 1e-12).t
    level = float(nodes[3])
    run = hf.solve_ivp(lambda tau, y: [1.0], [0.0], [(lambda tau, y: crossing * (tau - level), 0)], 1e-10, 1e-12)
    # the run ends at the step's end, or at its start when both ends are 0
    np.testing.assert_array_equal(run.t, nodes[:4] if crossing else [0.0, 0.0])


def test_a_start_whose_initial_step_underflows_raises_value_error():
    # The derivative scaled by atol overflows, so the initial step 0.01 d0 / d1
    # underflows to 0; the step-size rule used to divide by it.
    with pytest.raises(ValueError, match="initial step underflows"):
        hf.solve_ivp(lambda tau, y: [1e308, 1.0], [1.0, 0.0], [(lambda tau, y: tau - 1.0, 1)], 1e-10, 1e-13)


def _collapsing_runs():
    yield lambda: ht.integrate(ht.HomothetyProblem("su2", 1.0), (0.0, 5.0), n_points=201)
    yield lambda: ht.integrate(ht.HomothetyProblem("flat", 1.0, 3.0), (0.0, 5.0), n_points=201)  # b < 0
    state = hf.FlowState3(algebra=hg.catalog("su2", kappa=1.0), g=np.eye(3), f=0.0)  # diagonal, steep
    yield lambda: hf.integrate_flow(state, hf.FlowParams(kappa=1.0, t_span=(0.0, 1.0), n_points=201))


@pytest.mark.parametrize("run", list(_collapsing_runs()))
def test_samples_sit_on_their_times_through_a_collapse(monkeypatch, run):
    # Near a singularity tau runs slower than t, the line between nodes
    # misses, and the sample is refined on its own by the root finder.
    refined, sampled = [], []
    illinois, sample_in_t = hf._illinois, hf._sample_in_t

    def counted(*args):
        refined.append(args[1:])
        return illinois(*args)

    def recorded(sol, ts, sign):
        refined.clear()
        z = sample_in_t(sol, ts, sign)
        sampled.append((ts, z[-1], len(refined)))
        return z

    monkeypatch.setattr(hf, "_illinois", counted)
    monkeypatch.setattr(hf, "_sample_in_t", recorded)
    traj = run()
    assert traj.status == "event"
    ((ts, t_rows, n_refined),) = sampled
    assert n_refined >= 1
    tol = 16.0 * np.finfo(float).eps * max(abs(ts[0]), abs(ts[-1]))
    assert np.max(np.abs(t_rows - ts)) <= tol


def _gathered_sample_in_t(sol, ts, sign):
    """:func:`hf._sample_in_t` with numpy gathers and an interpolant per late
    sample: the reference of its refinement on Python floats."""
    elapsed = sign * (sol.y[-1] - ts[0])
    u = sign * (ts - ts[0])
    tau = np.interp(u, elapsed, sol.t)
    z = sol.sol(tau)
    tol, t0 = float(16.0 * np.finfo(float).eps * max(abs(ts[0]), abs(ts[-1]))), float(ts[0])
    for j in np.flatnonzero((np.abs(z[-1] - ts) > tol) & (u < elapsed[-1])).tolist():
        k, uj = int(np.searchsorted(elapsed, u[j])), float(u[j])
        at, (a, b) = sol.sol.interpolant(k - 1), sol.t[k - 1 : k + 1].tolist()
        fa, fb = (elapsed[k - 1 : k + 1] - uj).tolist()
        root = hf._illinois(lambda s: sign * (at(s)[-1] - t0) - uj, a, b, fa, fb, tol, float(tau[j]))
        z[:, j] = at(root)
    return z


@pytest.mark.parametrize("run", list(_collapsing_runs()))
def test_late_samples_are_the_gathered_refinement_bit_for_bit(monkeypatch, run):
    compared = []
    sample_in_t = hf._sample_in_t

    def both(sol, ts, sign):
        z = sample_in_t(sol, ts, sign)
        compared.append((z.tobytes(), _gathered_sample_in_t(sol, ts, sign).tobytes()))
        return z

    monkeypatch.setattr(hf, "_sample_in_t", both)
    run()
    ((ours, reference),) = compared
    assert ours == reference


def _nested_dense_arrays(nodes, steps):
    """The arrays of :class:`hf._DenseOutput` as ``np.array`` builds them from
    the nested lists: the reference of its flat build."""
    tau0, h, y0, ks = zip(*steps)
    return np.array(nodes), np.array(tau0), np.array(h), np.array(y0), hf._P.T @ np.array(ks)


# Finite entries whose sums of six products with _P's coefficients (at most about 10) do not overflow.
_DENSE_ENTRY = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e300, 1e300))


@st.composite
def _dense_steps(draw):
    n, m = draw(st.integers(1, 7)), draw(st.integers(1, 8))
    row = st.lists(_DENSE_ENTRY, min_size=n, max_size=n)
    steps = [
        (draw(_DENSE_ENTRY), draw(_DENSE_ENTRY), draw(row), tuple(draw(st.lists(row, min_size=6, max_size=6))))
        for _ in range(m)
    ]
    return draw(st.lists(_DENSE_ENTRY, min_size=m + 1, max_size=m + 1)), steps


@settings(max_examples=100, deadline=None)
@given(_dense_steps())
def test_the_flat_built_dense_output_is_the_nested_build_bit_for_bit(case):
    nodes, steps = case
    dense = hf._DenseOutput(nodes, steps)
    ours = (dense.nodes, dense.tau0, dense.h, dense.y0, dense.q)
    for a, b in zip(ours, _nested_dense_arrays(nodes, steps)):
        assert (a.dtype, a.shape, a.flags.c_contiguous, a.tobytes()) == (b.dtype, b.shape, True, b.tobytes())


def _assert_final_state_is_the_dense_output(run):
    # the run's last state against the one-sample dense call that gave it before
    assert run.y[:, -1].tobytes() == run.sol(np.array([run.t[-1]]))[:, 0].tobytes()


@pytest.mark.parametrize("run", list(_collapsing_runs()))
def test_the_final_state_is_the_one_sample_dense_call_bit_for_bit(monkeypatch, run):
    runs = []
    solve_ivp = hf.solve_ivp

    def recorded(fun, y0, events, rtol, atol):
        runs.append(solve_ivp(fun, y0, events, rtol, atol))
        return runs[-1]

    monkeypatch.setattr(hf, "solve_ivp", recorded)
    run()
    (result,) = runs
    _assert_final_state_is_the_dense_output(result)


def test_a_run_that_ends_at_the_node_before_its_last_step_takes_that_segments_state():
    # The event touches zero at the seventh node from above and rises after
    # it, so it is active only in the next step, whose start is its root:
    # that step is dropped, and the final state is the value at the end of
    # the step before, which here differs from the state the solver stored
    # at the node.
    reference = hf.solve_ivp(_forced_decay, [1.0], [(lambda tau, y: tau - 5.0, 1)], 1e-10, 1e-12)
    level = float(reference.t[6])
    run = hf.solve_ivp(_forced_decay, [1.0], [(lambda tau, y: abs(tau - level), 1)], 1e-10, 1e-12)
    np.testing.assert_array_equal(run.t, reference.t[:7])
    assert run.sol.h.size == 6
    _assert_final_state_is_the_dense_output(run)
    assert run.y[:, -1].tobytes() != reference.y[:, 6].tobytes()


@pytest.mark.parametrize("run", list(_collapsing_runs()))
def test_event_roots_agree_with_brentq(monkeypatch, run):
    brentq = pytest.importorskip("scipy.optimize").brentq
    runs = []
    solve_ivp = hf.solve_ivp

    def recorded(fun, y0, events, rtol, atol):
        result = solve_ivp(fun, y0, events, rtol, atol)
        runs.append((events[result.event][0], result))
        return result

    monkeypatch.setattr(hf, "solve_ivp", recorded)
    run()
    ((event, result),) = runs
    sol = result.sol
    at, tau0, h = sol.interpolant(-1), float(sol.tau0[-1]), float(sol.h[-1])
    ref = brentq(lambda s: event(s, at(s)), tau0, tau0 + h, xtol=4 * hf._EPS, rtol=4 * hf._EPS)
    assert abs(result.t[-1] - ref) <= 16 * math.ulp(ref)


def _forced_decay(tau, y):
    return [-y[0] + math.sin(tau)]


def _milnor_rhs():
    rhs, _ = hf._milnor_system(hg.milnor_lambdas(hg.catalog("sl2r")), 0.4, 0.5)
    return rhs


def _scipy_rk45(fun, y0, event, direction, rtol, atol):
    def scipy_event(tau, y):
        return event(tau, list(y))

    scipy_event.terminal, scipy_event.direction = True, direction
    return scipy_solve_ivp(
        lambda tau, y: fun(tau, y.tolist()), (0.0, math.inf), y0, method="RK45",
        rtol=rtol, atol=atol, dense_output=True, events=[scipy_event],
    )


def _assert_close(a, b):
    """Agreement to 1e-12 relative to ``max(1, |b|)``."""
    assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))) <= 1e-12


# (rhs, y0, the end of the run as a time event, a threshold event and its
# direction, how many more rhs evaluations than scipy's are allowed).  From
# y0 = 0 the initial step is 100 times the first trial step.
_STEPPER_RUNS = (
    (_forced_decay, [1.0], 200.0, lambda tau, y: y[0] + 0.6, 0, 0),
    (_forced_decay, [0.0], 200.0, lambda tau, y: y[0] - 0.6, 1, 0),
    (_milnor_rhs(), [1.0, 1.3, 0.7], 5.0, lambda tau, y: y[0] - 3.0, 1, 6),
)


@pytest.mark.parametrize("fun, y0, end, threshold, direction, slack", _STEPPER_RUNS)
def test_stepper_follows_scipy_rk45(fun, y0, end, threshold, direction, slack):
    # The same method and rules as scipy's RK45: the same steps and rhs
    # evaluations, and the same solution at every node and between them.
    # The node times themselves drift apart by up to 1e-6 relative: the error
    # estimate is a difference of stages about 1e-10 of their size, so its
    # summation order (OpenBLAS fuses multiply and add) moves the step sizes.
    rtol, atol = 1e-10, 1e-12
    for event, event_direction in ((lambda tau, y: tau - end, 1), (threshold, direction)):
        ref = _scipy_rk45(fun, y0, event, event_direction, rtol, atol)
        run = hf.solve_ivp(fun, y0, [(event, event_direction)], rtol, atol)
        assert run.event == 0 and ref.status == 1
        assert abs(run.nfev - ref.nfev) <= slack
        if slack == 0:
            assert run.t.size == ref.t.size
        assert run.t[1] == pytest.approx(ref.t[1], rel=1e-12, abs=0.0)
        assert run.t[-1] == pytest.approx(ref.t_events[0][0], rel=1e-12, abs=0.0)
        _assert_close(run.y, ref.sol(run.t))
        _assert_close(run.sol(ref.t), ref.y)
        tau = np.linspace(0.0, min(run.t[-1], ref.t[-1]), 1001)
        _assert_close(run.sol(tau), ref.sol(tau))


def test_stepper_counts_every_rhs_evaluation():
    calls = []

    def counted(tau, y):
        calls.append(tau)
        return _forced_decay(tau, y)

    run = hf.solve_ivp(counted, [1.0], [(lambda tau, y: tau - 10.0, 1)], 1e-8, 1e-10)
    # two for the start and the initial step, six per trial step
    assert run.nfev == len(calls)
    assert (run.nfev - 2) % 6 == 0


def test_a_rhs_that_turns_nan_past_a_threshold_shrinks_the_step():
    # y' = -y decays towards 0, and its rhs is NaN at y <= 0.  Once y is far
    # below atol, the steps grow until a trial stage leaps past 0; the NaN
    # stage makes the error non-finite, and the step is rejected and shrunk,
    # as by scipy's RK45, over and over until tau = 200.
    nan_stages = []

    def rhs(tau, y):
        if not y[0] > 0.0:
            nan_stages.append(tau)
            return [math.nan]
        return [-y[0]]

    def end(tau, y):
        return tau - 200.0

    ref = _scipy_rk45(rhs, [1.0], end, 1, 1e-10, 1e-12)
    nan_stages.clear()
    run = hf.solve_ivp(rhs, [1.0], [(end, 1)], 1e-10, 1e-12)
    assert len(nan_stages) > 100
    assert (run.t.size, run.nfev) == (ref.t.size, ref.nfev)
    assert run.t[-1] == 200.0


def test_the_earliest_of_two_events_in_one_step_ends_the_run():
    # y' = 1 has no error estimate, so steps grow tenfold from 1e-4 and one
    # step crosses both thresholds; the later-listed event comes first.
    events = [(lambda tau, y: y[0] - 0.50001, 1), (lambda tau, y: y[0] - 0.5, 1)]
    run = hf.solve_ivp(lambda tau, y: [1.0], [0.0], events, 1e-10, 1e-12)
    np.testing.assert_allclose(np.diff(run.t[:-1]), [1e-4, 1e-3, 1e-2, 1e-1], rtol=1e-12)
    assert run.event == 1
    assert run.t[-1] == pytest.approx(0.5, rel=1e-14)


def test_a_step_below_ten_ulps_fails_where_scipys_does():
    # NaN from tau = 0.5 on: every step there is rejected and shrunk fivefold
    # until it is below ten ulps of tau.
    calls = []

    def rhs(tau, y):
        calls.append(tau)
        return [math.nan] if tau >= 0.5 else [1.0]

    ref = _scipy_rk45(rhs, [1.0], lambda tau, y: tau - 1.0, 1, 1e-10, 1e-12)
    assert ref.status == -1
    calls.clear()
    with pytest.raises(RuntimeError, match="ulps"):
        hf.solve_ivp(rhs, [1.0], [(lambda tau, y: tau - 1.0, 1)], 1e-10, 1e-12)
    assert len(calls) == ref.nfev


def test_a_span_of_length_zero_ends_where_it_starts():
    # The span's end is an event that is zero at the start: it is active
    # after the first step, and its root is tau = 0.
    far = (("far", lambda t, y: y[0] - 10.0, 1),)
    t, y, found, status = hf.integrate_events(lambda t, y: [1.0], (0.0, 0.0), [1.0], far, 1e-10, 1e-12, 5)
    assert (found, status) == ((), "completed")
    np.testing.assert_array_equal(t, 0.0)
    np.testing.assert_array_equal(y, 1.0)


def test_last_sample_of_a_degenerating_generic_flow_is_the_event_state():
    # test_steep_degeneration_is_a_threshold_crossing checks the diagonal path
    name, params, kappa, f, diag, status = _ORACLE_RUNS[1]
    alg, g0 = _rotated(hg.catalog(name, **params), diag)
    traj = hf.integrate_flow(hf.FlowState3(algebra=alg, g=g0, f=f), hf.FlowParams(kappa=kappa, n_points=21))
    assert traj.status == status == "event"
    (event,) = traj.events
    assert traj.t[-1] == event.t
    np.testing.assert_array_equal(traj.g[-1][np.triu_indices(3)], event.y)


# ---------------------------------------------------------------------------
# conformal-family cross-checks against the scalar reduction
# ---------------------------------------------------------------------------


def test_flat_base_matches_scalar_reduction():
    for kappa, mu in [(1.0, 0.9), (2.0, 0.6), (0.3, 1.4)]:
        sigma_err, aniso, f_err = _compare_with_scalar(
            hg.catalog("r3"), "flat", kappa, mu, t_end=1.5
        )
        assert aniso <= 1e-10
        assert sigma_err <= 1e-6
        assert f_err <= 1e-6


def test_kappa_zero_matches_scalar_reduction_for_curved_bases():
    neg = hg.catalog("hyperbolic", c=1.0 / math.sqrt(6.0))
    sigma_err, aniso, f_err = _compare_with_scalar(neg, "negative", 0.0, 0.8, t_end=1.5)
    assert aniso <= 1e-10 and sigma_err <= 1e-6 and f_err <= 1e-6

    pos = _einstein_positive_algebra()
    sigma_err, aniso, f_err = _compare_with_scalar(pos, "positive", 0.0, 0.7, t_end=1.0)
    assert aniso <= 1e-10 and sigma_err <= 1e-6 and f_err <= 1e-6


def test_einstein_slopes_match_scalar_rhs_at_unit_scale():
    kappa = 0.8
    cases = [
        (hg.catalog("hyperbolic", c=1.0 / math.sqrt(6.0)), "negative", 0.0),
        (_einstein_positive_algebra(), "positive", 0.0),
        (hg.catalog("r3"), "flat", 1.1),
    ]
    for alg, case, mu in cases:
        state = hf.FlowState3(algebra=alg, g=np.eye(3), f=mu)
        g_dot, _ = hf.rhs_3d(state, kappa=kappa)
        problem = ht.HomothetyProblem(case=case, kappa=kappa, mu=mu)
        expected = ht.F_value(problem, 1.0)
        np.testing.assert_allclose(g_dot, expected * np.eye(3), atol=1e-12)


def test_su2_slope_matches_quintic_at_unit_scale():
    kappa = 0.8
    state = hf.FlowState3(algebra=hg.catalog("su2", kappa=kappa), g=np.eye(3), f=0.0)
    g_dot, f_dot = hf.rhs_3d(state, kappa=kappa)
    assert ht.F_value(ht.HomothetyProblem("su2", kappa), 1.0) == pytest.approx(-8.0 / kappa, rel=1e-14)
    np.testing.assert_allclose(g_dot, (-8.0 / kappa) * np.eye(3), atol=1e-12)
    assert f_dot == 0.0


def test_su2_flow_leaves_the_conformal_family():
    # The non-Einstein scalar reduction is a constrained curve, not a literal
    # conformal orbit: away from unit scale the tensor rhs develops
    # anisotropy, so the integrated metric departs from multiples of the
    # start even though the initial slope is isotropic.
    kappa = 1.2
    state = hf.FlowState3(algebra=hg.catalog("su2", kappa=kappa), g=np.eye(3), f=0.0)
    g_half, _ = hf.rhs_3d(
        hf.FlowState3(algebra=state.algebra, g=0.5 * np.eye(3), f=0.0), kappa=kappa
    )
    aniso_rhs = float(np.max(np.abs(g_half - g_half[0, 0] * np.eye(3))))
    assert aniso_rhs > 1e-3
    traj = hf.integrate_flow(state, hf.FlowParams(kappa=kappa, t_span=(0.0, 0.05), n_points=11))
    worst = max(
        float(np.max(np.abs(traj.g[i] - traj.g[i][0, 0] * np.eye(3))))
        for i in range(traj.t.size)
    )
    assert worst > 1e-3


# ---------------------------------------------------------------------------
# constraint four-form
# ---------------------------------------------------------------------------


def test_bianchi_residual_vanishes_in_dimension_three():
    rng = np.random.default_rng(11)
    for name, kwargs in [
        ("heisenberg", {}),
        ("su2", {"kappa": 1.3}),
        ("sl2r", {}),
        ("hyperbolic", {"c": 0.7}),
    ]:
        alg = hg.catalog(name, **kwargs)
        a = rng.normal(size=(3, 3))
        g = a @ a.T + 0.5 * np.eye(3)
        torsion = float(rng.normal()) * tc.volume_form(g)
        residual = hf.bianchi_residual(alg, g, torsion, kappa=1.7)
        assert np.max(np.abs(residual)) == 0.0


def _embed_in_dim4(alg3, name):
    c4 = np.zeros((4, 4, 4))
    c4[:3, :3, :3] = alg3.structure
    return hg.LieAlgebraData(name=name, dim=4, structure=c4)


def _random_three_form_dim4(rng):
    values = rng.normal(size=4)
    eps3 = tc.levi_civita_symbol(3)
    out = np.zeros((4, 4, 4))
    for m in range(4):
        rest = [i for i in range(4) if i != m]
        for perm in itertools.permutations(range(3)):
            out[rest[perm[0]], rest[perm[1]], rest[perm[2]]] = eps3[perm] * values[m]
    return out


def _maurer_cartan_d3(alg, form):
    """Exterior derivative of a 3-form via the antiderivation rule.

    Independent of the module's alternating-sum formula: expands the form in
    basis covectors, differentiates each covector through the structure
    constants, and reassembles with wedge products.
    """
    n = alg.dim
    basis = [np.eye(n)[i] for i in range(n)]
    d_basis = [-alg.structure[:, :, m] for m in range(n)]
    out = np.zeros((n,) * 4)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                coeff = form[i, j, k] / 6.0
                if coeff == 0.0:
                    continue
                out += coeff * (
                    tc.wedge(tc.wedge(d_basis[i], basis[j]), basis[k])
                    - tc.wedge(tc.wedge(basis[i], d_basis[j]), basis[k])
                    + tc.wedge(tc.wedge(basis[i], basis[j]), d_basis[k])
                )
    return out


def _wedge_two_forms_bruteforce(a, b):
    n = a.shape[0]
    out = np.zeros((n,) * 4)
    for idx in itertools.product(range(n), repeat=4):
        total = 0.0
        for perm in itertools.permutations(range(4)):
            sign = tc._perm_sign(perm)
            p = [idx[perm[r]] for r in range(4)]
            total += sign * a[p[0], p[1]] * b[p[2], p[3]]
        out[idx] = total / 4.0
    return out


def _riemann_wedge_bruteforce(g, riem):
    n = g.shape[0]
    frame = tc.frame_orthonormalize(g)
    out = np.zeros((n,) * 4)
    for p in range(n):
        for q in range(n):
            two_form = np.einsum("abij,i,j->ab", riem, frame[:, p], frame[:, q])
            out += _wedge_two_forms_bruteforce(two_form, two_form)
    return 0.5 * out


def test_bianchi_residual_dim4_matches_bruteforce():
    rng = np.random.default_rng(23)
    kappa = 1.7
    alg4 = _embed_in_dim4(hg.catalog("hyperbolic", c=0.8), "hyperbolic_x_line")
    a = rng.normal(size=(4, 4))
    g4 = a @ a.T + 0.6 * np.eye(4)
    torsion = _random_three_form_dim4(rng)

    residual = hf.bianchi_residual(alg4, g4, torsion, kappa=kappa)

    d_torsion = _maurer_cartan_d3(alg4, torsion)
    assert np.max(np.abs(d_torsion)) > 1e-2  # the derivative term is active
    g4_inv = tc.metric_inverse(g4)
    gamma_tw = hg.connection_twisted(hg.levi_civita_connection(alg4, g4, g4_inv), g4_inv, torsion)
    riem_tw = hg.invariant_riemann(alg4, g4, gamma_tw)
    wedge = _riemann_wedge_bruteforce(g4, riem_tw)
    assert np.max(np.abs(wedge)) > 1e-3  # the quadratic term is active
    np.testing.assert_allclose(residual, d_torsion + kappa * wedge, atol=1e-10)


def test_general_rhs_moves_torsion_in_dimension_four():
    # On a non-unimodular product the invariant torsion is not harmonic, so
    # the 3-form picks up a nonzero rate.
    rng = np.random.default_rng(29)
    alg4 = _embed_in_dim4(hg.catalog("hyperbolic", c=0.8), "hyperbolic_x_line")
    a = rng.normal(size=(4, 4))
    g4 = a @ a.T + 0.6 * np.eye(4)
    torsion = _random_three_form_dim4(rng)
    _, h_dot = hf.rhs_general(alg4, g4, torsion, kappa=0.0)
    assert np.max(np.abs(h_dot)) > 1e-6
    assert np.max(np.abs(h_dot + np.swapaxes(h_dot, 0, 1))) <= 1e-12
