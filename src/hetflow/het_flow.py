"""Curvature-corrected torsion flow on left-invariant data.

The flow couples a metric, a closed 3-form torsion, and a coupling constant
``kappa >= 0``.  Two right-hand sides are provided:

* :func:`rhs_general` evolves ``(g, H)`` in any dimension:
  ``g' = -2 Ric + HoH - 2 kappa sym(RhoR)`` with ``HoH`` the
  half-normalized torsion square and ``Rh`` the curvature of the metric
  connection with torsion ``-H``; ``H' = -d delta H``.
* :func:`rhs_3d` evolves the three-dimensional reduction ``(g, f)`` with
  ``H = f vol_g``, where every curvature contraction collapses to Ricci data:

  ``g' = 2k Ric.Ric - (2 + k(2s - f^2)) Ric
         + (f^2 + k(s^2 - 2|Ric|^2 - f^4/4)) g``,
  ``f' = -1/2 Tr_g(g') f``.

  The second equation says ``f sqrt(det g)`` is constant, so
  :func:`integrate_flow` evolves only ``g`` and sets ``f`` from it.
  It takes one of three paths, chosen from the start alone.  On an algebra in
  bracket normal form (:func:`~hetflow.homogeneous.milnor_lambdas` is not
  ``None``) a metric with exactly zero off-diagonal entries has diagonal
  Ricci (Milnor 1976), so the flow stays diagonal and is integrated as three
  ODEs for ``d = diag(g)``, with Milnor's principal Ricci values on Python
  floats.  On an algebra with brackets ``[x, y] = l(x) y - l(y) x``
  (:func:`~hetflow.homogeneous.l_form` is not ``None``) every metric has
  constant sectional curvature ``-K``, ``K = l.g^-1.l`` (Milnor 1976, section
  1), so ``Ric = -2K g``, ``Ric.Ric = 4K^2 g``, ``|Ric|^2 = 12 K^2`` and
  ``s = -6K``, and the rhs above collapses to

  ``g' = phi g``,  ``phi = 4K + f^2 - k (2K + f^2/2)^2``.

  The flow then stays on ``g = sigma g0``, where ``K = K0 / sigma`` and
  ``f = f0 sigma^(-3/2)``, and integrates the one scalar
  ``sigma' = sigma phi = 4K0 + f0^2/sigma^2 - k (2K0 + f0^2/(2 sigma^2))^2 / sigma``.
  Every other start integrates the six entries of ``g`` through the generic
  curvature chain of :func:`rhs_3d`.
  Gradient terms of ``f`` (``[*df, Ric]``, ``df (x) df``, ``|df|^2``, and the
  Laplacian in ``f'``) vanish identically on invariant data and are omitted.

Every trajectory, here and in :mod:`hetflow.homothety`, comes from
:func:`integrate_events`, whose stepper :func:`solve_ivp` is an in-house
Dormand-Prince 5(4) on Python floats with the rules of scipy's RK45: the
states are a few floats, for which numpy's per-step bookkeeping costs more
than the right-hand side.  One Illinois routine finds its event roots and
puts its samples on their times, so the module needs numpy alone.

Flows are integrated only on invariant data; pointwise chart samples are
never integrated.  Both fixed-point families of the soliton module are
stationary under :func:`rhs_3d`, and on Einstein initial data the flow
preserves the conformal family so that the metric trace obeys a scalar ODE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor_core as tc
from .homogeneous import (
    LieAlgebraData,
    _principal_ricci,
    connection_twisted,
    invariant_cov_deriv,
    invariant_curvature,
    invariant_d,
    invariant_riemann,
    l_form,
    levi_civita_connection,
    milnor_lambdas,
)

__all__ = [
    "FlowState3",
    "FlowParams",
    "Event",
    "FlowTrajectory",
    "rhs_3d",
    "rhs_general",
    "bianchi_residual",
    "dilaton_rhs",
    "integrate_flow",
]

EPS_DEGENERATE = 1e-8
M_BLOWUP = 1e8
# Speed of the state per unit of integrate_events' regularised time near a
# singularity.  Its time change starts at two thirds of it, above the speeds
# |y'| of regular runs (up to 16 on the benchmark's flows), which then step in
# t exactly, and bends to it with a continuous slope: a kink would hide the
# time lost crossing it from the stepper's error estimate (measured: 1e-8
# relative at rtol 1e-12).
SUNDMAN_SPEED = 30.0


@dataclass
class FlowState3:
    """Invariant three-dimensional configuration ``(g, f)``.

    ``f`` is the torsion density (``H = f vol_g``); the orientation entering
    ``vol_g`` is fixed to +1 throughout (the rhs is even in the density, so
    the choice never matters on invariant data).
    """

    algebra: LieAlgebraData
    g: np.ndarray
    f: float

    def __post_init__(self) -> None:
        if self.algebra.dim != 3:
            raise ValueError("FlowState3 requires a three-dimensional algebra")
        g = np.asarray(self.g, dtype=float)
        if not np.all(np.isfinite(g)) or not np.isfinite(self.f):
            raise ValueError("flow state entries must be finite")
        tc.validate_metric(g)
        self.g = g
        self.f = float(self.f)


@dataclass(frozen=True)
class FlowParams:
    """Coupling constant, tolerances, and output control for one integration."""

    kappa: float
    t_span: tuple = (0.0, 1.0)
    rtol: float = 1e-10
    atol: float = 1e-12
    n_points: int = 201

    def __post_init__(self) -> None:
        _check_kappa(self.kappa)
        if self.n_points < 2:
            raise ValueError("n_points must be at least 2")


@dataclass(frozen=True)
class Event:
    """A terminal event of :func:`integrate_events`: the integrated state
    ``y`` at the time ``t`` where it crossed the threshold of ``kind``."""

    kind: str
    t: float
    y: tuple


@dataclass(frozen=True)
class FlowTrajectory:
    algebra: LieAlgebraData
    params: FlowParams
    t: np.ndarray
    g: np.ndarray  # (n_samples, 3, 3)
    f: np.ndarray  # (n_samples,)
    events: tuple
    status: str

    @property
    def torsion_volume(self) -> np.ndarray:
        """Conserved coupling ``f sqrt(det g)`` sampled along the flow."""
        return self.f * np.sqrt(np.linalg.det(self.g))


def _check_kappa(kappa: float) -> None:
    if not 0.0 <= kappa < math.inf:
        raise ValueError(f"kappa must be finite and non-negative, got {kappa!r}")


def _rhs_3d_core(g: np.ndarray, g_inv: np.ndarray, ricci: np.ndarray, scalar: float, f: float, kappa: float) -> tuple:
    """The 3D law ``(g', f')`` of the module docstring, from the Ricci data of ``g``;
    batched as the :mod:`~hetflow.tensor_core` closed forms are, ``kappa`` included."""
    ric_comp = ricci @ g_inv @ ricci
    ric_norm2 = tc.ricci_norm2(g_inv, ricci)
    linear = 2.0 + kappa * (2.0 * scalar - f * f)
    shift = f * f + kappa * (scalar**2 - 2.0 * ric_norm2 - 0.25 * f**4)
    g_dot = (
        2.0 * tc.broadcast_scalar(kappa, 2) * ric_comp
        - tc.broadcast_scalar(linear, 2) * ricci
        + tc.broadcast_scalar(shift, 2) * g
    )
    return g_dot, tc.float_or_array(-0.5 * np.einsum("...ab,...ab->...", g_inv, g_dot) * f)


def rhs_3d(state: FlowState3, kappa: float) -> tuple:
    """Time derivative ``(g', f')`` of the three-dimensional reduction."""
    _check_kappa(kappa)
    tc.validate_metric(state.g)
    g_inv, _, _, ricci, scalar = invariant_curvature(state.algebra, state.g)
    return _rhs_3d_core(state.g, g_inv, ricci, scalar, state.f, kappa)


def rhs_general(alg: LieAlgebraData, g: np.ndarray, torsion: np.ndarray, kappa: float) -> tuple:
    """Time derivative ``(g', H')`` of the unreduced flow in any dimension.

    ``H' = -d delta H`` vanishes on three-dimensional invariant torsion
    (``delta(f vol) = 0`` there) but is generically nonzero from dimension
    four on.
    """
    _check_kappa(kappa)
    g = np.asarray(g, dtype=float)
    torsion = np.asarray(torsion, dtype=float)
    tc.validate_metric(g)
    g_inv, gamma, _, ricci, _ = invariant_curvature(alg, g)
    riemann_tw = invariant_riemann(alg, g, connection_twisted(gamma, g_inv, torsion))
    rr = tc.riemann_square(g_inv, riemann_tw)
    g_dot = (
        -2.0 * ricci
        + tc.torsion_square(g_inv, torsion)
        - 2.0 * kappa * 0.5 * (rr + rr.T)
    )
    nabla_torsion = invariant_cov_deriv(gamma, torsion)
    delta_torsion = tc.codifferential_from_nabla(g_inv, nabla_torsion)
    h_dot = -invariant_d(alg, delta_torsion)
    return g_dot, h_dot


def bianchi_residual(alg: LieAlgebraData, g: np.ndarray, torsion: np.ndarray, kappa: float) -> np.ndarray:
    """Constraint 4-form ``dH + kappa <Rh ^ Rh>`` (identically zero in dim 3)."""
    g = np.asarray(g, dtype=float)
    torsion = np.asarray(torsion, dtype=float)
    tc.validate_metric(g)
    g_inv = tc.metric_inverse(g)
    gamma = levi_civita_connection(alg, g, g_inv)
    riemann_tw = invariant_riemann(alg, g, connection_twisted(gamma, g_inv, torsion))  # torsion -H
    return invariant_d(alg, torsion) + kappa * tc.riemann_wedge_riemann(g_inv, riemann_tw)


def dilaton_rhs(state: FlowState3, kappa: float) -> float:
    """Scalar rate ``(|H|^2 - kappa |Rh|^2) / 2`` driving the density weight.

    In 3D ``|H|^2 = f^2``, and ``|Rh|^2`` is the closed form
    :func:`~hetflow.tensor_core.riemann_norm2_twisted_dim3` in Ricci data.
    The codifferential/Laplacian contribution vanishes on invariant data.
    Zero on both constant-density fixed points (stationarity).
    """
    g_inv, _, _, ricci, scalar = invariant_curvature(state.algebra, state.g)
    f = state.f
    return 0.5 * (f * f - kappa * tc.riemann_norm2_twisted_dim3(g_inv, ricci, scalar, f, np.zeros(3)))


def validate_solver_args(t_span, rtol: float, atol: float, n_points: int) -> None:
    """Raise ``ValueError`` unless ``t_span`` is two finite times, ``0 < rtol``
    and ``0 <= atol`` are finite, and ``n_points >= 2``."""
    if len(t_span) != 2 or not all(math.isfinite(t) for t in t_span):
        raise ValueError(f"t_span must be two finite times, got {tuple(t_span)!r}")
    if not (0.0 < rtol < math.inf and 0.0 <= atol < math.inf):
        raise ValueError(f"rtol must be finite and positive, atol finite and non-negative: {rtol!r}, {atol!r}")
    if n_points < 2:
        raise ValueError("n_points must be at least 2")


# The Dormand-Prince 5(4) pair (Dormand & Prince 1980) and Shampine's (1986)
# quartic dense output, as in scipy.integrate.RK45.  The second stage has a
# zero weight in the solution, the error estimate and the interpolant, so
# _dp_step does not return it and _P has no row for it.
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
_EPS = float(np.finfo(float).eps)


def _dp_step(fun, t, y, k0, h, rtol, atol):
    """One Dormand-Prince step of size ``h`` from ``(t, y)`` with ``k0 = fun(t, y)``.

    Returns ``(y_new, K, err)``: the fifth-order solution, the stages
    ``K = (k0, k2, k3, k4, k5, k6)`` with ``k6 = fun(t + h, y_new)``, and the
    RMS norm of its difference to the embedded fourth-order solution, each
    entry scaled by ``atol + rtol max(|y|, |y_new|)``.
    """
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
    err = _rms([
        h * (-71 / 57600 * p + 71 / 16695 * r - 71 / 1920 * u + 17253 / 339200 * v - 22 / 525 * w + 1 / 40 * z)
        / (atol + max(abs(a), abs(b)) * rtol)
        for a, b, p, r, u, v, w, z in zip(y, y_new, k0, k2, k3, k4, k5, k6)
    ])
    return y_new, (k0, k2, k3, k4, k5, k6), err


class _DenseOutput:
    """The quartic interpolants of consecutive steps, on arrays of ``tau`` or one segment on a scalar.

    ``nodes`` are the step boundaries and ``steps`` one ``(tau0, h, y0, K)``
    per step; the last interpolant may end before ``tau0 + h``, at an event
    root.  A ``tau`` takes the segment :class:`scipy.integrate.OdeSolution`
    gives it: at a node, the segment that ends there.
    """

    def __init__(self, nodes, steps) -> None:
        tau0, h, y0, ks = zip(*steps)
        self.nodes = np.array(nodes)
        self.tau0, self.h, self.y0 = np.array(tau0), np.array(h), np.array(y0)
        self.q = _P.T @ np.array(ks)  # (steps, 4, n): the coefficients of x, ..., x^4

    def __call__(self, tau: np.ndarray) -> np.ndarray:
        """The states at the times ``tau``, one column each."""
        seg = np.clip(np.searchsorted(self.nodes, tau, side="left") - 1, 0, self.h.size - 1)
        h = self.h[seg, None]
        x = (tau - self.tau0[seg])[:, None] / h
        q = self.q[seg]
        return (self.y0[seg] + h * ((((q[:, 3] * x + q[:, 2]) * x + q[:, 1]) * x + q[:, 0]) * x)).T

    def interpolant(self, i: int, rows: slice = slice(None)):
        """Segment ``i``'s state entries ``rows`` at a scalar ``tau`` as Python floats: inside
        the segment, :meth:`__call__`'s value bit for bit (same Horner order), without its gathers."""
        tau0, h = float(self.tau0[i]), float(self.h[i])
        entries = list(zip(self.y0[i, rows].tolist(), *self.q[i][:, rows].tolist()))

        def at(tau):
            x = (tau - tau0) / h
            return [a + h * ((((q4 * x + q3) * x + q2) * x + q1) * x) for a, q1, q2, q3, q4 in entries]

        return at


def _illinois(fn, a: float, b: float, fa: float, fb: float, x: float, ftol: float) -> float:
    """A root of ``fn`` in ``[a, b]``, where ``fa = fn(a)`` and ``fb = fn(b)`` differ
    in sign, by the Illinois method (Dowell & Jarratt 1971) from the first iterate ``x``.

    Each iterate replaces the end whose value has its sign, and the next is
    the secant of the ends; an end kept twice in a row has its value halved.
    Stops at ``|fn(x)| <= ftol``, at ends within 4 ulps of ``b`` or after 60
    iterations, and returns the evaluated iterate with the smallest ``|fn|``.
    """
    ends, vals, last, best, f_best = [a, b], [fa, fb], -1, x, math.inf
    for _ in range(60):
        fx = fn(x)
        if abs(fx) < f_best:
            best, f_best = x, abs(fx)
        if abs(fx) <= ftol or ends[1] - ends[0] <= 4.0 * _EPS * abs(ends[1]):
            break
        side = int((fx > 0.0) != (vals[0] > 0.0))  # the end x replaces: 0 for a, 1 for b
        if side == last:
            vals[1 - side] *= 0.5
        ends[side], vals[side], last = x, fx, side
        x = (ends[0] * vals[1] - ends[1] * vals[0]) / (vals[1] - vals[0])
    return best


@dataclass(frozen=True)
class _Run:
    """A run of :func:`solve_ivp`: the step boundaries ``t``, the states there
    ``y`` (one column each), the dense output ``sol``, the index of the event
    that ended the run, and the number of ``fun`` evaluations."""

    t: np.ndarray
    y: np.ndarray
    sol: _DenseOutput
    event: int
    nfev: int


def _rms(values: list) -> float:
    return math.hypot(*values) / math.sqrt(len(values))


def solve_ivp(fun, y0, events, rtol: float, atol: float) -> _Run:
    """Integrate ``y' = fun(tau, y)`` from ``tau = 0`` until the first terminal event.

    The Dormand-Prince 5(4) stepper of :func:`integrate_events`, on Python
    floats, with each rule of scipy's ``solve_ivp(method="RK45")``: its
    initial step, the RMS error norm scaled by ``atol + rtol max(|y|,
    |y_new|)``, and step factors ``0.9 err^(-1/5)`` clipped to ``[0.2, 10]``
    and not above 1 right after a rejection.  A non-finite error (a NaN
    stage) rejects the step and shrinks it fivefold; a step below ten ulps of
    ``tau`` raises ``RuntimeError``.  A start whose derivative, scaled by
    ``atol + rtol |y|``, overflows (the initial step underflows to 0) raises
    ``ValueError``.  ``fun`` and the event functions receive
    the state as a list of floats, and ``fun`` returns a sequence of floats.

    ``events`` is a sequence of ``(fn, direction)``, all terminal, and one
    of them must fire: ``tau`` has no bound.  After each accepted step an
    event is active when ``fn`` reached or crossed zero in ``direction``
    (either way for 0); :func:`_illinois` finds its root on the step's
    interpolant from ``fn``'s values at the step's ends (an end where it is
    0 is the root), and the earliest root ends the run.  The state at that
    last node is the dense output's value there.

    The benchmark's tracer and the tests count ``fun`` evaluations by
    replacing this module attribute and reading the result's ``nfev``.
    """
    y = [float(v) for v in y0]
    tau, f = 0.0, fun(0.0, y)
    scale = [atol + abs(v) * rtol for v in y]
    d0, d1 = _rms([v / s for v, s in zip(y, scale)]), _rms([v / s for v, s in zip(f, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if h0 == 0.0:
        raise ValueError("the initial step underflows: the derivative at the start overflows atol + rtol |y|")
    f1 = fun(h0, [v + h0 * p for v, p in zip(y, f)])
    d2 = _rms([(q - p) / s for p, q, s in zip(f, f1, scale)]) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    h_abs, nfev = min(100.0 * h0, h1), 2

    g = [fn(tau, y) for fn, _ in events]
    nodes, states, steps = [tau], [y], []
    while True:
        min_step = 10.0 * math.ulp(tau)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise RuntimeError(f"integration failed: the step size fell below 10 ulps of tau = {tau!r}")
            tau_new = tau + h_abs
            h = tau_new - tau
            y_new, ks, err = _dp_step(fun, tau, y, f, h, rtol, atol)
            nfev += 6
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err**-0.2)
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(0.2, 0.9 * err**-0.2)  # 0.2 when err is NaN
            rejected = True
        steps.append((tau, h, y, ks))
        tau, y, f = tau_new, y_new, ks[-1]
        nodes.append(tau)
        states.append(y)
        g_new = [fn(tau, y) for fn, _ in events]
        active = [
            i
            for i, (a, b, (_, d)) in enumerate(zip(g, g_new, events))
            if (d >= 0 and a <= 0.0 <= b) or (d <= 0 and a >= 0.0 >= b)
        ]
        if active:
            break
        g = g_new

    sol = _DenseOutput(nodes, steps)
    at = sol.interpolant(-1)

    def event_root(i):
        a, b, fa, fb = nodes[-2], tau, g[i], g_new[i]
        if fa == 0.0 or fb == 0.0:  # an end is the root, the first if both are
            return a if fa == 0.0 else b
        return _illinois(lambda s: events[i][0](s, at(s)), a, b, fa, fb, (a * fb - b * fa) / (fb - fa), 0.0)

    root, i = min((event_root(i), i) for i in active)
    if len(steps) > 1 and root == nodes[-2]:  # the run ends at the node before the last step
        del nodes[-1], states[-1], steps[-1]
        sol = _DenseOutput(nodes, steps)
    nodes[-1] = sol.nodes[-1] = root
    states[-1] = sol(np.array([root]))[:, 0].tolist()
    return _Run(np.array(nodes), np.array(states).T, sol, i, nfev)


def integrate_events(rhs, t_span, y0, events, rtol, atol, n_points) -> tuple:
    """Integrate ``y' = rhs(t, y)`` until ``t_span[1]`` or the first event.

    The stepper is :func:`solve_ivp`, an in-house Dormand-Prince 5(4) on
    Python floats that follows each rule of scipy's RK45.  ``rhs`` and the
    event functions receive the state ``y`` as a list of floats.  ``rhs``
    returns a sequence of floats; NaN entries make the stepper reject the
    trial step and shrink it.  ``events`` is a sequence of
    ``(kind, fn, direction)``; every event is terminal and fires where
    ``fn(t, y)`` crosses zero in ``direction``.

    The solver advances ``(y, t)`` in a regularised time ``tau`` (a Sundman
    time change), with ``|dt/dtau| <= 1``.  While ``|y'|`` stays below two
    thirds of ``SUNDMAN_SPEED``, ``tau`` runs with ``t``; from four thirds on,
    the state moves at exactly ``SUNDMAN_SPEED`` per unit ``tau``.  A
    finite-time singularity, where ``|y'|`` is unbounded, then lies at a
    finite ``tau`` beyond the event thresholds, so every event is a threshold
    crossing.  A terminal event on ``t`` ends the run at ``t_span[1]``.

    Returns ``(t, y, events, status)``: ``n_points`` uniform sample times up
    to the end or the event, the dense solution there (one row per state
    variable), the event (at most one), and ``"event"`` or ``"completed"``.
    The event's state comes from the same dense output as the samples, so
    it is the last sample bit for bit.
    A non-finite span, an invalid tolerance or fewer than two samples raises
    ``ValueError``; a step failure, or a right-hand side that is not finite
    at the start, raises ``RuntimeError``.
    """
    validate_solver_args(t_span, rtol, atol, n_points)
    t0, t1 = float(t_span[0]), float(t_span[1])
    sign = 1.0 if t1 >= t0 else -1.0
    cap = SUNDMAN_SPEED
    bend = 2.0 * cap / 3.0  # the speed where the time change starts

    def regularised(tau, z):
        dy = rhs(z[-1], z[:-1])
        speed = math.hypot(*dy)
        if speed <= bend:
            if sign > 0.0:  # dt/dtau = 1, and 1.0 * v is v bit for bit
                return [*dy, 1.0]
            dt = sign
        elif speed < 2.0 * bend:  # the state's speed in tau bends to cap
            dt = sign * (1.0 - 0.75 * (speed - bend) ** 2 / (cap * speed))
        elif tau > 0.0 or math.isfinite(speed):
            dt = sign * cap / speed
        else:
            # A non-finite derivative at the start would make the initial
            # step NaN, and the stepper would retry that step forever.
            raise RuntimeError("the right-hand side is not finite at the initial state")
        return [*map(dt.__mul__, dy), dt]  # dt * v for each v, with no Python frame per stage

    def in_tau(fn):
        return lambda tau, z: fn(z[-1], z[:-1])

    span_end = (None, lambda t, y: sign * (t - t1), 1)
    run = solve_ivp(
        regularised, [*map(float, y0), t0], [(in_tau(fn), direction) for _, fn, direction in (*events, span_end)],
        rtol, atol,
    )
    z = run.y[:, -1].tolist()
    found = (Event(events[run.event][0], z[-1], tuple(z[:-1])),) if run.event < len(events) else ()
    ts = np.linspace(t0, found[0].t if found else t1, n_points)
    return ts, _sample_in_t(run, ts, sign)[:-1], found, "event" if found else "completed"


def _sample_in_t(sol, ts, sign):
    """Dense state ``(y, t)`` of a :func:`solve_ivp` run in ``tau`` at the times ``ts`` (from ``t0``).

    A time is first placed on the line between the solver nodes around it,
    which is exact to rounding in a step where ``dt/dtau = 1``; a sample whose
    ``t`` then misses by more than ``16 eps max|t|`` is refined on its own, by
    :func:`_illinois` on the step's interpolant of the ``t`` row alone from
    that guess, and the whole state is then interpolated at the root.
    """
    elapsed = sign * (sol.y[-1] - ts[0])  # at each node, non-decreasing
    u = sign * (ts - ts[0])
    tau = np.interp(u, elapsed, sol.t)
    z = sol.sol(tau)
    tol, t0 = float(16.0 * _EPS * max(abs(ts[0]), abs(ts[-1]))), float(ts[0])
    for j in np.flatnonzero((np.abs(z[-1] - ts) > tol) & (u < elapsed[-1])).tolist():
        k, uj = int(np.searchsorted(elapsed, u[j])), float(u[j])
        t_at, (a, b) = sol.sol.interpolant(k - 1, slice(-1, None)), sol.t[k - 1 : k + 1].tolist()
        fa, fb = (elapsed[k - 1 : k + 1] - uj).tolist()  # Python floats: numpy scalars double the cost
        root = _illinois(lambda s: sign * (t_at(s)[0] - t0) - uj, a, b, fa, fb, float(tau[j]), tol)
        z[:, j] = sol.sol.interpolant(k - 1)(root)
    return z


# The generic path integrates the upper triangle of g, row by row; the
# diagonal path its entries _DIAG, and leaves the others exactly 0.0; the
# Einstein path the scale of the whole triangle.
_TRIU = np.triu_indices(3)
_SYM = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
_DIAG = [0, 3, 5]


def _det(y):
    """``det g`` from the packed upper triangle (six floats, or six sample rows)."""
    a, b, c, d, e, f = y
    return a * (d * f - e * e) - b * (b * f - e * c) + c * (b * e - d * c)


def _generic_system(alg: LieAlgebraData, c: float, kappa: float) -> tuple:
    """``(rhs, events)`` of the six packed entries of ``g``."""

    def rhs(t, y):
        det = _det(y)  # on Python floats, so a NaN trial state does not warn
        if not det > 0.0:
            # A trial step past a degeneration can leave the positive-definite
            # cone; NaN makes the stepper reject it and shrink.
            return [math.nan] * 6
        g = np.asarray(y)[_SYM]
        g_inv, _, _, ricci, scalar = invariant_curvature(alg, g)
        return _rhs_3d_core(g, g_inv, ricci, scalar, c / math.sqrt(det), kappa)[0][_TRIU].tolist()

    events = (
        ("degenerate", lambda t, y: float(np.min(np.linalg.eigvalsh(np.asarray(y)[_SYM]))) - EPS_DEGENERATE, -1),
        ("blowup", lambda t, y: max(map(abs, y)) - M_BLOWUP, 1),
    )
    return rhs, events


def _milnor_system(lambdas: tuple, c: float, kappa: float) -> tuple:
    """``(rhs, events)`` of the diagonal ``d`` of ``g`` on a Milnor-form algebra.

    The frame ``e_i / sqrt(d_i)`` is orthonormal with brackets
    ``l_i d_i / sqrt(d1 d2 d3)``; there ``Ric = diag(d_i r_i)`` with ``r_i``
    Milnor's principal values, and the 3D rhs reduces entry by entry to
    ``d_i (2k r_i^2 - (2 + k(2s - f^2)) r_i + f^2 + k(s^2 - 2|r|^2 - f^4/4))``
    with ``f = c / sqrt(d1 d2 d3)``.  The rhs is one body on Python floats:
    it runs once per solver stage.
    """
    l1, l2, l3 = lambdas
    k2 = 2.0 * kappa

    def rhs(t, d):
        d1, d2, d3 = d
        vol = d1 * d2 * d3
        if not (d1 > 0.0 and d2 > 0.0 and d3 > 0.0 and vol > 0.0):  # off the cone, as in _generic_system
            return [math.nan] * 3
        root = math.sqrt(vol)
        f = c / root
        r1, r2, r3 = _principal_ricci(l1 * d1 / root, l2 * d2 / root, l3 * d3 / root)
        f2 = f * f
        s = r1 + r2 + r3
        linear = 2.0 + kappa * (2.0 * s - f2)
        shift = f2 + kappa * (s * s - 2.0 * (r1 * r1 + r2 * r2 + r3 * r3) - 0.25 * f2 * f2)
        return [
            d1 * (k2 * r1 * r1 - linear * r1 + shift),
            d2 * (k2 * r2 * r2 - linear * r2 + shift),
            d3 * (k2 * r3 * r3 - linear * r3 + shift),
        ]

    events = (
        ("degenerate", lambda t, y: min(y) - EPS_DEGENERATE, -1),
        ("blowup", lambda t, y: max(map(abs, y)) - M_BLOWUP, 1),
    )
    return rhs, events


def _einstein_system(ell: tuple, g0: np.ndarray, c: float, kappa: float) -> tuple:
    """``(rhs, events)`` of the scale ``sigma`` of ``g = sigma g0`` on an algebra
    with brackets ``[x, y] = l(x) y - l(y) x``, where ``K0 = l.g0^-1.l`` and
    ``f0^2 = c^2 / det g0``.  The events are the generic path's thresholds on
    ``sigma g0``."""
    ell = np.asarray(ell)
    with np.errstate(over="ignore"):  # an overflow is rejected below
        k0 = float(ell @ np.linalg.solve(g0, ell))
    if not math.isfinite(k0):
        raise ValueError(f"the curvature scale K0 = l.g0^-1.l is not finite ({k0!r})")
    f0_sq = c * c / _det(g0[_TRIU].tolist())

    def rhs(t, y):
        sigma = y[0]
        if not sigma > 0.0:  # off the cone, as in _generic_system
            return [math.nan]
        w = f0_sq / (sigma * sigma)
        return [4.0 * k0 + w - kappa * (2.0 * k0 + 0.5 * w) ** 2 / sigma]

    lam_min = float(np.min(np.linalg.eigvalsh(g0)))
    entry_max = float(np.max(np.abs(g0)))
    events = (
        ("degenerate", lambda t, y: y[0] * lam_min - EPS_DEGENERATE, -1),
        ("blowup", lambda t, y: y[0] * entry_max - M_BLOWUP, 1),
    )
    return rhs, events


def integrate_flow(state: FlowState3, params: FlowParams) -> FlowTrajectory:
    """Integrate the 3D reduction from ``state`` over ``params.t_span``.

    Only metric entries are integrated; the density is
    ``f = c / sqrt(det g)`` with ``c = f0 sqrt(det g0)``, so the flux volume
    ``f sqrt(det g)`` is conserved exactly.  One of three paths is taken,
    from the input alone (see the module docstring):

    * the algebra is in bracket normal form
      (:func:`~hetflow.homogeneous.milnor_lambdas`) and ``g0`` has exactly
      zero off-diagonal entries: the three diagonal entries are integrated
      with Milnor's closed-form Ricci, and the off-diagonal ones stay
      exactly ``0.0``;
    * the algebra has brackets ``[x, y] = l(x) y - l(y) x``
      (:func:`~hetflow.homogeneous.l_form`): every metric there is Einstein,
      and the one scale ``sigma`` of ``g = sigma g0`` is integrated;
    * otherwise the six entries of the upper triangle are integrated through
      the generic curvature chain.

    Terminal events: metric degeneration (smallest eigenvalue of ``g``
    reaching ``1e-8``) and blow-up (largest entry magnitude reaching
    ``1e8``), each located as a threshold crossing by
    :func:`integrate_events`.  The trajectory is sampled on ``n_points``
    uniform times up to the end or the event, so the last sample of a run
    that ends in an event is the event's state; an event's ``y`` is the six
    upper-triangle entries on every path.  That final sample of a
    degenerating run on the generic or diagonal path is accurate only to
    ``atol``, not ``rtol``: its smallest entries sit near the ``1e-8``
    threshold, so the default ``atol = 1e-12`` leaves them about ``1e-4``
    relative error, and ``f`` inherits it.  On the Einstein path the
    threshold on the one scale fixes the whole final sample.
    """
    alg, g0 = state.algebra, state.g
    packed = g0[_TRIU]
    c = state.f * math.sqrt(_det(packed.tolist()))
    lambdas = milnor_lambdas(alg)
    ell = l_form(alg)
    if lambdas is not None and not np.any(g0 - np.diag(np.diagonal(g0))):
        y0 = packed[_DIAG]
        rhs, events = _milnor_system(lambdas, c, params.kappa)

        def packed_g(y):
            six = np.zeros((6,) + np.shape(y)[1:])
            six[_DIAG] = y
            return six
    elif ell is not None:
        y0 = [1.0]
        rhs, events = _einstein_system(ell, g0, c, params.kappa)

        def packed_g(y):
            return np.multiply.outer(packed, y[0])
    else:
        y0 = packed
        rhs, events = _generic_system(alg, c, params.kappa)
        packed_g = np.asarray
    ts, ys, found, status = integrate_events(
        rhs, params.t_span, y0, events, params.rtol, params.atol, params.n_points
    )
    six = packed_g(ys)
    return FlowTrajectory(
        algebra=alg,
        params=params,
        t=ts,
        g=six.T[:, _SYM],
        f=c / np.sqrt(_det(six)),
        events=tuple(Event(e.kind, e.t, tuple(packed_g(e.y).tolist())) for e in found),
        status=status,
    )
