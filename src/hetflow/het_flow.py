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
  It takes one of two paths, chosen from the start alone.  On an algebra in
  bracket normal form (:func:`~hetflow.homogeneous.milnor_lambdas` is not
  ``None``) a metric with exactly zero off-diagonal entries has diagonal
  Ricci (Milnor 1976), so the flow stays diagonal and is integrated as three
  ODEs for ``d = diag(g)``, with Milnor's principal Ricci values on Python
  floats.  Every other start integrates the six entries of ``g`` through
  the generic curvature chain of :func:`rhs_3d`.
  Gradient terms of ``f`` (``[*df, Ric]``, ``df (x) df``, ``|df|^2``, and the
  Laplacian in ``f'``) vanish identically on invariant data and are omitted.

Every trajectory, here and in :mod:`hetflow.homothety`, comes from
:func:`integrate_events`, whose stepper :func:`solve_ivp` is an in-house
Dormand-Prince 5(4) on Python floats with the rules of scipy's RK45: the
states are a few floats, for which numpy's per-step bookkeeping costs more
than the right-hand side.  Right-hand sides and event functions receive the
state as a list of floats.

Flows are integrated only on invariant data; pointwise chart samples are
never integrated.  Both fixed-point families of the soliton module are
stationary under :func:`rhs_3d`, and on Einstein initial data the flow
preserves the conformal family so that the metric trace obeys a scalar ODE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import tensor_core as tc
from .homogeneous import (
    LieAlgebraData,
    _principal_ricci,
    connection_twisted,
    invariant_cov_deriv,
    invariant_curvature,
    invariant_d,
    invariant_riemann,
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


def _rhs_3d_core(alg: LieAlgebraData, g: np.ndarray, f: float, kappa: float) -> tuple:
    g_inv, _, _, ricci, scalar = invariant_curvature(alg, g)
    ric_comp = ricci @ g_inv @ ricci
    ric_norm2 = float(np.einsum("ab,cd,ac,bd->", ricci, ricci, g_inv, g_inv))
    return g_inv, (
        2.0 * kappa * ric_comp
        - (2.0 + kappa * (2.0 * scalar - f * f)) * ricci
        + (f * f + kappa * (scalar**2 - 2.0 * ric_norm2 - 0.25 * f**4)) * g
    )


def _rhs_milnor(lambdas: tuple, d: list, f: float, kappa: float) -> list:
    """Diagonal of ``g'`` at ``g = diag(d)`` on an algebra in bracket normal form.

    The frame ``e_i / sqrt(d_i)`` is orthonormal with brackets
    ``l_i d_i / sqrt(d1 d2 d3)``; there ``Ric = diag(d_i r_i)`` with ``r_i``
    Milnor's principal values, and the 3D rhs reduces entry by entry to
    ``d_i (2k r_i^2 - (2 + k(2s - f^2)) r_i + f^2 + k(s^2 - 2|r|^2 - f^4/4))``.
    Computed on Python floats: this runs once per solver stage.
    """
    d1, d2, d3 = d
    l1, l2, l3 = lambdas
    root = math.sqrt(d1 * d2 * d3)
    r = _principal_ricci(l1 * d1 / root, l2 * d2 / root, l3 * d3 / root)
    r1, r2, r3 = r
    f2 = f * f
    s = r1 + r2 + r3
    linear = 2.0 + kappa * (2.0 * s - f2)
    shift = f2 + kappa * (s * s - 2.0 * (r1 * r1 + r2 * r2 + r3 * r3) - 0.25 * f2 * f2)
    return [di * (2.0 * kappa * ri * ri - linear * ri + shift) for di, ri in zip(d, r)]


def rhs_3d(state: FlowState3, kappa: float) -> tuple:
    """Time derivative ``(g', f')`` of the three-dimensional reduction."""
    _check_kappa(kappa)
    tc.validate_metric(state.g)
    g_inv, g_dot = _rhs_3d_core(state.algebra, state.g, state.f, kappa)
    f_dot = -0.5 * float(np.einsum("ab,ab->", g_inv, g_dot)) * state.f
    return g_dot, f_dot


def _twisted_curvature(alg: LieAlgebraData, g: np.ndarray, torsion: np.ndarray) -> tuple:
    """``(g_inv, Rh)`` with ``Rh`` the curvature of the connection with torsion ``-H``."""
    g_inv = tc.metric_inverse(g)
    gamma = levi_civita_connection(alg, g, g_inv)
    return g_inv, invariant_riemann(alg, g, connection_twisted(gamma, g_inv, torsion))


def rhs_general(
    alg: LieAlgebraData,
    g: np.ndarray,
    torsion: np.ndarray,
    kappa: float,
) -> tuple:
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
    g_inv, riemann_tw = _twisted_curvature(alg, g, torsion)
    return invariant_d(alg, torsion) + kappa * tc.riemann_wedge_riemann(g_inv, riemann_tw)


def dilaton_rhs(state: FlowState3, kappa: float) -> float:
    """Scalar rate ``(|H|^2 - kappa |Rh|^2) / 2`` driving the density weight.

    The codifferential/Laplacian contribution vanishes on invariant data.
    Zero on both constant-density fixed points (stationarity).
    """
    g, f = state.g, state.f
    torsion = f * tc.volume_form(g)
    g_inv, riemann_tw = _twisted_curvature(state.algebra, g, torsion)
    return 0.5 * (tc.torsion_norm2(g_inv, torsion) - kappa * tc.riemann_norm2(g_inv, riemann_tw))


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


def _dp_step(fun, t, y, k0, h):
    """One Dormand-Prince step of size ``h`` from ``(t, y)`` with ``k0 = fun(t, y)``.

    Returns ``(y_new, K, y_err)``: the fifth-order solution, the stages
    ``K = (k0, k2, k3, k4, k5, k6)`` with ``k6 = fun(t + h, y_new)``, and its
    difference to the embedded fourth-order solution.
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
    y_err = [
        h * (-71 / 57600 * p + 71 / 16695 * r - 71 / 1920 * u + 17253 / 339200 * v - 22 / 525 * w + 1 / 40 * z)
        for p, r, u, v, w, z in zip(k0, k2, k3, k4, k5, k6)
    ]
    return y_new, (k0, k2, k3, k4, k5, k6), y_err


class _DenseOutput:
    """The quartic interpolants of consecutive steps, evaluated on arrays of ``tau``.

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
    ``tau`` raises ``RuntimeError``.  ``fun`` and the event functions receive
    the state as a list of floats, and ``fun`` returns a sequence of floats.

    ``events`` is a sequence of ``(fn, direction)``, all terminal, and one
    of them must fire: ``tau`` has no bound.  After each accepted step an
    event is active when ``fn`` reached or crossed zero in ``direction``
    (either way for 0); ``brentq`` finds its root on the step's interpolant,
    and the earliest root ends the run.  The state at that last node is the
    dense output's value there.

    The benchmark's tracer and the tests count ``fun`` evaluations by
    replacing this module attribute and reading the result's ``nfev``.
    """
    y = [float(v) for v in y0]
    tau, f = 0.0, fun(0.0, y)
    scale = [atol + abs(v) * rtol for v in y]
    d0, d1 = _rms([v / s for v, s in zip(y, scale)]), _rms([v / s for v, s in zip(f, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
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
            y_new, ks, y_err = _dp_step(fun, tau, y, f, h)
            nfev += 6
            err = _rms([e / (atol + max(abs(a), abs(b)) * rtol) for e, a, b in zip(y_err, y, y_new)])
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err**-0.2)
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(0.2, 0.9 * err**-0.2)  # 0.2 when err is NaN
            rejected = True
        step = (tau, h, y, ks)
        tau, y, f = tau_new, y_new, ks[-1]
        g_new = [fn(tau, y) for fn, _ in events]
        active = [
            i
            for i, (a, b, (_, d)) in enumerate(zip(g, g_new, events))
            if (d >= 0 and a <= 0.0 <= b) or (d <= 0 and a >= 0.0 >= b)
        ]
        if active:
            break
        nodes.append(tau)
        states.append(y)
        steps.append(step)
        g = g_new

    last = _DenseOutput((step[0], tau), [step])

    def event_root(fn):
        def on_step(s):
            return fn(s, last(np.array([s]))[:, 0].tolist())

        return brentq(on_step, step[0], tau, xtol=4 * _EPS, rtol=4 * _EPS)

    root, i = min((event_root(events[i][0]), i) for i in active)
    if len(nodes) == 1 or root != nodes[-1]:  # else the run ends at the last node
        nodes.append(root)
        steps.append(step)
    sol = _DenseOutput(nodes, steps)
    # the last node's state, new or replaced
    states[len(nodes) - 1 :] = [sol(np.array(nodes[-1:]))[:, 0].tolist()]
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
            dt = sign
        elif speed < 2.0 * bend:  # the state's speed in tau bends to cap
            dt = sign * (1.0 - 0.75 * (speed - bend) ** 2 / (cap * speed))
        elif tau > 0.0 or math.isfinite(speed):
            dt = sign * cap / speed
        else:
            # A non-finite derivative at the start would make the initial
            # step NaN, and the stepper would retry that step forever.
            raise RuntimeError("the right-hand side is not finite at the initial state")
        return [dt * v for v in dy] + [dt]

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
    which is exact to rounding in a step where ``dt/dtau = 1``; where that
    misses, Illinois secant steps on the step's interpolant of ``t`` refine it.
    """
    elapsed = sign * (sol.y[-1] - ts[0])  # at each node, non-decreasing
    u = sign * (ts - ts[0])
    tau = np.interp(u, elapsed, sol.t)
    z = sol.sol(tau)
    tol = 16.0 * np.finfo(float).eps * max(abs(ts[0]), abs(ts[-1]))
    j = np.flatnonzero((np.abs(z[-1] - ts) > tol) & (u < elapsed[-1]))
    k, cols = np.searchsorted(elapsed, u[j]), np.arange(j.size)
    ends = np.array([sol.t[k - 1], sol.t[k]])
    vals, last = np.array([elapsed[k - 1], elapsed[k]]) - u[j], np.full(j.size, -1)
    for _ in range(60):
        f = sign * (z[-1, j] - ts[0]) - u[j]
        live = (np.abs(f) > tol) & (ends[1] - ends[0] > 4.0 * np.finfo(float).eps * ends[1])
        if not live.any():
            break
        # tau replaces the end on its side of the root; the other end's value
        # is halved when the same end moves twice in a row.
        side = (f > 0.0).astype(int)
        vals[1 - side, cols] *= np.where(live & (side == last), 0.5, 1.0)
        ends[side, cols] = np.where(live, tau[j], ends[side, cols])
        vals[side, cols] = np.where(live, f, vals[side, cols])
        last = np.where(live, side, last)
        tau[j] = np.where(live, (ends[0] * vals[1] - ends[1] * vals[0]) / (vals[1] - vals[0]), tau[j])
        z[:, j] = sol.sol(tau[j])
    return z


# The generic path integrates the upper triangle of g, row by row; the
# diagonal path its entries _DIAG, and leaves the others exactly 0.0.
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
        return _rhs_3d_core(alg, np.asarray(y)[_SYM], c / math.sqrt(det), kappa)[1][_TRIU].tolist()

    events = (
        ("degenerate", lambda t, y: float(np.min(np.linalg.eigvalsh(np.asarray(y)[_SYM]))) - EPS_DEGENERATE, -1),
        ("blowup", lambda t, y: max(map(abs, y)) - M_BLOWUP, 1),
    )
    return rhs, events


def _milnor_system(lambdas: tuple, c: float, kappa: float) -> tuple:
    """``(rhs, events)`` of the diagonal ``d`` of ``g`` on a Milnor-form algebra."""

    def rhs(t, d):
        vol = d[0] * d[1] * d[2]
        if not (min(d) > 0.0 and vol > 0.0):  # off the cone, as in _generic_system
            return [math.nan] * 3
        return _rhs_milnor(lambdas, d, c / math.sqrt(vol), kappa)

    events = (
        ("degenerate", lambda t, y: min(y) - EPS_DEGENERATE, -1),
        ("blowup", lambda t, y: max(map(abs, y)) - M_BLOWUP, 1),
    )
    return rhs, events


def integrate_flow(state: FlowState3, params: FlowParams) -> FlowTrajectory:
    """Integrate the 3D reduction from ``state`` over ``params.t_span``.

    Only metric entries are integrated; the density is
    ``f = c / sqrt(det g)`` with ``c = f0 sqrt(det g0)``, so the flux volume
    ``f sqrt(det g)`` is conserved exactly.  When the algebra is in bracket
    normal form (:func:`~hetflow.homogeneous.milnor_lambdas`) and ``g0`` has
    exactly zero off-diagonal entries, the three diagonal entries are
    integrated with Milnor's closed-form Ricci and the off-diagonal ones stay
    exactly ``0.0``; otherwise the six entries of the upper triangle are
    integrated through the generic curvature chain.  Terminal events: metric
    degeneration (smallest eigenvalue of ``g`` reaching ``1e-8``) and blow-up
    (largest entry magnitude reaching ``1e8``), each located as a threshold
    crossing by :func:`integrate_events`.  The trajectory is sampled on
    ``n_points`` uniform times up to the end or the event, so the last sample
    of a run that ends in an event is the event's state; an event's ``y`` is
    the six upper-triangle entries on either path.  That final sample of a
    degenerating run is accurate only to ``atol``, not ``rtol``: its smallest
    entries sit near the ``1e-8`` threshold, so the default ``atol = 1e-12``
    leaves them about ``1e-4`` relative error, and ``f`` inherits it.
    """
    alg, g0 = state.algebra, state.g
    packed = g0[_TRIU]
    c = state.f * math.sqrt(_det(packed.tolist()))
    lambdas = milnor_lambdas(alg)
    if lambdas is not None and not np.any(g0 - np.diag(np.diagonal(g0))):
        entries = _DIAG
        rhs, events = _milnor_system(lambdas, c, params.kappa)
    else:
        entries = slice(None)
        rhs, events = _generic_system(alg, c, params.kappa)
    ts, ys, found, status = integrate_events(
        rhs, params.t_span, packed[entries], events, params.rtol, params.atol, params.n_points
    )

    def packed_g(y):
        six = np.zeros((6,) + np.shape(y)[1:])
        six[entries] = y
        return six

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
