"""Curvature-corrected torsion flow on left-invariant data.

The flow couples a metric, a closed 3-form torsion, and a coupling constant
``kappa >= 0``.  Two right-hand sides are provided:

* :func:`rhs_general` evolves ``(g, H)`` in any dimension:
  ``g' = -2 Ric + hoh_coeff * HoH - 2 kappa sym(RhoR)`` with ``HoH`` the
  half-normalized torsion square and ``Rh`` the curvature of the metric
  connection with torsion ``-H``; ``H' = -d delta H``.
* :func:`rhs_3d` evolves the three-dimensional reduction ``(g, f)`` with
  ``H = f vol_g``, where every curvature contraction collapses to Ricci data:

  ``g' = 2k Ric.Ric - (2 + k(2s - f^2)) Ric
         + (hoh_coeff f^2 + k(s^2 - 2|Ric|^2 - f^4/4)) g``,
  ``f' = -1/2 Tr_g(g') f``.

  The second equation says ``f sqrt(det g)`` is constant, so
  :func:`integrate_flow` evolves only ``g`` and sets ``f`` from it.
  Gradient terms of ``f`` (``[*df, Ric]``, ``df (x) df``, ``|df|^2``, and the
  Laplacian in ``f'``) vanish identically on invariant data and are omitted.

``hoh_coeff = 1.0`` is the default torsion-square coefficient; it is the
unique choice under which the general rhs, the 3D reduction, and the soliton
residuals agree (``hoh_coeff = 2.0`` selects the alternative normalization
that doubles the ``HoH`` term, exposed for comparison only).

Flows are integrated only on invariant data; pointwise chart samples are
never integrated.  Both fixed-point families of the soliton module are
stationary under :func:`rhs_3d`, and on Einstein initial data the flow
preserves the conformal family so that the metric trace obeys a scalar ODE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from . import tensor_core as tc
from .homogeneous import (
    LieAlgebraData,
    connection_twisted,
    invariant_cov_deriv,
    invariant_curvature,
    invariant_d,
    invariant_riemann,
    levi_civita_connection,
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


@dataclass
class FlowState3:
    """Invariant three-dimensional configuration ``(g, f)`` at time ``t``.

    ``f`` is the torsion density (``H = f vol_g``); the orientation entering
    ``vol_g`` is fixed to +1 throughout (the rhs is even in the density, so
    the choice never matters on invariant data).
    """

    algebra: LieAlgebraData
    g: np.ndarray
    f: float
    t: float = 0.0

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
    hoh_coeff: float = 1.0

    def __post_init__(self) -> None:
        _check_kappa(self.kappa)
        if self.n_points < 2:
            raise ValueError("n_points must be at least 2")


@dataclass(frozen=True)
class Event:
    """A terminal event of :func:`integrate_events`.

    ``y`` is the integrated state at ``t``.  ``source`` is ``"threshold"``
    when the solver located the threshold crossing, ``"underflow"`` when the
    event was completed after step-size underflow.
    """

    kind: str
    t: float
    y: tuple
    source: str


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


def _rhs_3d_core(alg: LieAlgebraData, g: np.ndarray, f: float, kappa: float, hoh_coeff: float) -> tuple:
    g_inv, _, _, ricci, scalar = invariant_curvature(alg, g)
    ric_comp = ricci @ g_inv @ ricci
    ric_norm2 = float(np.einsum("ab,cd,ac,bd->", ricci, ricci, g_inv, g_inv))
    return g_inv, (
        2.0 * kappa * ric_comp
        - (2.0 + kappa * (2.0 * scalar - f * f)) * ricci
        + (hoh_coeff * f * f + kappa * (scalar**2 - 2.0 * ric_norm2 - 0.25 * f**4)) * g
    )


def rhs_3d(state: FlowState3, kappa: float, hoh_coeff: float = 1.0) -> tuple:
    """Time derivative ``(g', f')`` of the three-dimensional reduction."""
    _check_kappa(kappa)
    tc.validate_metric(state.g)
    g_inv, g_dot = _rhs_3d_core(state.algebra, state.g, state.f, kappa, hoh_coeff)
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
    hoh_coeff: float = 1.0,
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
        + hoh_coeff * tc.torsion_square(g_inv, torsion)
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


def validate_solver_args(t_span, rtol: float, atol: float) -> None:
    """Raise ``ValueError`` unless ``t_span`` is two finite times and ``0 < rtol``, ``0 <= atol`` are finite."""
    if len(t_span) != 2 or not all(math.isfinite(t) for t in t_span):
        raise ValueError(f"t_span must be two finite times, got {tuple(t_span)!r}")
    if not (0.0 < rtol < math.inf and 0.0 <= atol < math.inf):
        raise ValueError(f"rtol must be finite and positive, atol finite and non-negative: {rtol!r}, {atol!r}")


def integrate_events(rhs, t_span, y0, events, rtol, atol, n_points, complete, max_step=np.inf) -> tuple:
    """Integrate ``y' = rhs(t, y)`` with RK45 until ``t_span[1]`` or the first event.

    ``events`` is a sequence of ``(kind, fn, direction)``; every event is
    terminal and fires where ``fn(t, y)`` crosses zero in ``direction``.  On
    step-size underflow, ``complete(t_u, y_u)`` receives the last resolvable
    state and returns the completed :class:`Event`, or ``None`` to give up with
    ``RuntimeError``.  Returns ``(t, y, events, status)``: ``n_points`` uniform
    sample times up to the end or the event, the dense solution there (one row
    per state variable), the events in order of ``|t|``, and ``"event"`` or
    ``"completed"``.  A non-finite span or an invalid tolerance raises ``ValueError``.
    """
    validate_solver_args(t_span, rtol, atol)
    for _, fn, direction in events:
        fn.terminal = True
        fn.direction = direction
    sol = solve_ivp(
        rhs,
        t_span,
        y0,
        method="RK45",
        rtol=rtol,
        atol=atol,
        dense_output=True,
        events=[fn for _, fn, _ in events],
        max_step=max_step,
    )
    t_end = float(sol.t[-1])
    if sol.status == -1:
        event = complete(t_end, sol.y[:, -1])
        if event is None:
            raise RuntimeError(f"integration failed: {sol.message}")
        found = [event]
    else:
        found = [
            Event(kind, float(te), tuple(ye.tolist()), "threshold")
            for (kind, _, _), t_ev, y_ev in zip(events, sol.t_events, sol.y_events)
            for te, ye in zip(t_ev, y_ev)
        ]
        found.sort(key=lambda e: abs(e.t))
    ts = np.linspace(t_span[0], t_end, n_points)
    return ts, sol.sol(ts), tuple(found), "event" if found else "completed"


# The integrated state is the upper triangle of g, row by row.
_TRIU = np.triu_indices(3)
_SYM = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


def _det(y):
    """``det g`` from the packed upper triangle (six floats, or six sample rows)."""
    a, b, c, d, e, f = y
    return a * (d * f - e * e) - b * (b * f - e * c) + c * (b * e - d * c)


def integrate_flow(state: FlowState3, params: FlowParams) -> FlowTrajectory:
    """Integrate the 3D reduction from ``state`` over ``params.t_span``.

    Only the six metric entries are integrated; the density is
    ``f = c / sqrt(det g)`` with ``c = f0 sqrt(det g0)``, so the flux volume
    ``f sqrt(det g)`` is conserved exactly.  Terminal events: metric
    degeneration (smallest eigenvalue of ``g`` reaching ``1e-8``) and blow-up
    (largest entry magnitude reaching ``1e8``).  The trajectory is sampled on
    ``n_points`` uniform times up to the end or the first event.
    """
    alg = state.algebra
    y0 = state.g[_TRIU]
    c = state.f * math.sqrt(_det(y0.tolist()))

    def g_dot_of(y):
        det = _det(y.tolist())  # on Python floats, so a NaN trial state does not warn
        if not det > 0.0:
            raise np.linalg.LinAlgError("the metric left the positive-definite cone")
        return _rhs_3d_core(alg, y[_SYM], c / math.sqrt(det), params.kappa, params.hoh_coeff)[1]

    def rhs(t, y):
        # Trial steps may momentarily leave the SPD cone near a degeneration;
        # returning NaN makes the stepper reject and shrink instead of dying.
        try:
            return g_dot_of(y)[_TRIU]
        except np.linalg.LinAlgError:
            return np.full(6, np.nan)

    def complete(t_u, y_u):
        # Approaches to a singular metric can be too steep for double-precision
        # time stepping, leaving the eigenvalue / magnitude thresholds
        # unreachable.  When the last resolvable state is unambiguously
        # degenerating or blowing up, the event is emitted there (within
        # machine precision of the singular time); otherwise give up.
        g_u = y_u[_SYM]
        try:
            eigvals, eigvecs = np.linalg.eigh(g_u)
            g_dot_u = g_dot_of(y_u)
        except (ValueError, np.linalg.LinAlgError):
            return None
        v_min = eigvecs[:, 0]
        if eigvals[0] <= 0.0 or (eigvals[0] <= 0.1 and float(v_min @ g_dot_u @ v_min) < 0.0):
            kind = "degenerate"
        elif float(np.max(np.abs(g_u))) >= 1e6 and float(np.max(np.abs(g_dot_u))) > 0.0:
            kind = "blowup"
        else:
            return None
        return Event(kind, t_u, tuple(y_u.tolist()), "underflow")

    events = (
        ("degenerate", lambda t, y: float(np.min(np.linalg.eigvalsh(y[_SYM]))) - EPS_DEGENERATE, -1),
        ("blowup", lambda t, y: float(np.max(np.abs(y))) - M_BLOWUP, 1),
    )
    ts, ys, found, status = integrate_events(
        rhs, params.t_span, y0, events, params.rtol, params.atol, params.n_points, complete
    )
    return FlowTrajectory(
        algebra=alg,
        params=params,
        t=ts,
        g=ys.T[:, _SYM],
        f=c / np.sqrt(_det(ys)),
        events=found,
        status=status,
    )
