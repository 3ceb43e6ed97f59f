"""Scalar reductions of the conformal-family flow.

A homothety trajectory rescales a fixed metric, ``g(t) = sigma(t) g0``, and
carries torsion density ``f(t) = mu * sigma(t)**(-3/2)``.  The flow then
reduces to a scalar ODE

    sigma * sigma'(t) = F(sigma),

where ``F`` is a rational function of ``sigma`` whose numerator
``p(y) = y**4 * F(y)`` is a quintic polynomial in ``y``.  This module exposes
the right-hand-side families (normalized positive / flat / negative scalar
curvature, a general-``s`` entry point, and the special non-Einstein SU(2)
reduction), their static/critical parameter curves, the Lambert-W closed
forms, numerical integration with event detection, and the qualitative
classifier for long-time behavior.

Conventions: ``kappa >= 0`` is the curvature-squared coupling, ``mu`` the
torsion constant, ``y = sigma > 0`` the conformal factor.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad, solve_ivp

__all__ = [
    "BehaviorTag",
    "HomothetyProblem",
    "Behavior",
    "FlowEvent",
    "Trajectory",
    "ConsistencyReport",
    "reduction_coefficients",
    "su2_coefficients",
    "F_general",
    "F_p",
    "F_flat",
    "F_n",
    "F_su2",
    "problem_coefficients",
    "F_value",
    "kappa_crit_p",
    "kappa_crit_n",
    "MU_POLE_MINUS_SQ",
    "MU_POLE_PLUS_SQ",
    "mu_threshold_cubic",
    "MU_THRESHOLD_CUBIC_SQ",
    "kappa0",
    "lambert_w",
    "flat_closed_form",
    "flat_collapse_time",
    "su2_closed_form",
    "su2_collapse_time",
    "integrate",
    "classify",
    "classify_from_trajectory",
    "collapse_time_quadrature",
    "sweep_grid",
    "check_homothety_consistency",
]

# Event thresholds: far from every printed fixed point.
EPS_COLLAPSE = 1e-8
M_BLOWUP = 1e8

_CASES = ("positive", "flat", "negative", "su2", "general")
# Scalar curvature of the named cases; "general" takes it from the problem.
_CASE_S = {"positive": 1.0, "flat": 0.0, "negative": -1.0}


_OVERFLOW = "kappa and mu overflow the quintic coefficients"


def _overflow_guard(fn):
    """Raise ``ValueError(_OVERFLOW)`` where ``fn`` overflows a power of ``mu``.

    Python's float ``**`` raises ``OverflowError`` where ``*`` gives inf
    (``mu**2`` for ``|mu|`` above about 1.3e154); the powers keep their bits.
    """

    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError as exc:
            raise ValueError(_OVERFLOW) from exc

    return guarded


# ---------------------------------------------------------------------------
# Right-hand sides
# ---------------------------------------------------------------------------


@_overflow_guard
def reduction_coefficients(kappa: float, mu: float, s: float) -> np.ndarray:
    """Quintic coefficients (highest degree first) of ``p(y) = y**4 F(y)``.

    ``F(y) = (2 kappa s / 3 - 2)(s/3) y - kappa s^2/3 + mu^2 / y
    - kappa s mu^2 / y^2 - kappa mu^4 / (4 y^4)``.
    """
    return np.array(
        [
            (2.0 * kappa * s / 3.0 - 2.0) * (s / 3.0),
            -kappa * s**2 / 3.0,
            mu**2,
            -kappa * s * mu**2,
            0.0,
            -kappa * mu**4 / 4.0,
        ]
    )


def su2_coefficients(kappa: float) -> np.ndarray:
    """Quintic coefficients of the non-Einstein SU(2) reduction
    ``sigma sigma' = (4 sigma - 12)/kappa``."""
    if kappa <= 0:
        raise ValueError("the SU(2) reduction requires kappa > 0")
    return np.array([4.0 / kappa, -12.0 / kappa, 0.0, 0.0, 0.0, 0.0])


def _F_from_coefficients(coeffs: np.ndarray, y: float) -> float:
    y = float(y)
    if y <= 0.0:
        raise ValueError("the conformal factor must be positive")
    return float(np.polyval(coeffs, y)) / y**4


def F_general(kappa: float, mu: float, s: float, y: float) -> float:
    """Value of ``sigma sigma'`` at ``sigma = y`` for general scalar curvature."""
    return _F_from_coefficients(reduction_coefficients(kappa, mu, s), y)


def F_p(kappa: float, mu: float, y: float) -> float:
    """Positive case, ``s = +1``."""
    return F_general(kappa, mu, 1.0, y)


def F_flat(kappa: float, mu: float, y: float) -> float:
    """Flat case, ``s = 0``."""
    return F_general(kappa, mu, 0.0, y)


def F_n(kappa: float, mu: float, y: float) -> float:
    """Negative case, ``s = -1``."""
    return F_general(kappa, mu, -1.0, y)


def F_su2(kappa: float, y: float) -> float:
    """SU(2) reduction ``(4y - 12)/kappa``."""
    return _F_from_coefficients(su2_coefficients(kappa), y)


@dataclass(frozen=True)
class HomothetyProblem:
    """One scalar reduction: a case label, couplings, and the start value.

    ``s`` is only consulted for ``case == "general"``; the named cases fix it
    to +1, 0, -1, and the SU(2) case replaces the whole coefficient family.
    """

    case: str
    kappa: float
    mu: float = 0.0
    s: float = 0.0
    sigma0: float = 1.0

    def __post_init__(self) -> None:
        if self.case not in _CASES:
            raise ValueError(f"unknown case {self.case!r}; expected one of {_CASES}")
        if not (0.0 <= self.kappa < math.inf):
            raise ValueError("kappa must be a non-negative real")
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if not math.isfinite(self.s):
            raise ValueError("s must be finite")
        if not (0.0 < self.sigma0 < math.inf):
            raise ValueError("sigma0 must be positive and finite")
        if self.case == "su2" and self.kappa == 0.0:
            raise ValueError("the SU(2) reduction requires kappa > 0")


def problem_coefficients(problem: HomothetyProblem) -> np.ndarray:
    """Quintic coefficients of ``y**4 F`` for the problem's case.

    Raises ``ValueError`` when a coefficient overflows to infinity.
    """
    if problem.case == "su2":
        coeffs = su2_coefficients(problem.kappa)
    else:
        s = _CASE_S.get(problem.case, problem.s)
        coeffs = reduction_coefficients(problem.kappa, problem.mu, s)
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(_OVERFLOW)
    return coeffs


def F_value(problem: HomothetyProblem, y: float) -> float:
    """``sigma sigma'`` at ``sigma = y`` for the problem's case."""
    return _F_from_coefficients(problem_coefficients(problem), y)


# ---------------------------------------------------------------------------
# Critical parameter curves
# ---------------------------------------------------------------------------

# Poles of kappa_crit_n: zeros of 9 mu^2 (mu^2 - 4) + 4.
MU_POLE_MINUS_SQ = (2.0 / 3.0) * (3.0 - 2.0 * math.sqrt(2.0))
MU_POLE_PLUS_SQ = (2.0 / 3.0) * (3.0 + 2.0 * math.sqrt(2.0))


@_overflow_guard
def kappa_crit_p(mu: float) -> float:
    """Static curve of the positive case: ``(36 mu^2 - 24)/(9 mu^2 (mu^2+4) + 4)``.

    Non-negative exactly when ``mu^2 >= 2/3``; the denominator is positive for
    every real ``mu``.
    """
    m2 = mu**2
    return (36.0 * m2 - 24.0) / (9.0 * m2 * (m2 + 4.0) + 4.0)


@_overflow_guard
def kappa_crit_n(mu: float) -> float:
    """Static curve of the negative case: ``(36 mu^2 + 24)/(9 mu^2 (mu^2-4) + 4)``.

    The denominator vanishes at ``mu^2 = (2/3)(3 -+ 2 sqrt 2)``; between the
    poles the curve is negative and no static solution exists.
    """
    m2 = mu**2
    den = 9.0 * m2 * (m2 - 4.0) + 4.0
    if den == 0.0:
        raise ZeroDivisionError("mu sits exactly on a pole of kappa_crit_n")
    return (36.0 * m2 + 24.0) / den


def mu_threshold_cubic(tol: float = 1e-12) -> float:
    """Unique positive root of ``27 x^3 + 6 x^2 - 68 x - 8`` (``x = mu^2``).

    Bracketed in (1.5, 1.6) and bisected to ``tol``.
    """

    def q(x: float) -> float:
        return ((27.0 * x + 6.0) * x - 68.0) * x - 8.0

    lo, hi = 1.5, 1.6
    if not (q(lo) < 0.0 < q(hi)):
        raise RuntimeError("cubic bracket lost; coefficients corrupted")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if q(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ``mu^2`` at the cubic threshold, bisected once at import.
MU_THRESHOLD_CUBIC_SQ = mu_threshold_cubic()


def _f_p_split(mu: float) -> tuple:
    """``F_p = kappa*P + Q`` split used by the tangency search."""

    def P(y: float) -> float:
        return 2.0 * y / 9.0 - 1.0 / 3.0 - mu**2 / y**2 - mu**4 / (4.0 * y**4)

    def Q(y: float) -> float:
        return -2.0 * y / 3.0 + mu**2 / y

    def Pp(y: float) -> float:
        return 2.0 / 9.0 + 2.0 * mu**2 / y**3 + mu**4 / y**5

    def Qp(y: float) -> float:
        return -2.0 / 3.0 - mu**2 / y**2

    def Ppp(y: float) -> float:
        return -6.0 * mu**2 / y**4 - 5.0 * mu**4 / y**6

    def Qpp(y: float) -> float:
        return 2.0 * mu**2 / y**3

    return P, Q, Pp, Qp, Ppp, Qpp


@_overflow_guard
def kappa0(mu: float, tol: float = 1e-10) -> tuple:
    """Tangency parameters ``(kappa0, y0)`` of the positive case.

    Solves ``F_p(kappa, mu, y) = 0`` and ``dF_p/dy = 0`` with ``y0`` in (0,1):
    the rhs is linear in ``kappa``, so along ``kappa(y) = -Q(y)/P(y)`` the
    tangency is an interior critical point, located exactly as a root of the
    sextic obtained from ``Q'P - QP' = 0`` and then polished by a 2x2 Newton
    iteration.  Raises ``ValueError`` when no interior tangency with
    ``kappa0 > 0`` exists for this ``mu`` (``mu = 0`` or ``mu^2`` at or above
    the cubic threshold).
    """
    P, Q, Pp, Qp, Ppp, Qpp = _f_p_split(mu)
    # Critical points of kappa(y) = -Q/P: clearing denominators turns
    # Q'P - QP' = 0 into the sextic 8y^6 - 16m y^5 + 84m y^4 - 6m^2 y^2 - 27m^3
    # with m = mu^2, solved exactly instead of scanned on a grid (the tangency
    # ordinate approaches 1 as mu^2 nears the cubic threshold).
    m = mu**2
    sextic = np.array([8.0, -16.0 * m, 84.0 * m, 0.0, -6.0 * m**2, 0.0, -27.0 * m**3])
    best = None
    for r in np.roots(sextic):
        if abs(r.imag) > 1e-9 * max(1.0, abs(r.real)):
            continue
        y_c = float(r.real)
        if not (1e-12 < y_c < 1.0 - 1e-12):
            continue
        kap_c = -Q(y_c) / P(y_c) if P(y_c) != 0.0 else -np.inf
        if kap_c > 0.0 and (best is None or kap_c > best[0]):
            best = (kap_c, y_c)
    if best is None:
        raise ValueError(f"no interior tangency with kappa0 > 0 in (0,1) for mu = {mu}")
    kap, y = best
    for _ in range(100):
        f1 = kap * P(y) + Q(y)
        f2 = kap * Pp(y) + Qp(y)
        jac = np.array([[P(y), kap * Pp(y) + Qp(y)], [Pp(y), kap * Ppp(y) + Qpp(y)]])
        try:
            step = np.linalg.solve(jac, -np.array([f1, f2]))
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"tangency Newton iteration became singular for mu = {mu}") from exc
        kap += float(step[0])
        y += float(step[1])
        if max(abs(float(step[0])), abs(float(step[1]))) < 1e-14:
            break
    if not (0.0 < y < 1.0) or kap <= 0.0:
        raise ValueError(f"tangency Newton left the band (0,1) for mu = {mu}")
    if abs(kap * P(y) + Q(y)) > tol or abs(kap * Pp(y) + Qp(y)) > tol:
        raise ValueError(f"tangency residuals did not reach {tol} for mu = {mu}")
    return float(kap), float(y)


# ---------------------------------------------------------------------------
# Lambert W and closed forms
# ---------------------------------------------------------------------------

_INV_E = math.exp(-1.0)
# Branch-point series W = -1 + p - p^2/3 + 11 p^3/72 - 43 p^4/540 + 769 p^5/17280,
# p = +-sqrt(2 (e x + 1)).
_BRANCH_SERIES = (-1.0, 1.0, -1.0 / 3.0, 11.0 / 72.0, -43.0 / 540.0, 769.0 / 17280.0)


def _branch_series(p: float) -> float:
    acc = 0.0
    for c in reversed(_BRANCH_SERIES):
        acc = acc * p + c
    return acc


def lambert_w(x: float, branch: int = 0, tol: float = 1e-14, max_iter: int = 80) -> float:
    """Real Lambert W: the solution ``w`` of ``w * exp(w) = x``.

    ``branch=0`` is the principal branch on ``[-1/e, inf)``; ``branch=-1`` is
    the lower branch on ``[-1/e, 0)``.  Halley iteration from a series /
    logarithmic seed; residual relative error at most ``tol * (1 + |w|)``
    (the extra factor is the rounding floor of ``w * exp(w)`` in doubles).
    """
    x = float(x)
    if branch not in (0, -1):
        raise ValueError("branch must be 0 or -1")
    r = math.e * x + 1.0  # signed distance to the branch point
    if r < 0.0:
        if r > -1e-12:  # admit branch-point roundoff
            r = 0.0
        else:
            raise ValueError(f"lambert_w: x = {x} below the branch point -1/e")
    if branch == -1 and x >= 0.0:
        raise ValueError("branch -1 requires x < 0")
    if r == 0.0:
        return -1.0
    if x == 0.0:
        return 0.0

    sign = 1.0 if branch == 0 else -1.0
    p = sign * math.sqrt(2.0 * r)
    if abs(p) < 2e-3:
        return _branch_series(p)  # truncation ~p^6, below double rounding here

    if branch == 0:
        if x < math.e:
            w = _branch_series(p) if x < 0.0 else math.log1p(x)
        else:
            lx = math.log(x)
            w = lx - math.log(lx)
    else:
        ln = math.log(-x)
        w = _branch_series(p) if r < 0.18 else ln - math.log(-ln)

    for _ in range(max_iter):
        ew = math.exp(w)
        fw = w * ew - x
        if fw == 0.0:
            break
        denom = ew * (w + 1.0) - (w + 2.0) * fw / (2.0 * w + 2.0)
        step = fw / denom
        w -= step
        if abs(step) <= 1e-16 * (1.0 + abs(w)):
            break
    if abs(w * math.exp(w) - x) > tol * (1.0 + abs(w)) * max(abs(x), 1e-300):
        raise ArithmeticError(f"lambert_w failed to converge for x = {x}, branch {branch}")
    return w


def _w0_of_exp(log_x: float) -> float:
    """``W_0(exp(log_x))`` without overflow, for any real ``log_x``."""
    if log_x < 500.0:
        return lambert_w(math.exp(log_x), 0)
    w = log_x - math.log(log_x)
    for _ in range(60):  # Newton on w + log w = log_x
        step = (w + math.log(w) - log_x) / (1.0 + 1.0 / w)
        w -= step
        if abs(step) <= 1e-16 * w:
            break
    return w


@_overflow_guard
def flat_collapse_time(kappa: float, mu: float) -> float:
    """Future collapse time ``t_* = -kappa/12 (1 + b + log(-b))`` for ``b < 0``."""
    b = 4.0 / (kappa * mu**2) - 1.0
    if b >= 0.0:
        raise ValueError("the flat trajectory collapses only for b < 0 (kappa mu^2 > 4)")
    return -kappa / 12.0 * (1.0 + b + math.log(-b))


@_overflow_guard
def flat_closed_form(kappa: float, mu: float, t: float) -> float:
    """Exact flat-case trajectory through ``sigma(0) = 1``.

    ``sigma^3 = (kappa mu^2/4)(1 + W_0(b e^(12t/kappa + b)))`` with
    ``b = 4/(kappa mu^2) - 1``; degenerate parameters fall back to
    ``sigma = (1 + 3 t mu^2)^(1/3)`` (``kappa = 0``) and to the static
    solution (``mu = 0`` or ``b = 0``).  For ``b < 0`` the domain is
    ``t <= t_*``.
    """
    if mu == 0.0:
        return 1.0
    if kappa == 0.0:
        arg = 1.0 + 3.0 * t * mu**2
        if arg <= 0.0:
            raise ValueError("flat kappa=0 trajectory is defined for t > -1/(3 mu^2)")
        return arg ** (1.0 / 3.0)
    v_star = kappa * mu**2 / 4.0
    b = 1.0 / v_star - 1.0
    if b == 0.0:
        return 1.0
    if b > 0.0:
        w = _w0_of_exp(math.log(b) + 12.0 * t / kappa + b)
    else:
        try:
            arg = b * math.exp(12.0 * t / kappa + b)
        except OverflowError:  # an exponent this large lies far past t_*
            arg = -math.inf
        if arg < -_INV_E:
            if arg < -_INV_E - 1e-12:
                raise ValueError("t beyond the flat collapse time t_*")
            arg = -_INV_E
        w = lambert_w(arg, 0)
    return (v_star * (1.0 + w)) ** (1.0 / 3.0)


def su2_collapse_time(kappa: float) -> float:
    """``t_max = kappa/4 (log(27/8) - 1)``, where the SU(2) factor reaches zero."""
    if kappa <= 0:
        raise ValueError("the SU(2) reduction requires kappa > 0")
    return kappa / 4.0 * (math.log(27.0 / 8.0) - 1.0)


def su2_closed_form(kappa: float, t: float) -> float:
    """Exact SU(2) trajectory ``sigma = 3 + 3 W_0(-(2/3) exp((2/3)(2t/kappa - 1)))``.

    Defined for ``t <= t_max``; tends to 3 as ``t -> -inf`` and to 0 at
    ``t_max``.
    """
    if kappa <= 0:
        raise ValueError("the SU(2) reduction requires kappa > 0")
    arg = -(2.0 / 3.0) * math.exp((2.0 / 3.0) * (2.0 * t / kappa - 1.0))
    if arg < -_INV_E:
        if arg < -_INV_E - 1e-12:
            raise ValueError("t beyond the SU(2) collapse time t_max")
        arg = -_INV_E
    return 3.0 + 3.0 * lambert_w(arg, 0)


# ---------------------------------------------------------------------------
# Numerical integration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowEvent:
    kind: str  # "collapse" | "blowup" | "stall"
    t: float
    sigma: float


@dataclass(frozen=True)
class Trajectory:
    problem: HomothetyProblem
    t: np.ndarray
    sigma: np.ndarray
    events: tuple
    status: str
    error_estimate: float

    @property
    def f(self) -> np.ndarray:
        """Torsion density column ``f = mu sigma^(-3/2)``."""
        mu = 0.0 if self.problem.case == "su2" else self.problem.mu
        return mu * self.sigma ** (-1.5)


def _stall_eps(coeffs: np.ndarray) -> float:
    return 1e-9 * max(1.0, float(np.max(np.abs(coeffs))))


def integrate(
    problem: HomothetyProblem,
    t_span: tuple,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    n_points: int = 201,
    detect_stall: bool = True,
) -> Trajectory:
    """Integrate ``sigma' = F(sigma)/sigma`` over ``t_span`` (forward or backward).

    Terminal events: collapse (``sigma <= 1e-8``), blow-up (``sigma >= 1e8``),
    and optionally stall (``|F| <= eps`` while approaching an interior root,
    i.e. an asymptote).  The reported ``error_estimate`` is the heuristic
    ``100 (rtol |sigma_end| + atol)``; the closed-form oracles are the real
    accuracy guarantee.
    """
    coeffs = problem_coefficients(problem)
    eps_stall = _stall_eps(coeffs)

    def rhs(t, y):
        sig = max(y[0], 1e-9)  # keep trial steps past the collapse event finite
        return [_F_from_coefficients(coeffs, sig) / sig]

    def ev_collapse(t, y):
        return y[0] - EPS_COLLAPSE

    def ev_blowup(t, y):
        return y[0] - M_BLOWUP

    def ev_stall(t, y):
        return abs(_F_from_coefficients(coeffs, max(y[0], 1e-9))) - eps_stall

    ev_collapse.terminal = True
    ev_collapse.direction = -1
    ev_blowup.terminal = True
    ev_blowup.direction = 1
    ev_stall.terminal = True
    ev_stall.direction = -1  # only trigger while approaching a root
    events = [ev_collapse, ev_blowup] + ([ev_stall] if detect_stall else [])

    scale = max(1.0, float(np.max(np.abs(coeffs))))
    if abs(_F_from_coefficients(coeffs, problem.sigma0)) <= 1e-12 * scale:
        # static start: constant trajectory, no integration needed
        t = np.linspace(t_span[0], t_span[1], n_points)
        return Trajectory(
            problem=problem,
            t=t,
            sigma=np.full_like(t, problem.sigma0),
            events=(),
            status="static",
            error_estimate=0.0,
        )

    sol = solve_ivp(
        rhs,
        t_span,
        [problem.sigma0],
        method="RK45",
        rtol=rtol,
        atol=atol,
        dense_output=True,
        events=events,
        max_step=abs(t_span[1] - t_span[0]) / 16 or np.inf,
    )
    if sol.status == -1:
        # Step-size underflow.  Near a collapse driven by the quartic or
        # quintic coefficient the exact solution obeys
        # ``sigma ~ C (t_c - t)^(1/k)`` with k up to 6, so the sigma = 1e-8
        # event can sit closer to t_c than the spacing between adjacent
        # double-precision times; no explicit step can reach it.  When the
        # final state is unambiguously in terminal decay (sigma small and
        # shrinking along the integration direction, no root of F below it)
        # the event time is completed exactly by the quadrature
        # ``t_c = t_end + dir * int_0^sigma_end y/|F| dy``.  Any other
        # underflow is a genuine failure and is re-raised.
        t_u = float(sol.t[-1])
        sig_u = float(sol.y[0, -1])
        t_dir = 1.0 if t_span[1] >= t_span[0] else -1.0
        f_u = _F_from_coefficients(coeffs, max(sig_u, 1e-300))
        roots_below = [r for r in _positive_roots(coeffs) if r < sig_u]
        if sig_u <= 0.1 and f_u * t_dir < 0.0 and not roots_below:

            def integrand(y: float) -> float:
                return y / abs(_F_from_coefficients(coeffs, y))

            tail, _ = quad(integrand, 0.0, sig_u, limit=200, epsabs=1e-13, epsrel=1e-11)
            t_c = t_u + t_dir * tail
            ts = np.linspace(t_span[0], t_u, n_points)
            sigma = sol.sol(ts)[0]
            err = 100.0 * (rtol * abs(float(sigma[-1])) + atol)
            return Trajectory(
                problem=problem,
                t=ts,
                sigma=sigma,
                events=(FlowEvent(kind="collapse", t=t_c, sigma=sig_u),),
                status="event",
                error_estimate=err,
            )
        raise RuntimeError(f"integration step-size underflow: {sol.message}")

    t_end = sol.t[-1]
    ts = np.linspace(t_span[0], t_end, n_points)
    sigma = sol.sol(ts)[0]
    found = []
    kinds = ["collapse", "blowup"] + (["stall"] if detect_stall else [])
    for kind, t_ev, y_ev in zip(kinds, sol.t_events, sol.y_events):
        for te, ye in zip(t_ev, y_ev):
            found.append(FlowEvent(kind=kind, t=float(te), sigma=float(ye[0])))
    found.sort(key=lambda e: abs(e.t))
    err = 100.0 * (rtol * abs(float(sigma[-1])) + atol)
    return Trajectory(
        problem=problem,
        t=ts,
        sigma=sigma,
        events=tuple(found),
        status="event" if found else "completed",
        error_estimate=err,
    )


# ---------------------------------------------------------------------------
# Qualitative classification
# ---------------------------------------------------------------------------


class BehaviorTag(enum.Enum):
    STATIC = "Static"
    ETERNAL_REGULAR = "EternalRegular"
    ETERNAL_PAST_FINITE_FUTURE_DIVERGENT = "EternalPastFiniteFutureDivergent"
    ETERNAL_PAST_DIVERGENT_FUTURE_FINITE = "EternalPastDivergentFutureFinite"
    FINITE_TIME_COLLAPSE = "FiniteTimeCollapse"
    UNRESOLVED = "Unresolved"


@dataclass(frozen=True)
class Behavior:
    """Qualitative fate of one trajectory started at ``sigma0``.

    ``sigma_past`` / ``sigma_future`` hold the finite limits when the
    trajectory is eternal and bounded in that direction; ``collapse_time`` is
    signed (negative when the zero is reached going backward in time).
    """

    tag: BehaviorTag
    sigma_past: float | None = None
    sigma_future: float | None = None
    collapse_time: float | None = None
    collapse_direction: str | None = None
    roots: tuple = ()
    f_at_start: float = 0.0


def _positive_roots(coeffs: np.ndarray) -> tuple:
    if np.max(np.abs(coeffs)) == 0.0:
        return ()
    roots = np.roots(coeffs)
    out = []
    for r in roots:
        if abs(r.imag) <= 1e-9 * max(1.0, abs(r.real)) and r.real > 1e-12:
            out.append(float(r.real))
    return tuple(sorted(out))


def collapse_time_quadrature(problem: HomothetyProblem) -> float:
    """Signed time at which ``sigma`` reaches zero, ``+-int_0^sigma0 y/|F| dy``.

    Requires ``F`` to have no root in ``(0, sigma0)``; positive when the
    collapse lies in the future (``F < 0``), negative when in the past.
    """
    coeffs = problem_coefficients(problem)
    sgn = -1.0 if _F_from_coefficients(coeffs, problem.sigma0) > 0.0 else 1.0

    def integrand(y: float) -> float:
        return y / abs(_F_from_coefficients(coeffs, y))

    val, _ = quad(integrand, 0.0, problem.sigma0, limit=200, epsabs=1e-13, epsrel=1e-11)
    return sgn * val


def classify(case: str, kappa: float, mu: float, sigma0: float = 1.0) -> Behavior:
    """Root/sign analysis of ``F`` deciding the long-time behavior.

    The trajectory is monotone between consecutive roots of ``F``: it
    asymptotes to the nearest root in its direction of motion (eternal,
    finite limit), diverges linearly when no root blocks growth (eternal),
    and reaches zero in finite time when no root blocks decay.
    """
    problem = HomothetyProblem(case=case, kappa=kappa, mu=mu, sigma0=sigma0)
    coeffs = problem_coefficients(problem)
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    f0 = float(np.polyval(coeffs, sigma0)) / sigma0**4
    roots = _positive_roots(coeffs)

    if np.max(np.abs(coeffs)) == 0.0 or abs(f0) <= 1e-12 * scale:
        return Behavior(tag=BehaviorTag.STATIC, sigma_past=sigma0, sigma_future=sigma0, roots=roots, f_at_start=f0)

    if case == "positive" and kappa > max(0.0, kappa_crit_p(mu)):
        if abs(mu**2 - MU_THRESHOLD_CUBIC_SQ) <= 1e-9:
            # boundary of the cubic split: behavior not pinned down either way
            return Behavior(tag=BehaviorTag.UNRESOLVED, roots=roots, f_at_start=f0)

    below = [r for r in roots if r < sigma0]
    above = [r for r in roots if r > sigma0]

    if f0 > 0.0:
        future_limit = min(above) if above else None  # grows toward root or diverges
        past_limit = max(below) if below else None  # shrinks backward toward root or hits zero
        if past_limit is None:
            t_c = collapse_time_quadrature(problem)
            return Behavior(
                tag=BehaviorTag.FINITE_TIME_COLLAPSE,
                sigma_future=future_limit,
                collapse_time=t_c,
                collapse_direction="past",
                roots=roots,
                f_at_start=f0,
            )
        if future_limit is None:
            return Behavior(
                tag=BehaviorTag.ETERNAL_PAST_FINITE_FUTURE_DIVERGENT,
                sigma_past=past_limit,
                roots=roots,
                f_at_start=f0,
            )
        return Behavior(
            tag=BehaviorTag.ETERNAL_REGULAR,
            sigma_past=past_limit,
            sigma_future=future_limit,
            roots=roots,
            f_at_start=f0,
        )

    future_limit = max(below) if below else None  # shrinks toward root or hits zero
    past_limit = min(above) if above else None  # grows backward toward root or diverges
    if future_limit is None:
        t_c = collapse_time_quadrature(problem)
        return Behavior(
            tag=BehaviorTag.FINITE_TIME_COLLAPSE,
            sigma_past=past_limit,
            collapse_time=t_c,
            collapse_direction="future",
            roots=roots,
            f_at_start=f0,
        )
    if past_limit is None:
        return Behavior(
            tag=BehaviorTag.ETERNAL_PAST_DIVERGENT_FUTURE_FINITE,
            sigma_future=future_limit,
            roots=roots,
            f_at_start=f0,
        )
    return Behavior(
        tag=BehaviorTag.ETERNAL_REGULAR,
        sigma_past=past_limit,
        sigma_future=future_limit,
        roots=roots,
        f_at_start=f0,
    )


def classify_from_trajectory(
    case: str,
    kappa: float,
    mu: float,
    sigma0: float = 1.0,
    horizon: float = 200.0,
) -> Behavior:
    """Event-driven classification: integrate both time directions and read
    the tag off the terminal events.  Used to cross-check :func:`classify`."""
    problem = HomothetyProblem(case=case, kappa=kappa, mu=mu, sigma0=sigma0)
    coeffs = problem_coefficients(problem)
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    f0 = float(np.polyval(coeffs, sigma0)) / sigma0**4
    if np.max(np.abs(coeffs)) == 0.0 or abs(f0) <= 1e-12 * scale:
        return Behavior(tag=BehaviorTag.STATIC, sigma_past=sigma0, sigma_future=sigma0, f_at_start=f0)

    # Time scale: |sigma'| = |F|/sigma at the start sets the natural unit.
    unit = sigma0 / max(abs(f0) / sigma0, 1e-6)
    span = min(horizon * unit, 1e9)

    def leg(direction: float):
        tr = integrate(problem, (0.0, direction * span), rtol=1e-10, atol=1e-13)
        if tr.events:
            ev = tr.events[0]
            return ev.kind, ev
        return "open", None

    fwd_kind, fwd_ev = leg(+1.0)
    bwd_kind, bwd_ev = leg(-1.0)

    def limit_of(ev):
        return float(ev.sigma) if ev is not None else None

    if fwd_kind == "collapse":
        return Behavior(
            tag=BehaviorTag.FINITE_TIME_COLLAPSE,
            sigma_past=limit_of(bwd_ev) if bwd_kind == "stall" else None,
            collapse_time=fwd_ev.t,
            collapse_direction="future",
            f_at_start=f0,
        )
    if bwd_kind == "collapse":
        return Behavior(
            tag=BehaviorTag.FINITE_TIME_COLLAPSE,
            sigma_future=limit_of(fwd_ev) if fwd_kind == "stall" else None,
            collapse_time=bwd_ev.t,
            collapse_direction="past",
            f_at_start=f0,
        )
    if fwd_kind == "stall" and bwd_kind == "stall":
        return Behavior(
            tag=BehaviorTag.ETERNAL_REGULAR,
            sigma_past=limit_of(bwd_ev),
            sigma_future=limit_of(fwd_ev),
            f_at_start=f0,
        )
    if fwd_kind == "stall":
        return Behavior(
            tag=BehaviorTag.ETERNAL_PAST_DIVERGENT_FUTURE_FINITE,
            sigma_future=limit_of(fwd_ev),
            f_at_start=f0,
        )
    if bwd_kind == "stall":
        return Behavior(
            tag=BehaviorTag.ETERNAL_PAST_FINITE_FUTURE_DIVERGENT,
            sigma_past=limit_of(bwd_ev),
            f_at_start=f0,
        )
    raise RuntimeError("trajectory classification saw no terminal event in either direction")


def _check_grid(case: str, kappas: list, mus: list) -> None:
    """Raise the error :func:`classify` raises at the first invalid grid cell.

    A cell is valid when its ``kappa`` and its ``mu`` each pass
    :class:`HomothetyProblem`, so the first invalid cell in row-major order
    lies in row 0 when any cell of row 0 fails, and in column 0 otherwise.
    """
    if kappas and mus:
        for mu in mus:
            HomothetyProblem(case=case, kappa=kappas[0], mu=mu)
        for kappa in kappas:
            HomothetyProblem(case=case, kappa=kappa, mu=mus[0])


@_overflow_guard
def _grid_coefficients(case: str, kappas: list, mus: list) -> np.ndarray:
    """``(len(kappas), len(mus), 6)`` stack of :func:`problem_coefficients`.

    Every row equals the scalar coefficients bit for bit: the powers of
    ``mu`` are Python float powers taken once per axis value (numpy's ``**``
    rounds differently), and the products keep the operation order of
    :func:`reduction_coefficients`.
    """
    k = np.array(kappas, dtype=float)[:, None]
    out = np.zeros((len(kappas), len(mus), 6))
    if case == "su2":
        out[:, :, 0] = 4.0 / k
        out[:, :, 1] = -12.0 / k
        return out
    s = _CASE_S.get(case, 0.0)
    mu2 = np.array([m**2 for m in mus], dtype=float)
    mu4 = np.array([m**4 for m in mus], dtype=float)
    out[:, :, 0] = (2.0 * k * s / 3.0 - 2.0) * (s / 3.0)
    out[:, :, 1] = -k * s**2 / 3.0
    out[:, :, 2] = mu2
    out[:, :, 3] = -k * s * mu2
    out[:, :, 5] = -k * mu4 / 4.0
    return out


def _root_brackets(coeffs: np.ndarray) -> tuple:
    """Per row of an ``(N, 6)`` stack with no all-zero row: whether ``p`` has
    a root among :func:`_positive_roots` below 1, and one above 1.

    Rows are grouped by their leading and trailing zero coefficients, which
    :func:`np.roots` strips; each group's companion matrices, built as
    :func:`np.roots` builds them, go to one ``eigvals`` call.
    """
    below = np.zeros(len(coeffs), dtype=bool)
    above = np.zeros(len(coeffs), dtype=bool)
    nonzero = coeffs != 0.0
    first = np.argmax(nonzero, axis=1)
    last = coeffs.shape[1] - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    for lo, hi in set(zip(first.tolist(), last.tolist())):
        deg = hi - lo
        if deg == 0:
            continue
        rows = np.flatnonzero((first == lo) & (last == hi))
        p = coeffs[rows, lo : hi + 1]
        companion = np.zeros((len(rows), deg, deg))
        companion[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
        companion[:, 0, :] = -p[:, 1:] / p[:, :1]
        roots = np.linalg.eigvals(companion)
        re = roots.real
        positive = (np.abs(roots.imag) <= 1e-9 * np.maximum(1.0, np.abs(re))) & (re > 1e-12)
        below[rows] = np.any(positive & (re < 1.0), axis=1)
        above[rows] = np.any(positive & (re > 1.0), axis=1)
    return below, above


def sweep_grid(case: str, kappas, mus) -> np.ndarray:
    """Tag every point of a (kappa, mu) grid started at ``sigma0 = 1``.

    Returns a ``(len(kappas), len(mus))`` object array of :class:`BehaviorTag`
    equal, cell by cell, to ``classify(case, kappa, mu).tag``.  The whole grid
    is classified in one batched pass: the coefficients and ``F(1)`` are the
    scalar path's bit for bit, the roots come from stacked ``eigvals`` calls,
    and the rules of :func:`classify` apply as array masks.  Limits and
    collapse times are not computed; :func:`classify` gives them per point.
    An invalid cell raises the ``ValueError`` that :func:`classify` raises
    for the first one in row-major order; a grid whose coefficients
    overflow raises the one :func:`problem_coefficients` raises.
    """
    kappas = [float(k) for k in kappas]
    mus = [float(m) for m in mus]
    _check_grid(case, kappas, mus)
    with np.errstate(over="ignore"):
        coeffs = _grid_coefficients(case, kappas, mus).reshape(-1, 6)
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(_OVERFLOW)

    f0 = np.zeros(len(coeffs))
    for column in coeffs.T:  # np.polyval's Horner order at sigma0 = 1
        f0 = f0 * 1.0 + column
    scale = np.maximum(1.0, np.max(np.abs(coeffs), axis=1))
    static = np.abs(f0) <= 1e-12 * scale  # also every all-zero row
    unresolved = np.zeros_like(static)
    if case == "positive":
        over = np.array(kappas)[:, None] > np.array([max(0.0, kappa_crit_p(m)) for m in mus])
        near = np.array([abs(m**2 - MU_THRESHOLD_CUBIC_SQ) <= 1e-9 for m in mus], dtype=bool)
        unresolved = (over & near).ravel()

    below = np.zeros_like(static)
    above = np.zeros_like(static)
    todo = ~(static | unresolved)
    below[todo], above[todo] = _root_brackets(coeffs[todo])

    tags = np.select(
        [static, unresolved, ~below, ~above & (f0 > 0.0), ~above],
        [
            BehaviorTag.STATIC,
            BehaviorTag.UNRESOLVED,
            BehaviorTag.FINITE_TIME_COLLAPSE,
            BehaviorTag.ETERNAL_PAST_FINITE_FUTURE_DIVERGENT,
            BehaviorTag.ETERNAL_PAST_DIVERGENT_FUTURE_FINITE,
        ],
        default=BehaviorTag.ETERNAL_REGULAR,
    )
    return tags.reshape(len(kappas), len(mus))


# ---------------------------------------------------------------------------
# Consistency of the conformal ansatz on invariant geometries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of the conformal-ansatz eigenvalue relations on (alg, g).

    The reduction closes exactly when the principal Ricci values satisfy
    ``lambda_i^2 - lambda_j^2 = F_t (lambda_i - lambda_j)`` for a common
    ``F_t(sigma) = 1/kappa + s/sigma - mu^2/(2 sigma^3)``: always for Einstein
    metrics, and for non-Einstein ones only with ``s = mu = 0`` and a
    pair-independent ``lambda_i + lambda_j`` equal to ``1/kappa``.
    """

    passed: bool
    einstein: bool
    eigenvalues: tuple
    scalar: float
    pair_sums: tuple
    f_t_at_unit: float | None
    reduction: tuple | None  # quintic coefficients of y^4 F when consistent
    reason: str


def check_homothety_consistency(alg, g, kappa: float, mu: float, tol: float = 1e-9) -> ConsistencyReport:
    """Decide whether (alg, g) supports the conformal-family reduction."""
    import scipy.linalg

    from . import homogeneous as hg
    from . import tensor_core as tc

    g = np.asarray(g, dtype=float)
    gamma = hg.levi_civita_connection(alg, g)
    riem = hg.invariant_riemann(alg, g, gamma)
    ric = tc.ricci_from_riemann(g, riem)
    lam = np.sort(scipy.linalg.eigh(ric, g, eigvals_only=True))
    s = float(np.sum(lam))
    scale = max(1.0, float(np.max(np.abs(lam))))
    f_t = None if kappa == 0.0 else 1.0 / kappa + s - mu**2 / 2.0

    if float(lam[-1] - lam[0]) <= tol * scale:
        return ConsistencyReport(
            passed=True,
            einstein=True,
            eigenvalues=tuple(float(v) for v in lam),
            scalar=s,
            pair_sums=(),
            f_t_at_unit=f_t,
            reduction=tuple(reduction_coefficients(kappa, mu, s)),
            reason="Einstein metric: the reduction closes for every (kappa, mu)",
        )

    pair_sums = tuple(
        float(lam[i] + lam[j])
        for i in range(3)
        for j in range(i + 1, 3)
        if abs(lam[i] - lam[j]) > tol * scale
    )
    if abs(s) > tol * scale:
        reason = "non-Einstein with s != 0: eigenvalue relations are overdetermined"
        ok = False
    elif abs(mu) > tol:
        reason = "non-Einstein with mu != 0: torsion term breaks the relations"
        ok = False
    elif kappa == 0.0:
        reason = "non-Einstein with kappa = 0: no common F_t exists"
        ok = False
    elif max(pair_sums) - min(pair_sums) > tol * scale:
        reason = "distinct-pair eigenvalue sums disagree"
        ok = False
    elif abs(pair_sums[0] - 1.0 / kappa) > tol * max(scale, 1.0 / kappa):
        reason = "pair sums differ from 1/kappa: relations have no solution"
        ok = False
    else:
        ok = True
        reason = "non-Einstein reduction: s = mu = 0 with pair sums 1/kappa"

    reduction = None
    if ok:
        ric_norm2 = float(np.sum(lam**2))
        a_coef = 2.0 * kappa * float(lam[0]) ** 2 - 2.0 * float(lam[0])
        reduction = (a_coef, -2.0 * kappa * ric_norm2, 0.0, 0.0, 0.0, 0.0)
    return ConsistencyReport(
        passed=ok,
        einstein=False,
        eigenvalues=tuple(float(v) for v in lam),
        scalar=s,
        pair_sums=pair_sums,
        f_t_at_unit=f_t,
        reduction=reduction,
        reason=reason,
    )
