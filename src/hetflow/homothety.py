"""Scalar reductions of the conformal-family flow.

A homothety trajectory rescales a fixed metric, ``g(t) = sigma(t) g0``, and
carries torsion density ``f(t) = mu * sigma(t)**(-3/2)``.  The flow then
reduces to a scalar ODE

    sigma * sigma'(t) = F(sigma),

where ``F`` is a rational function of ``sigma`` whose numerator
``p(y) = y**4 * F(y)`` is a quintic polynomial in ``y``.  This module exposes
the right-hand-side families (normalized positive / flat / negative scalar
curvature, a general-``s`` case, and the special non-Einstein SU(2)
reduction), their static/critical parameter curves, the Lambert-W closed
forms, numerical integration with event detection, and the qualitative
classifier for long-time behavior.

One way leads into a reduction: :class:`HomothetyProblem` validates a case
and its couplings, :func:`problem_coefficients` gives its quintic (raising
``ValueError`` when ``kappa, mu`` overflow it) and :func:`F_value` evaluates
``F``.  Every entry point reads the same pieces: one coefficient builder
(:func:`_coefficients`, for a single point or a whole ``(kappa, mu)`` grid),
one positive-root helper (:func:`_positive_roots`, for a stack of
polynomials; it also gives the cubic threshold), one static rule
(:func:`_is_static`, ``|F(sigma0)| <= 1e-12 max(1, max|c|)``), and one fate
engine (:func:`_fates`), which tags a whole grid in one batched pass and
which :func:`sweep_grid` and :func:`classify` (a grid of one cell) share.

Conventions: ``kappa >= 0`` is the curvature-squared coupling, ``mu`` the
torsion constant, ``y = sigma > 0`` the conformal factor.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import het_flow as hf
from . import homogeneous as hg
from . import tensor_core as tc

__all__ = [
    "BehaviorTag",
    "HomothetyProblem",
    "Behavior",
    "Trajectory",
    "ConsistencyReport",
    "problem_coefficients",
    "F_value",
    "kappa_crit_p",
    "kappa_crit_n",
    "MU_POLE_MINUS_SQ",
    "MU_POLE_PLUS_SQ",
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


def _check_couplings(kappa: float, mu: float) -> None:
    if not (0.0 <= kappa < math.inf):
        raise ValueError("kappa must be a non-negative real")
    if not math.isfinite(mu):
        raise ValueError("mu must be finite")


# ---------------------------------------------------------------------------
# Right-hand sides
# ---------------------------------------------------------------------------


@_overflow_guard
def _coefficients(case: str, kappas, mus, s: float = 0.0) -> np.ndarray:
    """``(len(kappas), len(mus), 6)`` stack of the quintic coefficients
    (highest degree first) of ``p(y) = y**4 F(y)``.

    ``F(y) = (2 kappa s / 3 - 2)(s/3) y - kappa s^2/3 + mu^2 / y
    - kappa s mu^2 / y^2 - kappa mu^4 / (4 y^4)``, with ``s`` fixed by the
    named cases, and ``F(y) = (4 y - 12)/kappa`` for ``"su2"``.  The powers
    of ``mu`` are Python float powers (numpy's ``**`` rounds differently on a
    few percent of values), so a grid and a single point give the same bits;
    a product that overflows gives inf, without a ``RuntimeWarning``.
    """
    k = np.array(kappas, dtype=float)[:, None]
    out = np.zeros((len(kappas), len(mus), 6))
    with np.errstate(over="ignore", invalid="ignore"):
        if case == "su2":
            out[:, :, 0] = 4.0 / k
            out[:, :, 1] = -12.0 / k
            return out
        s = _CASE_S.get(case, s)
        mu2 = np.array([float(m) ** 2 for m in mus])
        mu4 = np.array([float(m) ** 4 for m in mus])
        out[:, :, 0] = (2.0 * k * s / 3.0 - 2.0) * (s / 3.0)
        out[:, :, 1] = -k * s**2 / 3.0
        out[:, :, 2] = mu2
        out[:, :, 3] = -k * s * mu2
        out[:, :, 5] = -k * mu4 / 4.0
    return out


def _check_su2_kappa(kappa: float) -> None:
    if not 0.0 < kappa < math.inf:
        raise ValueError("the SU(2) reduction requires kappa > 0")


def _F_in_powers_of_inverse(c, y):
    """``F(y)`` in powers of ``w = 1/y`` (one row or a stack's columns ``c``), finite where ``y**4`` is not."""
    w = 1.0 / y
    return c[0] * y + c[1] + w * (c[2] + w * (c[3] + w * (c[4] + w * c[5])))


def _F_from_coefficients(coeffs: np.ndarray, y: float) -> float:
    y = float(y)
    if not 0.0 < y < math.inf:
        raise ValueError(f"the conformal factor must be positive and finite, got {y!r}")
    # np.polyval's Horner steps on Python floats: the same bits, but an
    # overflow gives inf instead of a RuntimeWarning.
    p = 0.0
    for c in coeffs.tolist():
        p = p * y + c
    try:
        value = p / y**4
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value) and y > 1.0:
        value = _F_in_powers_of_inverse(coeffs.tolist(), y)
    if not math.isfinite(value):
        raise ValueError(f"F overflows at the conformal factor {y!r}")
    return value


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
        _check_couplings(self.kappa, self.mu)
        if not math.isfinite(self.s):
            raise ValueError("s must be finite")
        if not (0.0 < self.sigma0 < math.inf):
            raise ValueError("sigma0 must be positive and finite")
        if self.case == "su2":
            _check_su2_kappa(self.kappa)


def problem_coefficients(problem: HomothetyProblem) -> np.ndarray:
    """Quintic coefficients of ``y**4 F`` for the problem's case.

    Raises ``ValueError`` when a coefficient overflows to infinity.
    """
    coeffs = _coefficients(problem.case, [problem.kappa], [problem.mu], problem.s)[0, 0]
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(_OVERFLOW)
    return coeffs


def F_value(problem: HomothetyProblem, y: float) -> float:
    """``sigma sigma'`` at ``sigma = y`` for the problem's case."""
    return _F_from_coefficients(problem_coefficients(problem), y)


def _is_static(coeffs: np.ndarray, f0):
    """Whether ``F(sigma0) = f0`` vanishes to rounding, for one quintic
    ``(6,)`` or a stack ``(N, 6)``: ``|f0| <= 1e-12 max(1, max|c|)``."""
    return np.abs(f0) <= 1e-12 * np.maximum(1.0, np.max(np.abs(coeffs), axis=-1))


def _positive_roots(coeffs: np.ndarray) -> tuple:
    """Positive real roots of each row of an ``(N, w)`` stack of polynomials
    (highest degree first).

    Returns ``(mask, re)``, both ``(N, w - 1)``: ``re`` holds the real parts
    of each row's roots, and ``mask`` marks those whose imaginary part is at
    most ``1e-9 max(1, |re|)`` and whose real part is above 1e-12.  The roots
    are :func:`np.roots`' bit for bit: rows are grouped by their leading and
    trailing zero coefficients, which :func:`np.roots` strips, and each
    group's companion matrices, built as :func:`np.roots` builds them, go to
    one ``eigvals`` call.  An all-zero row has no roots.
    """
    n, w = coeffs.shape
    mask = np.zeros((n, w - 1), dtype=bool)
    re = np.zeros((n, w - 1))
    nonzero = coeffs != 0.0
    live = np.any(nonzero, axis=1)
    first = np.argmax(nonzero, axis=1)
    last = w - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    for lo, hi in set(zip(first[live].tolist(), last[live].tolist())):
        deg = hi - lo
        if deg == 0:
            continue
        rows = np.flatnonzero(live & (first == lo) & (last == hi))
        p = coeffs[rows, lo : hi + 1]
        companion = np.zeros((len(rows), deg, deg))
        companion[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
        companion[:, 0, :] = -p[:, 1:] / p[:, :1]
        roots = np.linalg.eigvals(companion)
        re[rows, :deg] = roots.real
        real = np.abs(roots.imag) <= 1e-9 * np.maximum(1.0, np.abs(roots.real))
        mask[rows, :deg] = real & (roots.real > 1e-12)
    return mask, re


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
    if not math.isfinite(mu):
        raise ValueError("mu must be finite")
    m2 = mu**2
    return (36.0 * m2 - 24.0) / (9.0 * m2 * (m2 + 4.0) + 4.0)


@_overflow_guard
def kappa_crit_n(mu: float) -> float:
    """Static curve of the negative case: ``(36 mu^2 + 24)/(9 mu^2 (mu^2-4) + 4)``.

    The denominator vanishes at ``mu^2 = (2/3)(3 -+ 2 sqrt 2)``; between the
    poles the curve is negative and no static solution exists.
    """
    if not math.isfinite(mu):
        raise ValueError("mu must be finite")
    m2 = mu**2
    den = 9.0 * m2 * (m2 - 4.0) + 4.0
    if den == 0.0:
        raise ValueError("mu sits exactly on a pole of kappa_crit_n")
    return (36.0 * m2 + 24.0) / den


# ``mu^2`` at the cubic threshold: the one positive root of
# ``27 x^3 + 6 x^2 - 68 x - 8``.
MU_THRESHOLD_CUBIC_SQ = float(np.extract(*_positive_roots(np.array([[27.0, 6.0, -68.0, -8.0]])))[0])

# Bound on the tangency residuals of kappa0, relative to y0**4.
_KAPPA0_TOL = 1e-10


def kappa0(mu: float) -> tuple:
    """Tangency parameters ``(kappa0, y0)`` of the positive case.

    Solves ``F = 0`` and ``dF/dy = 0`` of the positive case with ``y0`` in (0,1).
    The quintic is linear in ``kappa``, ``p = kappa a + b``, so along
    ``kappa(y) = -b(y)/a(y)`` the tangency is an interior critical point: a
    root of ``b'a - ba'``, found exactly instead of scanned on a grid (the
    tangency ordinate approaches 1 as ``mu^2`` nears the cubic threshold).
    Its residuals ``(p, p')`` must lie within ``_KAPPA0_TOL * y0**4``.  Raises
    ``ValueError`` when no interior tangency with ``kappa0 > 0`` exists for
    this ``mu`` (``mu = 0`` or ``mu^2`` at or above the cubic threshold).
    """
    if not math.isfinite(mu):
        raise ValueError("mu must be finite")
    b, p1 = _coefficients("positive", [0.0, 1.0], [mu])[:, 0]
    a = p1 - b
    da, db = np.polyder(a), np.polyder(b)
    with np.errstate(over="ignore", invalid="ignore"):
        # Two quintics' y^9 terms cancel identically; drop the rounding residue.
        crit = np.polysub(np.polymul(db, a), np.polymul(b, da))[1:]
    if not np.all(np.isfinite(crit)):
        raise ValueError(_OVERFLOW)
    mask, re = _positive_roots(crit[None])
    best = None
    for y_c in re[0][mask[0]].tolist():
        if not y_c < 1.0 - 1e-12:
            continue
        a_c = np.polyval(a, y_c)
        kap_c = -np.polyval(b, y_c) / a_c if a_c != 0.0 else -np.inf
        if kap_c > 0.0 and (best is None or kap_c > best[0]):
            best = (kap_c, y_c)
    if best is None:
        raise ValueError(f"no interior tangency with kappa0 > 0 in (0,1) for mu = {mu}")
    kap, y = best
    # Where p = 0, F = p / y^4 and F' = p' / y^4.
    p = kap * a + b
    if max(abs(np.polyval(p, y)), abs(np.polyval(np.polyder(p), y))) > _KAPPA0_TOL * y**4:
        raise ValueError(f"tangency residuals did not reach {_KAPPA0_TOL} for mu = {mu}")
    return float(kap), float(y)


# ---------------------------------------------------------------------------
# Lambert W and closed forms
# ---------------------------------------------------------------------------

# How far past the branch point -1/e, relative to 1/e, an argument of
# lambert_w may lie and still count as the branch point: the closed forms'
# arguments reach it at a collapse time, which the integrator resolves only to
# its rtol.
_BRANCH_SLACK = 1e-9
# Halley's residual bound and iteration cap in lambert_w.
_LAMBERT_TOL = 1e-14
_LAMBERT_MAX_ITER = 80
# Branch-point series W = -1 + p - p^2/3 + 11 p^3/72 - 43 p^4/540 + 769 p^5/17280,
# p = sqrt(2 (e x + 1)).
_BRANCH_SERIES = (-1.0, 1.0, -1.0 / 3.0, 11.0 / 72.0, -43.0 / 540.0, 769.0 / 17280.0)


def _branch_series(p: float) -> float:
    acc = 0.0
    for c in reversed(_BRANCH_SERIES):
        acc = acc * p + c
    return acc


def lambert_w(x: float) -> float:
    """Principal real Lambert W: the solution ``w >= -1`` of ``w * exp(w) = x``.

    Defined on ``[-1/e, inf)``; an ``x`` at most ``_BRANCH_SLACK / e`` below
    ``-1/e`` gives ``-1``.  Halley iteration from a series / logarithmic
    seed; residual relative error at most ``_LAMBERT_TOL * (1 + |w|)`` (the
    extra factor is the rounding floor of ``w * exp(w)`` in doubles).
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"lambert_w: x must be finite, got {x!r}")
    r = math.e * x + 1.0  # signed distance to the branch point, relative to 1/e
    if r < -_BRANCH_SLACK:
        raise ValueError(f"lambert_w: x = {x} below the branch point -1/e")
    r = max(r, 0.0)
    if r == 0.0:
        return -1.0
    if x == 0.0:
        return 0.0

    p = math.sqrt(2.0 * r)
    if p < 2e-3:
        return _branch_series(p)  # truncation ~p^6, below double rounding here

    if x < math.e:
        w = _branch_series(p) if x < 0.0 else math.log1p(x)
    else:
        lx = math.log(x)
        w = lx - math.log(lx)

    for _ in range(_LAMBERT_MAX_ITER):
        ew = math.exp(w)
        fw = w * ew - x
        if fw == 0.0:
            break
        denom = ew * (w + 1.0) - (w + 2.0) * fw / (2.0 * w + 2.0)
        step = fw / denom
        w -= step
        if abs(step) <= 1e-16 * (1.0 + abs(w)):
            break
    if abs(w * math.exp(w) - x) > _LAMBERT_TOL * (1.0 + abs(w)) * max(abs(x), 1e-300):
        raise ArithmeticError(f"lambert_w failed to converge for x = {x}")
    return w


def _w0_of_exp(log_x: float) -> float:
    """``W_0(exp(log_x))`` without overflow, for any real ``log_x``."""
    if log_x < 500.0:
        return lambert_w(math.exp(log_x))
    w = log_x - math.log(log_x)
    for _ in range(60):  # Newton on w + log w = log_x
        step = (w + math.log(w) - log_x) / (1.0 + 1.0 / w)
        w -= step
        if abs(step) <= 1e-16 * w:
            break
    return w


def _check_time(t: float) -> None:
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")


@_overflow_guard
def flat_collapse_time(kappa: float, mu: float) -> float:
    """Future collapse time ``t_* = -kappa/12 (1 + b + log(-b))`` for ``b < 0``."""
    _check_couplings(kappa, mu)
    kmu2 = kappa * mu**2
    b = 4.0 / kmu2 - 1.0 if kmu2 > 0.0 else math.inf
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
    _check_couplings(kappa, mu)
    _check_time(t)
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
            w = lambert_w(b * math.exp(12.0 * t / kappa + b))
        except (ValueError, OverflowError) as exc:  # the argument lies past -1/e
            raise ValueError("t beyond the flat collapse time t_*") from exc
    return (v_star * (1.0 + w)) ** (1.0 / 3.0)


def su2_collapse_time(kappa: float) -> float:
    """``t_max = kappa/4 (log(27/8) - 1)``, where the SU(2) factor reaches zero."""
    _check_su2_kappa(kappa)
    return kappa / 4.0 * (math.log(27.0 / 8.0) - 1.0)


def su2_closed_form(kappa: float, t: float) -> float:
    """Exact SU(2) trajectory ``sigma = 3 + 3 W_0(-(2/3) exp((2/3)(2t/kappa - 1)))``.

    Defined for ``t <= t_max``; tends to 3 as ``t -> -inf`` and to 0 at
    ``t_max``.
    """
    _check_su2_kappa(kappa)
    _check_time(t)
    try:
        w = lambert_w(-(2.0 / 3.0) * math.exp((2.0 / 3.0) * (2.0 * t / kappa - 1.0)))
    except (ValueError, OverflowError) as exc:  # the argument lies past -1/e
        raise ValueError("t beyond the SU(2) collapse time t_max") from exc
    return 3.0 + 3.0 * w


# ---------------------------------------------------------------------------
# Numerical integration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """Sampled ``sigma(t)``; ``events`` holds :class:`hetflow.het_flow.Event` records
    whose state ``y`` is ``(sigma,)``."""

    problem: HomothetyProblem
    t: np.ndarray
    sigma: np.ndarray
    events: tuple
    status: str

    @property
    def f(self) -> np.ndarray:
        """Torsion density column ``f = mu sigma^(-3/2)``."""
        mu = 0.0 if self.problem.case == "su2" else self.problem.mu
        return mu * self.sigma ** (-1.5)


def integrate(
    problem: HomothetyProblem,
    t_span: tuple,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    n_points: int = 201,
) -> Trajectory:
    """Integrate ``sigma' = F(sigma)/sigma`` over ``t_span`` (forward or backward).

    Terminal events: collapse (``sigma <= 1e-8``), blow-up (``sigma >= 1e8``),
    and stall (``|F| <= eps`` while approaching an interior root, i.e. an
    asymptote).  :func:`hetflow.het_flow.integrate_events` locates each as a
    threshold crossing, however steep the approach, and the last sample of a
    run that ends in an event is the event's state.
    """
    coeffs = problem_coefficients(problem)
    if _is_static(coeffs, _F_from_coefficients(coeffs, problem.sigma0)):
        # static start: constant trajectory, no integration needed
        hf.validate_solver_args(t_span, rtol, atol, n_points)
        t = np.linspace(t_span[0], t_span[1], n_points)
        return Trajectory(problem=problem, t=t, sigma=np.full_like(t, problem.sigma0), events=(), status="static")

    eps_stall = 1e-9 * max(1.0, float(np.max(np.abs(coeffs))))

    def rhs(t, y):
        sig = max(y[0], 1e-9)  # keep trial steps past the collapse event finite
        return [_F_from_coefficients(coeffs, sig) / sig]

    events = (
        ("collapse", lambda t, y: y[0] - EPS_COLLAPSE, -1),
        ("blowup", lambda t, y: y[0] - M_BLOWUP, 1),
        # only trigger while approaching a root
        ("stall", lambda t, y: abs(_F_from_coefficients(coeffs, max(y[0], 1e-9))) - eps_stall, -1),
    )
    t, y, found, status = hf.integrate_events(rhs, t_span, [problem.sigma0], events, rtol, atol, n_points)
    return Trajectory(problem=problem, t=t, sigma=y[0], events=found, status=status)


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


def collapse_time_quadrature(problem: HomothetyProblem) -> float:
    """Signed time at which ``sigma`` reaches zero, ``+-int_0^sigma0 y/|F| dy``.

    Positive when the collapse lies in the future (``F < 0``), negative when
    in the past.  Raises ``ValueError`` unless ``F`` has no root in
    ``(0, sigma0]``: a static start or a root below it means no collapse.
    """
    coeffs = problem_coefficients(problem)
    f0 = _F_from_coefficients(coeffs, problem.sigma0)
    mask, re = _positive_roots(coeffs[None])
    if _is_static(coeffs, f0) or np.any(mask & (re < problem.sigma0)):
        raise ValueError("F has a root in (0, sigma0]: the trajectory does not reach zero")
    sgn = -1.0 if f0 > 0.0 else 1.0

    def integrand(y: float) -> float:
        return y / abs(_F_from_coefficients(coeffs, y))

    val, _ = quad(integrand, 0.0, problem.sigma0, limit=200, epsabs=1e-13, epsrel=1e-11)
    return sgn * val


def _fates(case: str, kappas, mus, sigma0: float) -> tuple:
    """The fate rule at every cell of a ``(kappa, mu)`` grid started at ``sigma0``.

    Returns, in row-major cell order, the tags, ``F(sigma0)`` (the bits of
    :func:`_F_from_coefficients`) and :func:`_positive_roots`' ``(mask, re)``.
    ``sigma`` is monotone between consecutive roots of ``F``: with no root
    below ``sigma0`` it reaches zero in finite time, with none above it
    diverges, and between two it is eternal and regular.  Overflow raises
    the errors of :func:`problem_coefficients` and :func:`F_value`.
    """
    coeffs = _coefficients(case, kappas, mus).reshape(-1, 6)
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(_OVERFLOW)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        p = np.zeros(len(coeffs))
        for column in coeffs.T:  # _F_from_coefficients' Horner order
            p = p * sigma0 + column
        try:
            f0 = p / sigma0**4
        except OverflowError:
            f0 = np.full(len(p), math.inf)
        large = ~np.isfinite(f0) & (sigma0 > 1.0)
        f0[large] = _F_in_powers_of_inverse(coeffs[large].T, sigma0)
    if not np.all(np.isfinite(f0)):
        raise ValueError(f"F overflows at the conformal factor {sigma0!r}")

    static = _is_static(coeffs, f0)
    unresolved = np.zeros_like(static)
    if case == "positive":  # above the static curve, the cubic threshold leaves the fate open
        over = np.array(kappas)[:, None] > np.array([max(0.0, kappa_crit_p(m)) for m in mus])
        near = np.array([abs(m**2 - MU_THRESHOLD_CUBIC_SQ) <= 1e-9 for m in mus], dtype=bool)
        unresolved = (over & near).ravel()
    mask, re = _positive_roots(coeffs)
    below = np.any(mask & (re < sigma0), axis=1)
    above = np.any(mask & (re > sigma0), axis=1)
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
    return tags, f0, mask, re


def classify(case: str, kappa: float, mu: float, sigma0: float = 1.0) -> Behavior:
    """Root/sign analysis of ``F`` deciding the long-time behavior.

    The tag is :func:`_fates`' at the one cell ``(kappa, mu)``.  The
    trajectory asymptotes to the nearest root of ``F`` in each direction of
    motion; those roots are the finite limits, and a collapsing start gets
    its signed collapse time from :func:`collapse_time_quadrature`.
    """
    problem = HomothetyProblem(case=case, kappa=kappa, mu=mu, sigma0=sigma0)
    tags, f0, mask, re = _fates(case, [kappa], [mu], float(sigma0))
    tag, f0 = tags[0], float(f0[0])
    roots = tuple(sorted(re[0][mask[0]].tolist()))
    if tag is BehaviorTag.STATIC:
        return Behavior(tag=tag, sigma_past=sigma0, sigma_future=sigma0, roots=roots, f_at_start=f0)
    if tag is BehaviorTag.UNRESOLVED:
        return Behavior(tag=tag, roots=roots, f_at_start=f0)

    below = max((r for r in roots if r < sigma0), default=None)
    above = min((r for r in roots if r > sigma0), default=None)
    # F > 0: sigma grows toward the root above and, backward in time, shrinks
    # toward the root below; F < 0 mirrors it.
    rising = f0 > 0.0
    past, future = (below, above) if rising else (above, below)
    t_c = direction = None
    if tag is BehaviorTag.FINITE_TIME_COLLAPSE:
        t_c = collapse_time_quadrature(problem)
        direction = "past" if rising else "future"
    return Behavior(
        tag=tag,
        sigma_past=past,
        sigma_future=future,
        collapse_time=t_c,
        collapse_direction=direction,
        roots=roots,
        f_at_start=f0,
    )


def classify_from_trajectory(
    case: str,
    kappa: float,
    mu: float,
    sigma0: float = 1.0,
) -> Behavior:
    """Event-driven classification: integrate both time directions and read
    the tag off the terminal events.  Used to cross-check :func:`classify`."""
    problem = HomothetyProblem(case=case, kappa=kappa, mu=mu, sigma0=sigma0)
    coeffs = problem_coefficients(problem)
    f0 = _F_from_coefficients(coeffs, sigma0)
    if _is_static(coeffs, f0):
        return Behavior(tag=BehaviorTag.STATIC, sigma_past=sigma0, sigma_future=sigma0, f_at_start=f0)

    def leg(direction: float):
        # A leg that meets no threshold by |t| = 1e9 is open: it relaxes onto
        # no root and grows too slowly to reach the blow-up threshold.
        tr = integrate(problem, (0.0, direction * 1e9), rtol=1e-10, atol=1e-13)
        return (tr.events[0].kind, tr.events[0]) if tr.events else ("open", None)

    fwd_kind, fwd_ev = leg(+1.0)
    bwd_kind, bwd_ev = leg(-1.0)
    past = bwd_ev.y[0] if bwd_kind == "stall" else None
    future = fwd_ev.y[0] if fwd_kind == "stall" else None
    t_c = direction = None
    if fwd_kind == "collapse":
        tag, t_c, direction = BehaviorTag.FINITE_TIME_COLLAPSE, fwd_ev.t, "future"
    elif bwd_kind == "collapse":
        tag, t_c, direction = BehaviorTag.FINITE_TIME_COLLAPSE, bwd_ev.t, "past"
    elif past is not None and future is not None:
        tag = BehaviorTag.ETERNAL_REGULAR
    elif future is not None:
        tag = BehaviorTag.ETERNAL_PAST_DIVERGENT_FUTURE_FINITE
    elif past is not None:
        tag = BehaviorTag.ETERNAL_PAST_FINITE_FUTURE_DIVERGENT
    else:
        raise RuntimeError("trajectory classification saw no terminal event in either direction")
    return Behavior(
        tag=tag,
        sigma_past=past,
        sigma_future=future,
        collapse_time=t_c,
        collapse_direction=direction,
        f_at_start=f0,
    )


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


def sweep_grid(case: str, kappas, mus) -> np.ndarray:
    """Tag every point of a (kappa, mu) grid started at ``sigma0 = 1``.

    Returns a ``(len(kappas), len(mus))`` object array of :class:`BehaviorTag`,
    :func:`_fates`' tags and so ``classify(case, kappa, mu).tag`` cell by
    cell; limits and collapse times are left to :func:`classify`.  An invalid
    cell raises the ``ValueError`` that :func:`classify` raises for the first
    one in row-major order.
    """
    kappas = [float(k) for k in kappas]
    mus = [float(m) for m in mus]
    _check_grid(case, kappas, mus)
    tags, _, _, _ = _fates(case, kappas, mus, 1.0)
    return tags.reshape(len(kappas), len(mus))


# ---------------------------------------------------------------------------
# Consistency of the conformal ansatz on invariant geometries
# ---------------------------------------------------------------------------


# Relative tolerance of check_homothety_consistency's eigenvalue relations.
_CONSISTENCY_TOL = 1e-9


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


@_overflow_guard
def check_homothety_consistency(alg, g, kappa: float, mu: float) -> ConsistencyReport:
    """Decide whether (alg, g) supports the conformal-family reduction."""
    _check_couplings(kappa, mu)
    g = np.asarray(g, dtype=float)
    tc.validate_metric(g)
    _, _, _, ric, _ = hg.invariant_curvature(alg, g)
    lam, _ = tc.principal_values(g, ric)
    s = float(np.sum(lam))
    scale = max(1.0, float(np.max(np.abs(lam))))
    f_t = None if kappa == 0.0 else 1.0 / kappa + s - mu**2 / 2.0

    if float(lam[-1] - lam[0]) <= _CONSISTENCY_TOL * scale:
        return ConsistencyReport(
            passed=True,
            einstein=True,
            eigenvalues=tuple(float(v) for v in lam),
            scalar=s,
            pair_sums=(),
            f_t_at_unit=f_t,
            reduction=tuple(problem_coefficients(HomothetyProblem("general", kappa, mu, s))),
            reason="Einstein metric: the reduction closes for every (kappa, mu)",
        )

    pair_sums = tuple(
        float(lam[i] + lam[j])
        for i in range(3)
        for j in range(i + 1, 3)
        if abs(lam[i] - lam[j]) > _CONSISTENCY_TOL * scale
    )
    if abs(s) > _CONSISTENCY_TOL * scale:
        reason = "non-Einstein with s != 0: eigenvalue relations are overdetermined"
        ok = False
    elif abs(mu) > _CONSISTENCY_TOL:
        reason = "non-Einstein with mu != 0: torsion term breaks the relations"
        ok = False
    elif kappa == 0.0:
        reason = "non-Einstein with kappa = 0: no common F_t exists"
        ok = False
    elif max(pair_sums) - min(pair_sums) > _CONSISTENCY_TOL * scale:
        reason = "distinct-pair eigenvalue sums disagree"
        ok = False
    elif abs(pair_sums[0] - 1.0 / kappa) > _CONSISTENCY_TOL * max(scale, 1.0 / kappa):
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
