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
one static rule (:func:`_is_static`, ``|F(sigma0)| <= 1e-12 sum_k |c_k|
sigma0^(1-k)``), one curve per ``mu`` (:func:`_kappa_curve`: every non-SU(2)
quintic is linear in ``kappa``, ``p = A + kappa B``, and ``K = -A/B`` is
monotone between the positive roots of ``B`` and of ``W = A'B - AB'``), and
one root rule (:func:`_fates`), which tags a whole grid from the sign of
``p`` at each column's roots of ``B`` and ``W``.  :func:`sweep_grid` reads
its tags; :func:`classify` and :func:`collapse_time_quadrature` read one
cell's tag and the roots of ``F`` between its knots (:func:`_fate_and_roots`).

Conventions: ``kappa >= 0`` is the curvature-squared coupling, ``mu`` the
torsion constant, ``y = sigma > 0`` the conformal factor.

The ansatz is ``g = sigma g0``, ``f = mu sigma^(-3/2)``, with ``g0`` at unit
scale.  The coefficients are written here, not derived from
:func:`hetflow.het_flow.rhs_3d`, and two of them disagree with it; which
reduction is the paper's is not settled (ROADMAP item 3):

* the quintics with ``s != 0`` (``positive``, ``negative``, ``general``).  On
  an Einstein ``g0``, ``Ric(g0) = (s/3) g0``, the 3D law gives
  ``F = -(2s/3) y - kappa s^2/9 + mu^2/y + kappa s mu^2/(3 y^2)
  - kappa mu^4/(4 y^4)``, and :func:`_coefficients` differs in each of its
  three ``kappa s`` terms.  They agree at ``kappa = 0`` and for ``flat``.
* ``su2``: ``F(y) = (4y - 12)/kappa`` is ``sigma sigma'`` of ``rhs_3d`` for
  ``g = sigma I`` on ``catalog("su2", kappa)`` at ``f = 0`` only at
  ``sigma = 1``.  Elsewhere ``g'`` is not a multiple of ``I``: at
  ``kappa = 1.9`` and ``sigma = 0.5`` it is ``diag(-9.47, -9.47, -6.32)``,
  and at ``sigma = 2`` ``sigma g'_11`` is -3.158 against ``F(2)`` = -2.105.

``tests/test_symbolic.py`` derives the law's reduction and pins both.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import het_flow as hf

__all__ = [
    "BehaviorTag",
    "HomothetyProblem",
    "Behavior",
    "Trajectory",
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
]

# Event thresholds: far from every printed fixed point.
EPS_COLLAPSE = 1e-8
M_BLOWUP = 1e8

_CASES = ("positive", "flat", "negative", "su2", "general")
# Scalar curvature of the named cases; "general" takes it from the problem.
_CASE_S = {"positive": 1.0, "flat": 0.0, "negative": -1.0}


_OVERFLOW = "kappa and mu overflow the quintic coefficients"
_TIME_OVERFLOW = "the collapse time overflows a double"
_ROOT_BELOW = "F has a root in (0, sigma0]: the trajectory does not reach zero"
# The positive doubles, which bound every root the fate rule can report, and
# the smallest whose reciprocal is finite.
_TINIEST, _LARGEST, _SMALLEST_NORMAL = math.ulp(0.0), sys.float_info.max, sys.float_info.min


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


def _F_from_coefficients(coeffs, y: float) -> float:
    """``F(y)`` from the quintic coefficients of ``y**4 F``: a list of Python
    floats, or an array, which each call converts (a solver's rhs gets the list)."""
    y = float(y)
    if not 0.0 < y < math.inf:
        raise ValueError(f"the conformal factor must be positive and finite, got {y!r}")
    if not isinstance(coeffs, list):
        coeffs = coeffs.tolist()
    # np.polyval's Horner steps on Python floats: the same bits, but an
    # overflow gives inf instead of a RuntimeWarning.
    p = 0.0
    for c in coeffs:
        p = p * y + c
    try:
        value = p / y**4
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value) and y > 1.0:
        value = _F_in_powers_of_inverse(coeffs, y)
    if not math.isfinite(value):
        raise ValueError(f"F overflows at the conformal factor {y!r}")
    return value


def _F_function(coeffs: list):
    """``F`` of the six quintic coefficients ``coeffs`` (Python floats), for a
    solver's rhs: :func:`_F_from_coefficients` bit for bit, in its Horner order.

    On ``1e-9 <= y < 1e60`` (the solver clamps ``y`` at ``1e-9``) ``y**4``
    is a positive double, so the value is returned where it is finite;
    anywhere else, a NaN ``y`` included, :func:`_F_from_coefficients` decides,
    with its errors.  The last such value is kept with its ``y``: the
    solver's stall event asks for ``F`` at each step's end, where its last
    stage has just evaluated it.
    """
    c0, c1, c2, c3, c4, c5 = coeffs
    lead = 0.0 + c0  # Horner's first step: 0.0 * y is +0.0 at a positive y
    inf = math.inf
    last_y = last_value = math.nan  # NaN equals no y

    def F(y: float) -> float:
        nonlocal last_y, last_value
        if y == last_y:
            return last_value
        if 1e-9 <= y < 1e60:
            value = (((((lead * y + c1) * y + c2) * y + c3) * y + c4) * y + c5) / y**4
            if -inf < value < inf:
                last_y, last_value = y, value
                return value
        return _F_from_coefficients(coeffs, y)

    return F


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


def _is_static(coeffs: np.ndarray, f0, sigma0: float):
    """Whether ``F(sigma0) = f0`` vanishes to rounding, for one quintic
    ``(6,)`` or a stack ``(N, 6)``: ``|f0| <= 1e-12 sum_k |c_k| sigma0^(1-k)``.

    The bound is the size of ``F``'s own terms at ``sigma0``, which is also
    the scale of the rounding in its evaluation, so the rule is covariant
    under ``sigma -> l sigma``, ``c_k -> c_k l^(k-1)``.  It is summed in
    powers of ``1/sigma0``, as :func:`_F_in_powers_of_inverse` sums ``F``,
    with the 1e-12 applied first: two terms of a finite ``F`` can cancel
    above the largest double.
    """
    return np.abs(f0) <= _F_in_powers_of_inverse(1e-12 * np.abs(coeffs).T, sigma0)


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


def _rescaled(mant: np.ndarray, ex: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Rows of ``c(2^shift z)`` for the polynomials ``c = mant 2^ex``
    (highest degree first), each multiplied by the power of two that puts
    its largest coefficient in ``[0.5, 1)``.

    Exact but for underflow: the exponents are summed before any product is
    formed, so no row over- or underflows on the way.
    """
    mant, e = np.frexp(mant)
    ex = e + ex + shift[:, None] * np.arange(mant.shape[1] - 1, -1, -1)
    top = np.max(np.where(mant != 0.0, ex, -(2**40)), axis=1, keepdims=True)
    return np.ldexp(mant, ex - top)


def _wronskian(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows of ``a'b - ab'`` for two ``(N, 6)`` stacks of quintics (highest
    degree first), ``(N, 9)``: the two ``y^9`` terms cancel identically, so
    their rounding residue is dropped."""
    powers = np.arange(5, 0, -1)
    da, db = a[:, :-1] * powers, b[:, :-1] * powers
    w = np.zeros((len(a), 10))
    for i in range(5):
        w[:, i : i + 6] += da[:, i : i + 1] * b - db[:, i : i + 1] * a
    return w[:, 1:]


def _kappa_curve(case: str, mus, s: float = 0.0) -> tuple:
    """A non-SU(2) quintic as a pencil in ``kappa``, and where its curve turns.

    ``p = A + kappa B`` with ``A = [-2s/3, 0, mu^2, 0, 0, 0]`` and ``B =
    [2s^2/9, -s^2/3, 0, -s mu^2, 0, -mu^4/4]`` (``s`` fixed by the named
    cases), so ``y > 0`` is a root exactly where ``kappa = K(y) =
    -A(y)/B(y)``.  ``K`` is monotone between consecutive positive roots of
    ``B`` (its poles) and of ``W = A'B - AB'`` (its turning points, degree
    8), so on each piece between them ``p`` has at most one root.

    Returns ``(A, B, poles, turns)``: the ``(len(mus), 6)`` stacks ``A`` and
    ``B`` (inf where they overflow) and the ``(len(mus), 10)`` and
    ``(len(mus), 16)`` positive roots of ``B`` and ``W``, NaN in the other
    slots.  Each stack goes to one :func:`_positive_roots` call in ``z = y /
    2^e``, each row twice: the roots lie near ``|mu|`` and (for ``B``) 1 when
    ``mu^2 <= 1``, near ``|mu|^(4/5)`` and (for ``W``) ``2 mu^2 / s`` above
    it, and each ``2^e`` follows one cluster.  The powers of ``mu`` enter as
    mantissa and exponent, so no row over- or underflows before it is
    scaled (``W``'s ``mu^6`` term alone overflows from ``|mu|`` near 1e51),
    and coefficients below 2^-53 of a row's largest are dropped, so the
    other cluster does not spoil this one's roots.  Roots outside the
    normal doubles are dropped.  Another ``s`` gives the pencil of ``sign(s)``
    at ``mu / sqrt|s|``, whose knots are the same: ``F_s(y; kappa, mu) = |s|
    F_sign(s)(y; kappa |s|, mu / sqrt|s|)``.
    """
    s = _CASE_S.get(case, s)
    if s not in (-1.0, 0.0, 1.0):
        return _kappa_curve(case, np.array(mus, dtype=float) / math.sqrt(abs(s)), math.copysign(1.0, s))
    m, e = np.frexp(np.array(mus, dtype=float))
    m2, e2, zero = m * m, 2 * e.astype(np.int64), np.zeros(len(mus))  # mu^2 = m2 2^e2
    a = np.stack([zero - 2.0 * s / 3.0, zero, m2, zero, zero, zero], axis=1)
    b = np.stack([zero + 2.0 * s * s / 9.0, zero - s * s / 3.0, zero, -s * m2, zero, -m2 * m2 / 4.0], axis=1)
    a_ex, b_ex = np.outer(e2, [0, 0, 1, 0, 0, 0]), np.outer(e2, [0, 0, 0, 1, 0, 2])
    shift = np.concatenate([np.where(e2 > 0, (2 * e2) // 5, e2 // 2), np.maximum(e2, 0)])
    a_z = _rescaled(np.tile(a, (2, 1)), np.tile(a_ex, (2, 1)), shift)
    b_z = _rescaled(np.tile(b, (2, 1)), np.tile(b_ex, (2, 1)), shift)
    knots = []
    for c in (b_z, _wronskian(a_z, b_z)):
        c[np.abs(c) < 2.0**-53 * np.max(np.abs(c), axis=1, keepdims=True)] = 0.0
        mask, re = _positive_roots(c)
        with np.errstate(over="ignore"):  # a root past the largest double is inf, and dropped
            y = np.ldexp(re, shift[:, None])
        y = np.where(mask & (y >= _SMALLEST_NORMAL) & (y < math.inf), y, np.nan)
        knots.append(np.hstack(np.split(y, 2)))  # both scales of a column side by side
    with np.errstate(over="ignore"):
        return np.ldexp(a, a_ex), np.ldexp(b, b_ex), *knots


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
    m2 = float(mu) ** 2
    return (36.0 * m2 - 24.0) / (9.0 * m2 * (m2 + 4.0) + 4.0)


@_overflow_guard
def kappa_crit_n(mu: float) -> float:
    """Static curve of the negative case: ``(36 mu^2 + 24)/(9 mu^2 (mu^2-4) + 4)``.

    The denominator vanishes at ``mu^2 = (2/3)(3 -+ 2 sqrt 2)``; between the
    poles the curve is negative and no static solution exists.
    """
    if not math.isfinite(mu):
        raise ValueError("mu must be finite")
    m2 = float(mu) ** 2
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
    The quintic is linear in ``kappa``, ``p = A + kappa B``, so along
    ``kappa = K(y) = -A(y)/B(y)`` the tangency is an interior critical point:
    a root of ``W = A'B - AB'`` (:func:`_kappa_curve`), found exactly instead
    of scanned on a grid (the tangency ordinate approaches 1 as ``mu^2``
    nears the cubic threshold).  Its residuals ``(p, p')`` must lie within
    ``_KAPPA0_TOL * y0**4``.  Raises ``ValueError`` when no interior tangency
    with ``kappa0 > 0`` exists for this ``mu`` (``mu = 0`` or ``mu^2`` at or
    above the cubic threshold), and where ``W``'s own coefficients overflow
    (its ``mu^6`` term, from ``|mu|`` near 1e51).
    """
    if not math.isfinite(mu):
        raise ValueError("mu must be finite")
    a, b, _, turns = (x[0] for x in _kappa_curve("positive", [mu]))
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.all(np.isfinite(_wronskian(a[None], b[None]))):
            raise ValueError(_OVERFLOW)
    best = None
    for y_c in turns[~np.isnan(turns)].tolist():
        if not y_c < 1.0 - 1e-12:
            continue
        b_c = np.polyval(b, y_c)
        kap_c = -np.polyval(a, y_c) / b_c if b_c != 0.0 else -np.inf
        if kap_c > 0.0 and (best is None or kap_c > best[0]):
            best = (kap_c, y_c)
    if best is None:
        raise ValueError(f"no interior tangency with kappa0 > 0 in (0,1) for mu = {mu}")
    kap, y = best
    # Where p = 0, F = p / y^4 and F' = p' / y^4.
    p = a + kap * b
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
    seed, and from ``x = e^500`` on Newton's method on ``w + log w = log x``
    (:func:`_w0_of_exp`); residual relative error at most
    ``_LAMBERT_TOL * (1 + |w|)`` (the extra factor is the rounding floor of
    ``w * exp(w)`` in doubles).
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
        if lx >= 500.0:  # as in _w0_of_exp: near the largest double, Halley's (w + 2) fw overflows
            return _w0_of_exp(lx)
        w = lx - math.log(lx)

    w = _lambert_halley(x, w)[0]
    if abs(w * math.exp(w) - x) > _LAMBERT_TOL * (1.0 + abs(w)) * max(abs(x), 1e-300):
        raise ArithmeticError(f"lambert_w failed to converge for x = {x}")
    return w


def _lambert_halley(x: float, w: float) -> tuple:
    """Halley iteration for ``w exp(w) = x`` from the seed ``w``: ``(w, passes)``.

    Stops at a zero residual, at a step below ``1e-16 (1 + |w|)``, or at a
    step no smaller than the one before, which is not taken: rounding, not
    the root, now sets the steps.  Near the branch point, where ``1 + w`` is
    small, rounding keeps every step above the first bound, so the last rule
    is the one that ends the iteration there.
    """
    last = math.inf
    for passes in range(1, _LAMBERT_MAX_ITER + 1):
        ew = math.exp(w)
        fw = w * ew - x
        if fw == 0.0:
            break
        denom = ew * (w + 1.0) - (w + 2.0) * fw / (2.0 * w + 2.0)
        step = fw / denom
        if abs(step) >= last:
            break
        w -= step
        if abs(step) <= 1e-16 * (1.0 + abs(w)):
            break
        last = abs(step)
    return w, passes


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
        log_x = math.log(b) + 12.0 * t / kappa + b
        if log_x == math.inf:
            raise ValueError(f"12 t / kappa overflows a double: t = {t!r}, kappa = {kappa!r}")
        w = _w0_of_exp(log_x)
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
    """Exact SU(2) trajectory ``sigma = 3 + 3 W_0(-(2/3) exp((2/3)(2t/kappa - 1)))``
    of ``sigma sigma' = (4 sigma - 12)/kappa``.

    ``sigma``, the ``y`` of the ``su2`` reduction, is the scale of
    ``g = sigma I`` on ``catalog("su2", kappa)`` at zero flux; the tensor
    flow agrees with it at ``sigma = 1`` only (see the module docstring).
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
    if _is_static(coeffs, _F_from_coefficients(coeffs, problem.sigma0), problem.sigma0):
        # static start: constant trajectory, no integration needed
        hf.validate_solver_args(t_span, rtol, atol, n_points)
        t = np.linspace(t_span[0], t_span[1], n_points)
        return Trajectory(problem=problem, t=t, sigma=np.full_like(t, problem.sigma0), events=(), status="static")

    eps_stall = 1e-9 * max(1.0, float(np.max(np.abs(coeffs))))
    F = _F_function(coeffs.tolist())

    def rhs(t, y):
        sig = max(y[0], 1e-9)  # keep trial steps past the collapse event finite
        return [F(sig) / sig]

    events = (
        ("collapse", lambda t, y: y[0] - EPS_COLLAPSE, -1),
        ("blowup", lambda t, y: y[0] - M_BLOWUP, 1),
        # only trigger while approaching a root
        ("stall", lambda t, y: abs(F(max(y[0], 1e-9))) - eps_stall, -1),
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


# The tags in definition order, indexed by :func:`_fates`' integer codes.
_TAGS = np.empty(len(BehaviorTag), dtype=object)
_TAGS[:] = tuple(BehaviorTag)
_STATIC, _REGULAR, _FUTURE_DIVERGENT, _PAST_DIVERGENT, _COLLAPSE, _UNRESOLVED = range(len(_TAGS))


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
    Also raises ``ValueError`` where the time overflows a double, as at a
    subnormal ``mu**2`` (``flat``, ``kappa = 0``: ``t = -1/(3 mu^2)``).
    """
    tag, f0, roots = _fate_and_roots(problem)
    if tag is BehaviorTag.STATIC or (roots and roots[0] <= problem.sigma0):
        raise ValueError(_ROOT_BELOW)
    return _collapse_time(problem, f0)


def _collapse_time(problem: HomothetyProblem, f0: float) -> float:
    """:func:`collapse_time_quadrature` past its guard, with ``f0 = F(sigma0)``."""
    from scipy.integrate import quad  # the CLI never integrates, so it never loads scipy

    coeffs = problem_coefficients(problem).tolist()
    sgn = -1.0 if f0 > 0.0 else 1.0
    sigma0 = problem.sigma0

    def integrand(x: float) -> float:
        y = sigma0 * x  # on [0, 1] the quadrature's sums overflow only where the time does
        f = -sgn * _F_from_coefficients(coeffs, y)  # |F| while F keeps its sign at sigma0
        if f < 0.0:  # rounding puts a root in (0, sigma0) after all
            raise ValueError(_ROOT_BELOW)
        if f == 0.0 or y / f == math.inf:  # F underflows
            raise ValueError(_TIME_OVERFLOW)
        return y / f

    t_c = sigma0 * quad(integrand, 0.0, 1.0, limit=200, epsabs=1e-13, epsrel=1e-11)[0]
    if not math.isfinite(t_c):
        raise ValueError(_TIME_OVERFLOW)
    return sgn * t_c


def _fates(case: str, kappas, mus, sigma0: float, s: float = 0.0) -> tuple:
    """The fate rule at every cell of a ``(kappa, mu)`` grid started at ``sigma0``.

    ``sigma`` is monotone between consecutive roots of ``F``: with no root
    below ``sigma0`` it reaches zero in finite time, with none above it
    diverges, and between two it is eternal and regular.  Each column's
    knots are ``0``, the positive roots of ``B`` and ``W`` from
    :func:`_kappa_curve` (none for ``"su2"``, whose one root is 3) and
    ``inf``; between two knots ``p`` has at most one root, so a root lies
    below ``sigma0`` exactly when ``p``'s sign at a knot below it differs
    from ``F(sigma0)``'s (or vanishes), and likewise above.  ``p``'s sign at
    a root of ``B`` or ``W`` is that of the cell's own ``F``, summed in
    powers of ``1/y`` (finite at the poles of ``K`` and where ``y^4``
    underflows); at 0 it is the sign of the lowest nonzero coefficient, at
    ``inf`` of the leading one.  No absolute floor applies to the roots of
    ``p``, and the whole grid costs two :func:`_positive_roots` calls.

    Returns, in row-major cell order, the tags, ``F(sigma0)`` (the bits of
    :func:`_F_from_coefficients`), the ``(len(mus), n)`` knots, ascending
    with NaN slots before ``inf``, and the ``(cells, n)`` values whose signs
    the rule read there.  ``"general"`` takes ``s``; overflow raises the
    errors of :func:`problem_coefficients` and :func:`F_value`.
    """
    coeffs = _coefficients(case, kappas, mus, s).reshape(-1, 6)
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

    static = _is_static(coeffs, f0, sigma0)
    unresolved = np.zeros_like(static)
    if case == "positive":  # above the static curve, the cubic threshold leaves the fate open
        over = np.array(kappas)[:, None] > np.array([max(0.0, kappa_crit_p(m)) for m in mus])
        near = np.array([abs(m**2 - MU_THRESHOLD_CUBIC_SQ) <= 1e-9 for m in mus], dtype=bool)
        unresolved = (over & near).ravel()

    cells = np.arange(len(coeffs))
    nonzero = coeffs != 0.0
    low = coeffs[cells, 5 - np.argmax(nonzero[:, ::-1], axis=1)]
    lead = coeffs[cells, np.argmax(nonzero, axis=1)]
    if case == "su2":
        inner = np.zeros((len(mus), 0))
    else:
        inner = np.sort(np.concatenate(_kappa_curve(case, mus, s)[2:], axis=1), axis=1)  # NaN last
        inner = inner[:, : np.max(np.sum(~np.isnan(inner), axis=1), initial=0)]
    with np.errstate(over="ignore", invalid="ignore"):
        inner_values = _F_in_powers_of_inverse(
            np.moveaxis(coeffs.reshape(len(kappas), len(mus), 1, 6), 3, 0), np.where(np.isnan(inner), 1.0, inner)
        ).reshape(len(coeffs), inner.shape[1])
    knots = np.concatenate([np.zeros((len(mus), 1)), inner, np.full((len(mus), 1), math.inf)], axis=1)
    values = np.concatenate([low[:, None], inner_values, lead[:, None]], axis=1)

    differs = (np.sign(values) != np.sign(f0)[:, None]).reshape(len(kappas), *knots.shape)
    below = np.any(differs & (knots < sigma0), axis=2).ravel()
    above = np.any(differs & (knots > sigma0), axis=2).ravel()
    codes = np.select(
        [static, unresolved, ~below, ~above & (f0 > 0.0), ~above],
        [_STATIC, _UNRESOLVED, _COLLAPSE, _FUTURE_DIVERGENT, _PAST_DIVERGENT],
        default=_REGULAR,
    )
    return _TAGS[codes], f0, knots, values


def _root_between(coeffs: np.ndarray, a: float, b: float, positive_at_a: bool) -> float:
    """A root of ``p`` in ``[a, b]``, ``0 <= a < b <= inf``, where the fate
    rule read ``p`` positive at ``a`` exactly when ``positive_at_a`` and of
    the other sign at ``b``.

    ``p`` is read at ``y = 2^e z`` as ``c(2^e z)`` in ``z``, with ``c`` its
    coefficients less the trailing zeros and each such polynomial scaled by
    :func:`_rescaled`, so no term under- or overflows near ``y``.  Geometric
    bisection narrows the bracket, clipped to the positive doubles, to
    within a factor 2, and :func:`hetflow.het_flow._illinois` finishes it
    in ``z``.  The ends keep the rule's signs, so where rounding flips
    ``p``'s sign at an end the root found lies by that end.
    """
    c = np.trim_zeros(coeffs, "b")[None]

    def at_scale(e: int):
        cz = _rescaled(c, np.zeros_like(c, dtype=np.int64), np.array([e]))[0].tolist()

        def q(z):
            acc = 0.0
            for ck in cz:
                acc = acc * z + ck
            return acc

        return q

    a, b = max(a, _TINIEST), min(b, _LARGEST)
    while b > 2.0 * a:
        m = math.sqrt(a) * math.sqrt(b)
        z, e = math.frexp(m)
        q_m = at_scale(e)(z)
        if q_m == 0.0:
            return m
        if (q_m > 0.0) == positive_at_a:
            a = m
        else:
            b = m
    e = math.frexp(a)[1]
    q = at_scale(e)
    lo, hi = math.ldexp(a, -e), math.ldexp(b, -e)
    q_lo, q_hi = abs(q(lo)), abs(q(hi))
    if q_lo == 0.0 or q_hi == 0.0:
        return a if q_lo == 0.0 else b
    q_lo, q_hi = (q_lo, -q_hi) if positive_at_a else (-q_lo, q_hi)
    return math.ldexp(hf._illinois(q, lo, hi, q_lo, q_hi, 0.0), e)


def _fate_and_roots(problem: HomothetyProblem) -> tuple:
    """``(tag, F(sigma0), roots)`` of one start, from :func:`_fates`' knots.

    ``roots`` are the positive roots of ``F``, ascending: each inner knot
    the rule read as 0, and one root (:func:`_root_between`) per pair of
    consecutive knots it read with opposite signs.  A start that is neither
    static nor unresolved is a knot too, so each root lies on its tag's side.
    """
    sigma0 = float(problem.sigma0)
    tags, f0, knots, values = _fates(problem.case, [problem.kappa], [problem.mu], sigma0, problem.s)
    tag, f0 = tags[0], float(f0[0])
    points = [(y, v) for y, v in zip(knots[0].tolist(), values[0].tolist()) if not math.isnan(y)]
    if tag not in (BehaviorTag.STATIC, BehaviorTag.UNRESOLVED):
        points = sorted([pt for pt in points if pt[0] != sigma0] + [(sigma0, f0)])
    coeffs, roots = problem_coefficients(problem), []
    for (a, v_a), (b, v_b) in zip(points, points[1:]):
        if v_a < 0.0 < v_b or v_b < 0.0 < v_a:
            roots.append(_root_between(coeffs, a, b, v_a > 0.0))
        elif v_b == 0.0 and b < math.inf:
            roots.append(b)
    return tag, f0, tuple(roots)


def classify(case: str, kappa: float, mu: float, sigma0: float = 1.0) -> Behavior:
    """Root/sign analysis of ``F`` deciding the long-time behavior.

    The tag, ``F(sigma0)`` and ``roots`` are :func:`_fate_and_roots`'.  The
    trajectory asymptotes to the nearest root in each direction of motion,
    its finite limit there, and a collapsing start gets its signed collapse
    time from :func:`collapse_time_quadrature`'s quadrature.
    """
    problem = HomothetyProblem(case=case, kappa=kappa, mu=mu, sigma0=sigma0)
    tag, f0, roots = _fate_and_roots(problem)
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
        t_c, direction = _collapse_time(problem, f0), "past" if rising else "future"
    return Behavior(tag, past, future, t_c, direction, roots, f0)


def classify_from_trajectory(case: str, kappa: float, mu: float, sigma0: float = 1.0) -> Behavior:
    """Event-driven classification: integrate both time directions and read
    the tag off the terminal events.  Used to cross-check :func:`classify`.

    Each leg integrates ``(sigma, t)`` in a time ``tau`` with ``dt/dtau =
    +-sigma^2 / max(|F|, b)``, where the stall band ``b = 1e-9 sum_k |c_k|
    sigma^(1-k)`` is the size of ``F``'s terms.  Outside the band ``log
    sigma`` moves at unit speed, so a leg however slow in ``t`` meets a
    threshold or stalls by a root before ``tau = 2 log(M_BLOWUP /
    EPS_COLLAPSE)``; a leg that starts in the band heading for its root
    relaxes onto it and stalls there at that ``tau``.

    The start must lie strictly between the event thresholds
    ``EPS_COLLAPSE`` and ``M_BLOWUP``; outside them no leg can meet its
    terminal event, so such a start raises ``ValueError``.
    """
    problem = HomothetyProblem(case=case, kappa=kappa, mu=mu, sigma0=sigma0)
    if not EPS_COLLAPSE < sigma0 < M_BLOWUP:
        raise ValueError(
            f"trajectory classification needs a conformal factor strictly between "
            f"EPS_COLLAPSE = {EPS_COLLAPSE:g} and M_BLOWUP = {M_BLOWUP:g}, got {sigma0!r}"
        )
    coeffs = problem_coefficients(problem)
    f0 = _F_from_coefficients(coeffs, sigma0)
    if _is_static(coeffs, f0, sigma0):
        return Behavior(tag=BehaviorTag.STATIC, sigma_past=sigma0, sigma_future=sigma0, f_at_start=f0)
    band_terms = (1e-9 * np.abs(coeffs)).tolist()
    coeffs = coeffs.tolist()

    def band_gap(y) -> tuple:
        """``(sigma, F, |F| - b)`` at the state ``y``, clamped as :func:`integrate` clamps."""
        sig = max(y[0], 1e-9)
        f = _F_from_coefficients(coeffs, sig)
        return sig, f, abs(f) - _F_in_powers_of_inverse(band_terms, sig)

    def leg(direction: float) -> tuple:
        def rhs(tau, y):
            sig, f, gap = band_gap(y)
            dt = direction * sig * sig / (abs(f) - min(gap, 0.0))  # sigma^2 / max(|F|, b)
            if not math.isfinite(dt):
                raise ValueError("the trajectory's time overflows a double")
            return [dt * f / sig, dt]

        events = (
            ("collapse", lambda tau, y: y[0] - EPS_COLLAPSE, -1),
            ("blowup", lambda tau, y: y[0] - M_BLOWUP, 1),
            ("stall", lambda tau, y: band_gap(y)[2], -1),
            ("stall", lambda tau, y: tau - 2.0 * math.log(M_BLOWUP / EPS_COLLAPSE), 1),
        )
        run = hf.solve_ivp(rhs, [sigma0, 0.0], [event[1:] for event in events], rtol=1e-10, atol=1e-13)
        return (events[run.event][0], *run.y[:, -1].tolist())

    (fwd_kind, fwd_sigma, fwd_t), (bwd_kind, bwd_sigma, bwd_t) = leg(1.0), leg(-1.0)
    past = bwd_sigma if bwd_kind == "stall" else None
    future = fwd_sigma if fwd_kind == "stall" else None
    t_c = direction = None
    if fwd_kind == "collapse":
        tag, t_c, direction = BehaviorTag.FINITE_TIME_COLLAPSE, fwd_t, "future"
    elif bwd_kind == "collapse":
        tag, t_c, direction = BehaviorTag.FINITE_TIME_COLLAPSE, bwd_t, "past"
    elif past is not None and future is not None:
        tag = BehaviorTag.ETERNAL_REGULAR
    elif future is not None:
        tag = BehaviorTag.ETERNAL_PAST_DIVERGENT_FUTURE_FINITE
    elif past is not None:
        tag = BehaviorTag.ETERNAL_PAST_FINITE_FUTURE_DIVERGENT
    else:  # sigma is monotone, so at most one leg grows
        raise RuntimeError("both legs of the trajectory reached the blow-up threshold")
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
    Both axes are tested whole; a problem is built only for the first
    invalid cell, which raises.
    """
    if not (kappas and mus):
        return
    k = np.array(kappas)
    kappa_ok = ((k > 0.0) if case == "su2" else (k >= 0.0)) & (k < math.inf)
    mu_ok = np.isfinite(mus)
    if case not in _CASES or not kappa_ok[0] or not mu_ok.all():
        # Row 0 fails at its first cell when kappas[0] does, else at the first invalid mu.
        HomothetyProblem(case=case, kappa=kappas[0], mu=mus[int(np.argmin(mu_ok)) if kappa_ok[0] else 0])
    if not kappa_ok.all():
        HomothetyProblem(case=case, kappa=kappas[int(np.argmin(kappa_ok))], mu=mus[0])


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
