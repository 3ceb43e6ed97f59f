"""Independent reference computations used to check hetflow's outputs.

Everything here is written out from the formulas it names, not taken from
the package: the scalar reduction ``sigma sigma' = F(sigma)``, Milnor's
principal Ricci curvatures of left-invariant metrics, and the scale ODE of
an Einstein start under the uncorrected (``kappa = 0``) flow.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad, solve_ivp

CASE_S = {"positive": 1.0, "flat": 0.0, "negative": -1.0}

# Bracket normal form ``[e2, e3] = l1 e1`` (cyclic) of the unimodular catalog
# algebras; su2 carries its family parameter k through ``a = 1 / (2 sqrt k)``.
MILNOR_LAMBDAS = {
    "r3": lambda k: (0.0, 0.0, 0.0),
    "heisenberg": lambda k: (1.0, 0.0, 0.0),
    "su2": lambda k: (0.5 / math.sqrt(k), 0.5 / math.sqrt(k), 2.0 / math.sqrt(k)),
    "sl2r": lambda k: (1.0, 1.0, -1.0),
    "e11": lambda k: (1.0, -1.0, 0.0),
    "e2": lambda k: (1.0, 1.0, 0.0),
}


def reduction_F(case: str, kappa, mu, s, y):
    """``F(y)`` of the conformal-factor reduction ``sigma sigma' = F(sigma)``.

    ``F = (2 kappa s/3 - 2)(s/3) y - kappa s^2/3 + mu^2/y - kappa s mu^2/y^2
    - kappa mu^4/(4 y^4)`` with ``s = +1, 0, -1`` for the named cases, and
    ``F = (4 y - 12)/kappa`` for the SU(2) reduction.  Broadcasts over arrays.
    """
    if case == "su2":
        return (4.0 * y - 12.0) / kappa
    s = CASE_S.get(case, s)
    return (
        (2.0 * kappa * s / 3.0 - 2.0) * (s / 3.0) * y
        - kappa * s**2 / 3.0
        + mu**2 / y
        - kappa * s * mu**2 / y**2
        - kappa * mu**4 / (4.0 * y**4)
    )


def quintic(case: str, kappa, mu, s) -> list:
    """Coefficients of ``y^4 F(y)``, highest degree first.  Broadcasts over arrays."""
    if case == "su2":
        return [4.0 / kappa, -12.0 / kappa, 0.0, 0.0, 0.0, 0.0]
    s = CASE_S.get(case, s)
    return [(2.0 * kappa * s / 3.0 - 2.0) * (s / 3.0), -kappa * s**2 / 3.0, mu**2,
            -kappa * s * mu**2, 0.0, -kappa * mu**4 / 4.0]


def reduction_scale(case: str, kappa, mu, s):
    """Largest coefficient magnitude of ``y^4 F`` (at least 1), the size of F."""
    terms = np.broadcast_arrays(1.0, *(np.abs(c) for c in quintic(case, kappa, mu, s)))
    return np.max(np.stack(terms), axis=0)


def _blocked(case, kappa, mu, s, sigma0: float, sigma_end: float, eps: float) -> bool:
    """Whether the trajectory stops at a root of F before ``sigma_end``.

    Integrates the trajectory's time as a function of its (monotone) value,
    ``dt/dsigma = sigma / F(sigma)``, from ``sigma0`` toward ``sigma_end``.
    The time diverges at a positive root of F: the integration stops there
    because F changes sign between two steps, because the relative speed
    ``|F|/sigma^2`` falls to ``eps``, or because the step size underflows at
    the pole of the integrand.  Otherwise ``sigma_end`` is reached.
    (``|F|/sigma`` would also vanish at ``sigma = 0`` when ``mu = 0``.)
    Parametrizing by ``sigma`` avoids any time horizon and the unbounded
    slope of ``sigma(t)`` near a collapse.
    """

    def rhs(y, t):
        return [y / reduction_F(case, kappa, mu, s, y)]

    def crossed(y, t):
        return reduction_F(case, kappa, mu, s, y)

    def stall(y, t):
        return abs(reduction_F(case, kappa, mu, s, y)) / y**2 - eps

    crossed.terminal = stall.terminal = True
    sol = solve_ivp(rhs, (sigma0, sigma_end), [0.0], method="DOP853", rtol=1e-10,
                    atol=1e-12, events=(crossed, stall))
    return sol.status != 0


def trajectory_tag(case: str, kappa: float, mu: float, sigma0: float = 1.0) -> str:
    """Behavior tag of the trajectory through ``sigma0``, read off its integration.

    The trajectory is monotone.  Toward smaller sigma it either stops at a
    root (eternal in that direction) or reaches zero in finite time; toward
    larger sigma it either stops at a root or passes the Cauchy bound of the
    quintic, beyond which nothing stops it (divergent).
    """
    coeffs = quintic(case, kappa, mu, 0.0)
    scale = float(reduction_scale(case, kappa, mu, 0.0))
    f0 = reduction_F(case, kappa, mu, 0.0, sigma0)
    if abs(f0) <= 1e-12 * scale:
        return "Static"
    lead = next(c for c in coeffs if abs(c) > 1e-14 * scale)
    cauchy = 1.0 + max(abs(c / lead) for c in coeffs)
    eps = 1e-9 * scale
    down = _blocked(case, kappa, mu, 0.0, sigma0, 1e-9, eps)
    up = _blocked(case, kappa, mu, 0.0, sigma0, 2.0 * max(cauchy, sigma0), eps)
    if not down:
        return "FiniteTimeCollapse"
    if up:
        return "EternalRegular"
    return "EternalPastFiniteFutureDivergent" if f0 > 0.0 else "EternalPastDivergentFutureFinite"


def time_to_reach(case, kappa, mu, s, sigma0, sigma) -> float:
    """``t(sigma) = int_{sigma0}^{sigma} y / F(y) dy`` along one monotone trajectory."""
    if sigma == sigma0:
        return 0.0
    val, _ = quad(
        lambda y: y / reduction_F(case, kappa, mu, s, y),
        sigma0,
        sigma,
        limit=200,
        epsabs=1e-13,
        epsrel=1e-11,
    )
    return float(val)


def sigma_solution(case, kappa, mu, s, sigma0, t_end):
    """Dense solution of ``sigma' = F(sigma)/sigma`` from ``sigma0`` toward ``t_end``.

    Stops early if ``sigma`` falls to 1e-4; the returned ``t_reached`` says how
    far the solution is valid.
    """

    def rhs(t, y):
        return [reduction_F(case, kappa, mu, s, max(y[0], 1e-6)) / max(y[0], 1e-6)]

    def low(t, y):
        return y[0] - 1e-4

    low.terminal = True
    sol = solve_ivp(rhs, (0.0, t_end), [sigma0], method="DOP853", rtol=1e-12,
                    atol=1e-14, dense_output=True, events=low)
    return sol.sol, float(sol.t[-1])


def milnor_ricci(lambdas, diag) -> np.ndarray:
    """Ricci form of ``g = diag(d)`` on a bracket-normal-form algebra (Milnor 1976).

    In the orthonormal frame ``e_i / sqrt(d_i)`` the structure constants are
    ``lh_1 = l1 sqrt(d1 / (d2 d3))`` (cyclic) and the principal Ricci
    curvatures are ``r_1 = 2 m_2 m_3`` (cyclic) with
    ``m_i = (lh_1 + lh_2 + lh_3)/2 - lh_i``; hence ``Ric = diag(d_i r_i)``.
    """
    l1, l2, l3 = lambdas
    d1, d2, d3 = diag
    lh = (l1 * math.sqrt(d1 / (d2 * d3)), l2 * math.sqrt(d2 / (d3 * d1)),
          l3 * math.sqrt(d3 / (d1 * d2)))
    half = 0.5 * sum(lh)
    m = [half - v for v in lh]
    r = (2.0 * m[1] * m[2], 2.0 * m[0] * m[2], 2.0 * m[0] * m[1])
    return np.diag([d1 * r[0], d2 * r[1], d3 * r[2]])


def einstein_scale(lam: float, f0: float, times: np.ndarray) -> np.ndarray:
    """``s(t)`` with ``s' = -2 lam + f0^2 / s^2``, ``s(0) = 1``.

    On an Einstein start ``Ric(g0) = lam g0`` with flux ``H = f vol``, the
    ``kappa = 0`` flow keeps ``g = s g0`` and ``f = f0 s^(-3/2)``.
    """
    if f0 == 0.0:
        return 1.0 - 2.0 * lam * times
    sol = solve_ivp(lambda t, y: [-2.0 * lam + f0**2 / y[0] ** 2], (0.0, float(times[-1])),
                    [1.0], method="DOP853", rtol=1e-13, atol=1e-15, dense_output=True)
    return sol.sol(times)[0]
