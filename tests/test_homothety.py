"""Scalar conformal-factor reduction: curves, closed forms, classification."""

import importlib
import itertools
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from hetflow import cli
from hetflow import het_flow as hf
from hetflow import homogeneous as hg
from hetflow import homothety as ht

TAG = ht.BehaviorTag
ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# critical curves
# ---------------------------------------------------------------------------


def test_kappa_crit_n_at_zero_is_exactly_six():
    assert ht.kappa_crit_n(0.0) == 6.0


def test_static_curves_annihilate_f():
    for mu in np.linspace(0.82, 4.0, 50):
        kap = ht.kappa_crit_p(float(mu))
        assert kap >= 0.0
        assert abs(ht.F_value(ht.HomothetyProblem("positive", kap, float(mu)), 1.0)) <= 1e-12
    lows = np.linspace(0.0, math.sqrt(ht.MU_POLE_MINUS_SQ) - 1e-3, 25)
    highs = np.linspace(math.sqrt(ht.MU_POLE_PLUS_SQ) + 1e-3, 5.0, 25)
    for mu in np.concatenate([lows, highs]):
        kap = ht.kappa_crit_n(float(mu))
        assert kap >= 0.0
        assert abs(ht.F_value(ht.HomothetyProblem("negative", kap, float(mu)), 1.0)) <= 1e-12


def test_critical_curves_take_a_numpy_scalar_mu():
    # numpy's scalar ** overflows with a RuntimeWarning where a float's gives inf.
    mu = np.float64(1.1e77)
    assert ht.kappa_crit_p(mu) == ht.kappa_crit_p(1.1e77)
    assert ht.kappa_crit_n(mu) == ht.kappa_crit_n(1.1e77)
    assert ht.classify("positive", 1e-10, mu) == ht.classify("positive", 1e-10, 1.1e77)


def test_kappa_crit_n_blows_up_at_poles():
    near_pole = math.sqrt(ht.MU_POLE_MINUS_SQ) + 1e-12
    assert abs(ht.kappa_crit_n(near_pole)) > 1e6


def test_kappa_crit_between_poles_is_negative():
    mu = math.sqrt(0.5 * (ht.MU_POLE_MINUS_SQ + ht.MU_POLE_PLUS_SQ))
    assert ht.kappa_crit_n(mu) < 0.0


def test_mu_threshold_cubic_root():
    # The one positive root of 27 x^3 + 6 x^2 - 68 x - 8, to 40 digits.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        exact = max(r for r in mpmath.polyroots([27, 6, -68, -8], maxsteps=200, extraprec=100))
        err = abs(mpmath.mpf(ht.MU_THRESHOLD_CUBIC_SQ) - exact)
    assert err <= 2 * math.ulp(ht.MU_THRESHOLD_CUBIC_SQ)


def test_kappa0_tangency_residuals():
    for mu in (0.5, 1.0, 1.2):
        kap0, y0 = ht.kappa0(mu)
        assert 0.0 < y0 < 1.0
        assert kap0 > 0.0
        problem = ht.HomothetyProblem("positive", kap0, mu)
        assert abs(ht.F_value(problem, y0)) <= 1e-10
        dy = 1e-6
        deriv = (ht.F_value(problem, y0 + dy) - ht.F_value(problem, y0 - dy)) / (2 * dy)
        assert abs(deriv) <= 1e-4  # double root: first derivative vanishes too


def test_kappa0_separates_eternal_from_collapse():
    mu = 1.0
    kap0, _ = ht.kappa0(mu)
    below = ht.classify("positive", kap0 * 0.98, mu)
    above = ht.classify("positive", kap0 * 1.02, mu)
    assert below.tag == TAG.ETERNAL_PAST_DIVERGENT_FUTURE_FINITE
    assert above.tag == TAG.FINITE_TIME_COLLAPSE


def test_reference_curve_values():
    assert ht.kappa_crit_p(1.0) == pytest.approx(12.0 / 49.0, rel=1e-14)
    assert ht.kappa_crit_n(0.3) == pytest.approx(32.705007, abs=1e-5)
    assert ht.kappa_crit_n(2.1) == pytest.approx(9.014990, abs=1e-5)
    kap0, _ = ht.kappa0(1.0)
    assert kap0 == pytest.approx(0.30780464, abs=1e-7)
    assert ht.MU_THRESHOLD_CUBIC_SQ == pytest.approx(1.5391526006097773, abs=1e-12)


# ---------------------------------------------------------------------------
# Lambert W
# ---------------------------------------------------------------------------


def test_lambert_w_special_values():
    assert ht.lambert_w(0.0) == 0.0
    assert ht.lambert_w(math.e) == pytest.approx(1.0, rel=1e-14)
    assert ht.lambert_w(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-7)


@settings(max_examples=50)
@given(st.floats(min_value=-10.0, max_value=10.0))
def test_lambert_w_principal_roundtrip(w):
    if w < -1.0:
        w = -2.0 - w  # reflect into the principal domain
    x = w * math.exp(w)
    got = ht.lambert_w(x)
    assert got * math.exp(got) == pytest.approx(x, rel=1e-10, abs=1e-12)
    assert got == pytest.approx(w, rel=1e-8, abs=1e-8)


def _halley_to_the_cap(x: float, w: float) -> tuple:
    """Reference: lambert_w's Halley loop as it was, stopped only by a zero
    residual, a step below ``1e-16 (1 + |w|)`` or 80 passes."""
    for passes in range(1, 81):
        ew = math.exp(w)
        fw = w * ew - x
        if fw == 0.0:
            break
        step = fw / (ew * (w + 1.0) - (w + 2.0) * fw / (2.0 * w + 2.0))
        w -= step
        if abs(step) <= 1e-16 * (1.0 + abs(w)):
            break
    return w, passes


def test_lambert_w_stops_at_the_rounding_floor(monkeypatch, tmp_path, count_calls):
    """On the Halley iterations of the benchmark's seed-1 homothety commands
    (closed forms near a collapse put W near the branch point), no call runs
    to the iteration cap, where the old loop ran 76 of them, and every result
    is within one unit ``eps max(|W|, 1 / (1 + W))`` of mpmath's W, the
    rounding floor of ``w exp(w) = x``, as the old loop's were.  (Which
    loop's worst error is smaller there is last-bit luck: it moves by a few
    hundredths of a unit either way from seed to seed.)"""
    mpmath = pytest.importorskip("mpmath")
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    halley = ht._lambert_halley
    starts = count_calls(ht, "_lambert_halley")
    for k, command in enumerate(workloads.build_homothety(1)):
        assert cli.main([*command.argv, "--output", str(tmp_path / f"{k}.out")]) == 0
    assert len(starts) > 500

    def error(x, w):
        exact = mpmath.lambertw(x).real
        return float(abs(w - exact) / max(abs(exact), 1 / (1 + exact))) / np.finfo(float).eps

    worst, worst_before, capped_before = 0.0, 0.0, 0
    with mpmath.workprec(160):
        for x, w0 in starts:
            w, passes = halley(x, w0)
            assert passes < ht._LAMBERT_MAX_ITER, x
            before, passes_before = _halley_to_the_cap(x, w0)
            capped_before += passes_before == 80
            worst, worst_before = max(worst, error(x, w)), max(worst_before, error(x, before))
    assert capped_before == 76
    assert worst < 1.0 and worst_before < 1.0


def test_lambert_w_domain_errors():
    with pytest.raises(ValueError):
        ht.lambert_w(-1.0)


def test_lambert_w_holds_its_residual_bound_up_to_the_largest_double():
    # Halley's (w + 2) fw overflowed above about 10^307.5 and left W at its
    # seed: lambert_w(1e308) raised ArithmeticError.
    mpmath = pytest.importorskip("mpmath")
    xs = [10.0**e for e in np.linspace(0.0, 308.0, 400)] + [1e308, sys.float_info.max]
    with mpmath.workprec(160):
        for x in xs:
            w = ht.lambert_w(x)
            residual = abs(mpmath.mpf(w) * mpmath.exp(w) - x)
            assert residual <= ht._LAMBERT_TOL * (1.0 + abs(w)) * x, x
            assert abs(w - mpmath.lambertw(x).real) <= 4.0 * math.ulp(w), x


def _F_outcome(fn, y):
    try:
        return fn(y).hex()  # NaN matches NaN, and -0.0 differs from 0.0
    except ValueError as exc:
        return str(exc)


def test_the_solver_F_is_F_from_coefficients_bit_for_bit():
    # integrate's rhs and stall event evaluate F through _F_function; past
    # sigma = 1e60, outside the solver's clamp and at a non-finite value it
    # hands over to _F_from_coefficients, whose fallback and errors it keeps.
    rng = np.random.default_rng(25)
    for _ in range(3000):
        coeffs = (rng.normal(size=6) * 10.0 ** rng.uniform(-3.0, 3.0, size=6)).tolist()
        if rng.uniform() < 0.2:  # coefficients whose value overflows near either end
            coeffs[int(rng.integers(6))] = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(250.0, 308.0)
        y = float(10.0 ** rng.uniform(-9.0, 80.0))
        F = ht._F_function(coeffs)
        assert _F_outcome(F, y) == _F_outcome(lambda v: ht._F_from_coefficients(coeffs, v), y)


class _CountedFloat(float):
    """A coefficient that records each addition it ends: in the Horner steps
    of ``F``, ``lead * y + c1`` runs once per evaluation.  A float subclass's
    ``__radd__`` is tried before ``float.__add__``; it returns the plain sum."""

    def __new__(cls, value, evaluations):
        self = super().__new__(cls, value)
        self.evaluations = evaluations
        return self

    def __radd__(self, other):
        self.evaluations.append(other)
        return other + float(self)


def _memoless_F_function(coeffs: list):
    """``_F_function`` without its memo of the last value: the reference of
    the values ``integrate`` computes and of how many evaluations it makes."""
    c0, c1, c2, c3, c4, c5 = coeffs
    lead = 0.0 + c0

    def F(y: float) -> float:
        if 1e-9 <= y < 1e60:
            value = (((((lead * y + c1) * y + c2) * y + c3) * y + c4) * y + c5) / y**4
            if -math.inf < value < math.inf:
                return value
        return ht._F_from_coefficients(coeffs, y)

    return F


def _counted_integrate(make_F, problem):
    """``integrate``'s trajectory with ``F`` from ``make_F``, its number of
    evaluations of ``F`` and its solver run."""
    evaluations, runs = [], []
    solve_ivp = hf.solve_ivp

    def recorded(*args):
        runs.append(solve_ivp(*args))
        return runs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ht, "_F_function", lambda c: make_F([c[0], _CountedFloat(c[1], evaluations), *c[2:]]))
        mp.setattr(hf, "solve_ivp", recorded)
        trajectory = ht.integrate(problem, (0.0, 2.0), n_points=101)
    (run,) = runs
    return trajectory, len(evaluations), run


def _trajectory_bits(trajectory) -> list:
    events = [(e.kind, e.t.hex(), [v.hex() for v in e.y]) for e in trajectory.events]
    return [[float(v).hex() for v in trajectory.t], [float(v).hex() for v in trajectory.sigma], events]


@pytest.mark.parametrize("case", ["positive", "flat", "negative", "su2", "general"])
def test_the_stall_event_reuses_the_last_stages_F(case):
    # At each accepted step's end the stall event asks for F where the last
    # stage has just evaluated it; the memo answers, and nothing else moves.
    rng = np.random.default_rng([26, len(case)])
    problem = ht.HomothetyProblem(case, *rng.uniform([0.1, 0.0, -1.0, 0.5], [2.0, 2.0, 1.0, 1.5]).tolist())
    ours, count, run = _counted_integrate(ht._F_function, problem)
    reference, reference_count, _ = _counted_integrate(_memoless_F_function, problem)
    assert _trajectory_bits(ours) == _trajectory_bits(reference)
    accepted = run.t.size - 1
    if ours.status == "completed":
        assert reference_count - count == accepted
    else:  # a collapse also repeats the clamp 1e-9 in its trial stages
        assert reference_count - count >= accepted


@pytest.mark.parametrize(
    "coeffs, y, branch",
    [
        ([-0.0, -0.0, 1.0, -0.0, 0.0, -0.25], 1.0, "value"),  # flat: Horner's 0.0 * y + c0 turns -0.0 into 0.0
        ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 1e-9, "value"),  # the clamp
        ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 1e60, "value"),  # the switch, past which y**4 may overflow
        ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 1e100, "value"),  # y**4 overflows: F in powers of 1/y
        ([1e300, 1e300, 0.0, 0.0, 0.0, 0.0], 1e10, "value"),  # the quintic overflows: F in powers of 1/y
        ([0.0, 0.0, 0.0, 0.0, 0.0, -1e300], 1e-9, "F overflows"),  # -c5 / y**4 overflows below 1
        ([1e308, 0.0, 0.0, 0.0, 0.0, 0.0], 1e300, "F overflows"),  # c0 y overflows above 1
        ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], math.nan, "must be positive and finite"),
        ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], math.inf, "must be positive and finite"),
        ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 0.0, "must be positive and finite"),
        ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 5e-10, "value"),  # below the clamp: _F_from_coefficients' own value
    ],
)
def test_the_solver_F_keeps_each_branch_of_F_from_coefficients(coeffs, y, branch):
    expected = _F_outcome(lambda v: ht._F_from_coefficients(coeffs, v), y)
    assert _F_outcome(ht._F_function(coeffs), y) == expected
    assert (branch == "value") == (branch not in expected)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "fn, args",
    [
        (ht.flat_collapse_time, (0.0, 1.0)),  # no collapse; 4 / (kappa mu^2) divides by zero
        (ht.flat_collapse_time, (1.0, 0.0)),
        (ht.flat_collapse_time, (-1.0, 3.0)),
        (ht.flat_collapse_time, (math.nan, 3.0)),
        (ht.flat_closed_form, (-1.0, 3.0, 0.0)),  # would be a complex cube root
        (ht.flat_closed_form, (1.0, 3.0, math.nan)),
        (ht.flat_closed_form, (1.0, math.inf, 0.0)),
        (ht.su2_collapse_time, (math.nan,)),
        (ht.su2_collapse_time, (math.inf,)),
        (ht.su2_closed_form, (1.0, math.nan)),
        (ht.su2_closed_form, (1.0, 1e3)),  # exp overflows far past t_max
        (ht.HomothetyProblem, ("su2", math.nan)),
        (ht.lambert_w, (math.nan,)),
        (ht.lambert_w, (math.inf,)),
        (ht.kappa0, (math.nan,)),
        (ht.kappa_crit_p, (math.nan,)),
        (ht.kappa_crit_p, (math.inf,)),
        (ht.kappa_crit_n, (math.nan,)),
        (ht.kappa_crit_n, (-math.inf,)),
        (ht.kappa_crit_n, (0.3382039574515255,)),  # exactly on the lower pole
        (ht.flat_closed_form, (1.0, 1.0, 1e308)),  # 12 t / kappa overflows; it returned NaN
    ],
)
def test_closed_forms_reject_out_of_domain_input(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "case, couplings, y, message",
    [
        ("general", (math.nan, 1.0, 1.0), None, "kappa"),
        ("general", (-1.0, 1.0, 1.0), None, "kappa"),
        ("general", (1.0, math.inf, 1.0), None, "mu"),
        ("general", (1.0, 1.0, math.nan), None, "s must be finite"),
        ("general", (1.0, 1.0, math.nan), 1.0, "s must be finite"),  # not the conformal factor
        ("positive", (-1.0, 1.0), 1.0, "kappa"),
        ("flat", (1.0, math.nan), 1.0, "mu"),
    ],
)
def test_reduction_coefficients_reject_invalid_couplings(case, couplings, y, message):
    # HomothetyProblem validates; F_value never sees an invalid problem.
    with pytest.raises(ValueError, match=message):
        problem = ht.HomothetyProblem(case, *couplings)
        if y is not None:
            ht.F_value(problem, y)


# ---------------------------------------------------------------------------
# closed forms vs integrator
# ---------------------------------------------------------------------------


def test_flat_closed_form_matches_integrator():
    rng = np.random.default_rng(2)
    for _ in range(6):
        kappa = float(rng.uniform(0.1, 3.0))
        mu = float(rng.uniform(0.2, 2.0))
        problem = ht.HomothetyProblem(case="flat", kappa=kappa, mu=mu)
        traj = ht.integrate(problem, (0.0, 2.0))
        t_end = min((ev.t for ev in traj.events), default=math.inf)
        for t, sigma in zip(traj.t, traj.sigma):
            if float(t) >= t_end - 1e-9:  # the terminal event sample is degenerate
                continue
            closed = ht.flat_closed_form(kappa, mu, float(t))
            assert sigma == pytest.approx(closed, rel=1e-6)


def test_flat_collapse_event_matches_formula():
    kappa, mu = 1.0, 2.5  # b = 4/(kappa mu^2) - 1 < 0
    b = 4.0 / (kappa * mu**2) - 1.0
    assert b < 0.0
    t_star = -kappa / 12.0 * (1.0 + b + math.log(-b))
    assert ht.flat_collapse_time(kappa, mu) == pytest.approx(t_star, rel=1e-12)
    problem = ht.HomothetyProblem(case="flat", kappa=kappa, mu=mu)
    traj = ht.integrate(problem, (0.0, 5.0))
    collapse = [ev for ev in traj.events if ev.kind == "collapse"]
    assert collapse and collapse[0].t == pytest.approx(t_star, rel=1e-6)


def test_flat_static_curve_is_constant():
    mu = 1.3
    kappa = 4.0 / mu**2  # b = 0
    problem = ht.HomothetyProblem(case="flat", kappa=kappa, mu=mu)
    traj = ht.integrate(problem, (0.0, 3.0))
    np.testing.assert_allclose(traj.sigma, 1.0, atol=1e-12)


def test_su2_closed_form_and_collapse():
    kappa = 1.4
    t_max = kappa / 4.0 * (math.log(27.0 / 8.0) - 1.0)
    assert ht.su2_collapse_time(kappa) == pytest.approx(t_max, rel=1e-12)
    problem = ht.HomothetyProblem(case="su2", kappa=kappa)
    traj = ht.integrate(problem, (0.0, 1.0))
    collapse = [ev for ev in traj.events if ev.kind == "collapse"]
    assert collapse and collapse[0].t == pytest.approx(t_max, rel=1e-6)
    for t, sigma in zip(traj.t, traj.sigma):
        if float(t) < t_max * 0.98:
            assert sigma == pytest.approx(ht.su2_closed_form(kappa, float(t)), rel=1e-6)
    # past limit approaches 3
    back = ht.integrate(problem, (0.0, -60.0 * kappa))
    assert back.sigma[-1] == pytest.approx(3.0, abs=1e-3)


def test_su2_closed_form_domain():
    kappa = 2.0
    with pytest.raises(ValueError):
        ht.su2_closed_form(kappa, ht.su2_collapse_time(kappa) + 0.1)


def test_static_problem_trajectory_constant():
    mu = 1.2
    kappa = ht.kappa_crit_p(mu)
    problem = ht.HomothetyProblem(case="positive", kappa=kappa, mu=mu)
    traj = ht.integrate(problem, (0.0, 10.0))
    np.testing.assert_allclose(traj.sigma, 1.0, atol=1e-12)
    assert traj.status == "static"


def test_trajectory_f_property():
    problem = ht.HomothetyProblem(case="flat", kappa=1.0, mu=0.8)
    traj = ht.integrate(problem, (0.0, 1.0))
    np.testing.assert_allclose(traj.f, 0.8 * np.asarray(traj.sigma) ** -1.5, atol=1e-12)


def test_collapse_time_quadrature_matches_closed_forms():
    assert ht.collapse_time_quadrature(
        ht.HomothetyProblem(case="flat", kappa=1.0, mu=2.5)
    ) == pytest.approx(ht.flat_collapse_time(1.0, 2.5), rel=1e-8)
    assert ht.collapse_time_quadrature(
        ht.HomothetyProblem(case="su2", kappa=1.4)
    ) == pytest.approx(ht.su2_collapse_time(1.4), rel=1e-8)
    assert ht.collapse_time_quadrature(
        ht.HomothetyProblem(case="positive", kappa=0.0, mu=0.0)
    ) == pytest.approx(1.5, rel=1e-8)


@pytest.mark.parametrize(
    "problem",
    [
        ht.HomothetyProblem(case="flat", kappa=4.0, mu=1.0),  # static: F(1) = 0
        ht.HomothetyProblem(case="positive", kappa=ht.kappa_crit_p(1.5) / 2.0, mu=1.5),  # eternal
        ht.HomothetyProblem(case="flat", kappa=4.0, mu=1.0, sigma0=2.0),  # the root 1 lies below
    ],
)
def test_collapse_time_quadrature_rejects_a_root_before_zero(problem):
    behavior = ht.classify(problem.case, problem.kappa, problem.mu, problem.sigma0)
    assert behavior.tag is not TAG.FINITE_TIME_COLLAPSE
    with pytest.raises(ValueError, match="root"):
        ht.collapse_time_quadrature(problem)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_positive_case_bullets():
    mu = 1.0  # mu^2 = 1 > 2/3 and < threshold
    kc = ht.kappa_crit_p(mu)
    kap0, _ = ht.kappa0(mu)
    assert ht.classify("positive", 0.5 * kc, mu).tag == TAG.ETERNAL_REGULAR
    assert ht.classify("positive", kc, mu).tag == TAG.STATIC
    mid = ht.classify("positive", 0.5 * (kc + kap0), mu)
    assert mid.tag == TAG.ETERNAL_PAST_DIVERGENT_FUTURE_FINITE
    assert ht.classify("positive", 2.0 * kap0, mu).tag == TAG.FINITE_TIME_COLLAPSE
    big_mu = 1.6  # mu^2 > threshold
    assert (
        ht.classify("positive", 1.5 * ht.kappa_crit_p(big_mu), big_mu).tag
        == TAG.FINITE_TIME_COLLAPSE
    )
    zero_mu = ht.classify("positive", 1.0, 0.0)
    assert zero_mu.tag == TAG.FINITE_TIME_COLLAPSE
    assert zero_mu.collapse_direction == "future"
    free = ht.classify("positive", 0.0, 0.0)
    assert free.tag == TAG.FINITE_TIME_COLLAPSE
    assert free.collapse_time == pytest.approx(1.5, rel=1e-9)
    assert ht.classify("positive", 0.0, 0.5).tag == TAG.ETERNAL_PAST_DIVERGENT_FUTURE_FINITE
    assert ht.classify("positive", 0.0, 1.0).tag == TAG.FINITE_TIME_COLLAPSE
    assert ht.classify("positive", 0.0, math.sqrt(2.0 / 3.0)).tag == TAG.STATIC


def test_negative_case_bullets():
    low_mu = 0.2  # mu^2 below the lower pole
    kc = ht.kappa_crit_n(low_mu)
    assert ht.classify("negative", 0.5 * kc, low_mu).tag == TAG.ETERNAL_PAST_FINITE_FUTURE_DIVERGENT
    assert ht.classify("negative", kc, low_mu).tag == TAG.STATIC
    assert ht.classify("negative", 2.0 * kc, low_mu).tag == TAG.ETERNAL_REGULAR
    band_mu = 1.2  # between the poles: no static curve
    for kap in (0.5, 3.0, 20.0):
        assert (
            ht.classify("negative", kap, band_mu).tag
            == TAG.ETERNAL_PAST_FINITE_FUTURE_DIVERGENT
        )
    high_mu = 2.4
    kc_high = ht.kappa_crit_n(high_mu)
    assert (
        ht.classify("negative", 0.5 * kc_high, high_mu).tag
        == TAG.ETERNAL_PAST_FINITE_FUTURE_DIVERGENT
    )
    assert ht.classify("negative", kc_high, high_mu).tag == TAG.STATIC
    collapse = ht.classify("negative", 2.0 * kc_high, high_mu)
    assert collapse.tag == TAG.FINITE_TIME_COLLAPSE
    assert collapse.collapse_direction == "future"
    past = ht.classify("negative", 0.0, 1.0)
    assert past.tag == TAG.FINITE_TIME_COLLAPSE
    assert past.collapse_direction == "past"
    free = ht.classify("negative", 0.0, 0.0)
    assert free.tag == TAG.FINITE_TIME_COLLAPSE
    assert free.collapse_time == pytest.approx(-1.5, rel=1e-9)
    assert ht.classify("negative", 7.0, 0.0).tag == TAG.FINITE_TIME_COLLAPSE
    assert ht.classify("negative", 6.0, 0.0).tag == TAG.STATIC
    assert ht.classify("negative", 5.0, 0.0).tag == TAG.ETERNAL_PAST_FINITE_FUTURE_DIVERGENT


def test_flat_case_bullets():
    assert ht.classify("flat", 1.0, 1.0).tag == TAG.ETERNAL_PAST_FINITE_FUTURE_DIVERGENT
    assert ht.classify("flat", 4.0, 1.0).tag == TAG.STATIC
    fut = ht.classify("flat", 1.0, 2.5)
    assert fut.tag == TAG.FINITE_TIME_COLLAPSE
    assert fut.collapse_time == pytest.approx(ht.flat_collapse_time(1.0, 2.5), rel=1e-9)
    past = ht.classify("flat", 0.0, 1.5)
    assert past.tag == TAG.FINITE_TIME_COLLAPSE
    assert past.collapse_time == pytest.approx(-1.0 / (3.0 * 1.5**2), rel=1e-9)
    assert ht.classify("flat", 2.0, 0.0).tag == TAG.STATIC


def test_su2_case_bullet():
    behavior = ht.classify("su2", 1.4, 0.0)
    assert behavior.tag == TAG.FINITE_TIME_COLLAPSE
    assert behavior.collapse_time == pytest.approx(ht.su2_collapse_time(1.4), rel=1e-9)
    assert behavior.sigma_past == pytest.approx(3.0, rel=1e-9)


def test_threshold_mu_is_unresolved():
    mu = math.sqrt(ht.MU_THRESHOLD_CUBIC_SQ)
    kap = 2.0 * max(ht.kappa_crit_p(mu), 0.0) + 1.0
    assert ht.classify("positive", kap, mu).tag == TAG.UNRESOLVED


def test_classifier_agrees_with_trajectories():
    points = [
        ("positive", 0.1, 1.0),
        ("positive", 1.0, 1.0),
        ("negative", 3.0, 0.2),
        ("negative", 40.0, 0.2),
        ("negative", 1.0, 1.2),
        ("flat", 1.0, 0.5),
        ("flat", 1.0, 2.5),
        ("su2", 1.0, 0.0),
    ]
    for case, kappa, mu in points:
        for sigma0 in (1.0, 0.4, 2.5):
            a = ht.classify(case, kappa, mu, sigma0)
            b = ht.classify_from_trajectory(case, kappa, mu, sigma0)
            assert a.tag == b.tag, (case, kappa, mu, sigma0)


@pytest.mark.parametrize("sigma0", [1e9, ht.M_BLOWUP, ht.EPS_COLLAPSE, 1e-13])
def test_trajectory_classifier_rejects_a_start_outside_the_thresholds(sigma0):
    # No leg can meet its terminal event from a start at or beyond a threshold.
    with pytest.raises(ValueError, match="strictly between EPS_COLLAPSE"):
        ht.classify_from_trajectory("positive", 1.0, 1.0, sigma0)


def test_trajectory_classifier_rejects_a_start_whose_time_overflows():
    # dt/dtau = sigma^2 / F = 1e308 at the start, against atol 1e-13: the
    # solver's initial step underflows to 0 (it used to divide by it).
    with pytest.raises(ValueError, match="initial step underflows"):
        ht.classify_from_trajectory("flat", 0.0, 1e-154, 1.0)


@pytest.mark.parametrize(
    "sigma0", [math.nextafter(ht.EPS_COLLAPSE, 1.0), math.nextafter(ht.M_BLOWUP, 0.0)]
)
def test_trajectory_classifier_accepts_a_start_just_inside_the_thresholds(sigma0):
    for case, kappa, mu in (("positive", 1.0, 1.0), ("su2", 1.0, 0.0), ("negative", 3.0, 0.2)):
        assert (
            ht.classify_from_trajectory(case, kappa, mu, sigma0).tag
            == ht.classify(case, kappa, mu, sigma0).tag
        )


@pytest.mark.parametrize("sigma0", [5e7, math.nextafter(ht.M_BLOWUP, 0.0)])
def test_trajectory_classifier_follows_a_slow_leg_to_its_threshold(sigma0):
    # F = mu^2 / sigma - kappa mu^4 / (4 sigma^4) is about 5e-9 here: in t the
    # blow-up lies near t = 1e24 and the stall by the root 0.397 beyond
    # t = -1e23, but each leg is integrated in a time where log sigma moves
    # at unit speed.
    a = ht.classify("flat", 1.0, 0.5, sigma0)
    b = ht.classify_from_trajectory("flat", 1.0, 0.5, sigma0)
    assert a.tag is b.tag is TAG.ETERNAL_PAST_FINITE_FUTURE_DIVERGENT
    assert b.sigma_past == pytest.approx(a.sigma_past, rel=1e-6)
    assert b.sigma_future is None


def test_trajectory_classifier_agrees_with_classify_across_scales():
    # Starts from just above the collapse threshold to just below the blow-up
    # one; before the regularised legs, slow flat starts raised RuntimeError.
    rng = np.random.default_rng(5)
    for k in range(24):
        case = ("positive", "flat", "negative", "su2")[k % 4]
        kappa, mu = float(rng.uniform(0.01, 3.0)), float(rng.uniform(0.0, 2.5))
        sigma0 = float(10.0 ** rng.uniform(-7.9, 7.99))
        a = ht.classify(case, kappa, mu, sigma0)
        b = ht.classify_from_trajectory(case, kappa, mu, sigma0)
        assert a.tag is b.tag, (case, kappa, mu, sigma0)


def test_trajectory_classifier_follows_a_slow_relaxation():
    # The forward leg reaches the stall threshold only after about twice its
    # first span (roots 0.490 and 3.513).
    case, kappa, mu = "positive", 0.0499266523989978, 2.87899379041725
    assert ht.classify(case, kappa, mu).tag == TAG.ETERNAL_REGULAR
    behavior = ht.classify_from_trajectory(case, kappa, mu)
    assert behavior.tag == TAG.ETERNAL_REGULAR
    assert behavior.sigma_future == pytest.approx(3.5134465, rel=1e-6)


def test_behavior_tag_strings():
    assert TAG.ETERNAL_REGULAR.value == "EternalRegular"
    assert TAG.FINITE_TIME_COLLAPSE.value == "FiniteTimeCollapse"
    assert TAG.STATIC.value == "Static"


# ---------------------------------------------------------------------------
# sweeps and consistency
# ---------------------------------------------------------------------------


def test_sweep_grid_matches_pointwise_and_is_deterministic():
    kappas = np.linspace(0.0, 1.0, 5)
    mus = np.linspace(0.0, 2.0, 5)
    first = ht.sweep_grid("positive", kappas, mus)
    again = ht.sweep_grid("positive", list(kappas), list(mus))
    assert first.shape == (5, 5)
    for i, kap in enumerate(kappas):
        for j, mu in enumerate(mus):
            assert first[i, j] is again[i, j]
            assert first[i, j] is ht.classify("positive", float(kap), float(mu)).tag


@pytest.mark.parametrize("case", ["positive", "flat", "negative", "su2"])
def test_sweep_grid_returns_the_tag_members_themselves(case):
    kappas, mus = _dense_axes(case)
    tags = ht.sweep_grid(case, kappas, mus)
    assert tags.dtype == object
    members = tuple(TAG)
    for tag in tags.ravel().tolist():
        assert any(tag is member for member in members)
    assert tuple(ht._TAGS) == members


def _dense_axes(case):
    """A grid through every place where the classifier's branches meet:
    the kappa_crit_n poles, the cubic threshold, mu^2 = 2/3, mu = 0,
    kappa = 0, the positive degree drop at kappa = 3, and a point on each
    static curve."""
    special = [
        math.sqrt(ht.MU_POLE_MINUS_SQ),
        math.sqrt(ht.MU_POLE_PLUS_SQ),
        math.sqrt(ht.MU_THRESHOLD_CUBIC_SQ),
        math.sqrt(2.0 / 3.0),
    ]
    mus = sorted(set(np.linspace(0.0, 3.0, 21).tolist() + special))
    kappas = np.linspace(0.0, 6.0, 19).tolist() + [0.05, 3.0]
    for mu in mus[1::3]:
        curve = [ht.kappa_crit_p(mu), 4.0 / mu**2]
        if abs(mu**2 - ht.MU_POLE_MINUS_SQ) > 1e-6 and abs(mu**2 - ht.MU_POLE_PLUS_SQ) > 1e-6:
            curve.append(ht.kappa_crit_n(mu))
        kappas += [k for k in curve if 0.0 < k < 12.0]
    if case == "su2":
        kappas = [k for k in kappas if k > 0.0]
    return sorted(set(kappas)), mus


@pytest.mark.parametrize(
    "case, expected",
    [
        ("positive", {TAG.STATIC, TAG.UNRESOLVED, TAG.FINITE_TIME_COLLAPSE, TAG.ETERNAL_REGULAR}),
        ("flat", {TAG.STATIC, TAG.FINITE_TIME_COLLAPSE, TAG.ETERNAL_PAST_FINITE_FUTURE_DIVERGENT}),
        ("negative", {TAG.STATIC, TAG.FINITE_TIME_COLLAPSE, TAG.ETERNAL_PAST_FINITE_FUTURE_DIVERGENT}),
        ("su2", {TAG.FINITE_TIME_COLLAPSE}),
    ],
)
def test_sweep_grid_equals_classify_on_dense_grid(case, expected):
    kappas, mus = _dense_axes(case)
    tags = ht.sweep_grid(case, kappas, mus)
    assert tags.shape == (len(kappas), len(mus))
    seen = set()
    for i, kap in enumerate(kappas):
        for j, mu in enumerate(mus):
            ref = ht.classify(case, kap, mu).tag
            assert tags[i, j] is ref, (case, kap, mu)
            seen.add(ref)
    assert expected <= seen


def _fates_by_cell(case, kappas, mus, sigma0):
    """Each cell's tag by the per-cell rule: the roots of the cell's own
    quintic, one companion eigenproblem each (:func:`_positive_roots`, with
    its 1e-12 floor), read against ``sigma0``."""
    coeffs = ht._coefficients(case, kappas, mus).reshape(-1, 6)
    mask, re = ht._positive_roots(coeffs)
    tags = []
    for (kappa, mu), row, m, r in zip(itertools.product(kappas, mus), coeffs, mask, re):
        f0 = ht._F_from_coefficients(row, sigma0)
        below, above = np.any(r[m] < sigma0), np.any(r[m] > sigma0)
        if ht._is_static(row, f0, sigma0):
            tags.append(TAG.STATIC)
        elif (
            case == "positive"
            and kappa > max(0.0, ht.kappa_crit_p(mu))
            and abs(mu**2 - ht.MU_THRESHOLD_CUBIC_SQ) <= 1e-9
        ):
            tags.append(TAG.UNRESOLVED)
        elif not below:
            tags.append(TAG.FINITE_TIME_COLLAPSE)
        elif not above:
            tags.append(
                TAG.ETERNAL_PAST_FINITE_FUTURE_DIVERGENT if f0 > 0.0 else TAG.ETERNAL_PAST_DIVERGENT_FUTURE_FINITE
            )
        else:
            tags.append(TAG.ETERNAL_REGULAR)
    return tags


_SIGMA0S = (1e-7, 1e-3, 0.37, 1.0, 2.9, 3.0, 50.0)


@pytest.mark.parametrize("case", ["positive", "flat", "negative", "su2", "general"])
def test_fates_equal_the_per_cell_rule_on_dense_grids(case):
    kappas, mus = _dense_axes(case)
    mus = sorted(set(mus + [-mu for mu in mus]))
    for sigma0 in _SIGMA0S:
        tags = ht._fates(case, kappas, mus, sigma0)[0]
        assert tags.tolist() == _fates_by_cell(case, kappas, mus, sigma0), sigma0


_DENSE_KAPPAS, _DENSE_MUS = _dense_axes("positive")


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["positive", "flat", "negative", "su2", "general"]),
    st.lists(st.one_of(st.floats(0.0, 6.0), st.sampled_from(_DENSE_KAPPAS)), min_size=1, max_size=8),
    st.lists(
        st.one_of(st.floats(-3.0, 3.0), st.sampled_from(_DENSE_MUS + [-mu for mu in _DENSE_MUS])),
        min_size=1,
        max_size=8,
    ),
    st.one_of(st.sampled_from(_SIGMA0S), st.floats(1e-7, 50.0)),
)
@example("positive", [0.0], [6.3467496966003585e-46], 1e-7)  # the root 7.8e-46 lies below the floor
def test_fates_equal_the_per_cell_rule(case, kappas, mus, sigma0):
    # Where the two differ, the per-cell rule's 1e-12 floor hid a root (a tiny
    # mu puts one near sqrt(3/2) |mu|), and an exact count decides.
    if case == "su2":  # 12 / kappa must be finite
        kappas = [kappa for kappa in kappas if kappa > 1e-300] or [1.0]
    tags, f0 = ht._fates(case, kappas, mus, sigma0)[:2]
    reference = _fates_by_cell(case, kappas, mus, sigma0)
    coeffs = ht._coefficients(case, kappas, mus).reshape(-1, 6)
    for tag, ref, row, f in zip(tags, reference, coeffs, f0):
        if tag is not ref:
            assert tag is _tag_from_roots(*_roots_either_side_exact(row, sigma0), f > 0.0), (tag, ref, row)


@pytest.mark.parametrize("case, calls", [("positive", 2), ("flat", 2), ("negative", 2), ("general", 2), ("su2", 0)])
def test_sweep_grid_solves_two_eigenproblem_stacks_whatever_its_size(count_calls, case, calls):
    # One stack of roots of B and one of W per grid, none per cell; su2 has no curve.
    roots = count_calls(ht, "_positive_roots")
    for nk, nm in ((1, 1), (3, 40), (60, 2), (41, 41), (0, 3), (3, 0)):
        before = len(roots)
        assert ht.sweep_grid(case, np.linspace(0.1, 6.0, nk), np.linspace(-3.0, 3.0, nm)).shape == (nk, nm)
        assert len(roots) - before == calls, (nk, nm)


def _positive_roots_exact(coeffs):
    """The positive real roots of the quintic, ascending, by mpmath at 400
    digits in ``z = y / l``, with ``l`` the geometric mean of the roots'
    magnitudes: enough to tell a real root from a complex pair down to
    subnormal coefficients."""
    mpmath = pytest.importorskip("mpmath")
    c = [mpmath.mpf(ck) for ck in np.trim_zeros(coeffs).tolist()]
    real = []
    with mpmath.workdps(400):
        if len(c) > 1:
            scale = abs(c[-1] / c[0]) ** (mpmath.mpf(1) / (len(c) - 1))
            scaled = [ck * scale ** (len(c) - 1 - k) for k, ck in enumerate(c)]
            roots = [scale * z for z in mpmath.polyroots(scaled, maxsteps=200, extraprec=400)]
            real = [float(r.real) for r in roots if abs(mpmath.im(r)) <= 1e-40 * abs(r) and r.real > 0]
    return sorted(real)


def _roots_either_side(coeffs, sigma0):
    """The positive roots of the quintic nearest ``sigma0`` below and above it
    (``None`` where there is none), by :func:`_positive_roots_exact`."""
    real = _positive_roots_exact(coeffs)
    below = max((r for r in real if r < sigma0), default=None)
    above = min((r for r in real if r > sigma0), default=None)
    return below, above


def _roots_either_side_exact(coeffs, sigma0):
    """Whether the quintic has a positive root below ``sigma0`` and one above
    it: Sturm counts by sympy on the coefficients' exact rationals."""
    sympy = pytest.importorskip("sympy")
    c = np.trim_zeros(coeffs).tolist()  # no root at 0
    if len(c) < 2:
        return False, False
    poly = sympy.Poly([sympy.Rational(ck) for ck in c], sympy.Symbol("y"))
    start = sympy.Rational(sigma0)
    return poly.count_roots(0, start) > 0, poly.count_roots(start, None) > 0


def _tag_from_roots(below, above, rising):
    """The fate of a start that is neither static nor unresolved, from
    whether a root lies below it and above it."""
    if not below:
        return TAG.FINITE_TIME_COLLAPSE
    if not above:
        return TAG.ETERNAL_PAST_FINITE_FUTURE_DIVERGENT if rising else TAG.ETERNAL_PAST_DIVERGENT_FUTURE_FINITE
    return TAG.ETERNAL_REGULAR


# Starts whose one root lies far below the unit scale: 5.0e-17 and 6.9e-31.
_TINY_ROOT_STARTS = [
    ("negative", 1e-16, 0.0, 1e-16),
    ("general", 1.0945366673135564e-30, -1.0945366673135564e-30, 1.0945366673135564e-30),
]


@pytest.mark.parametrize(
    "case, kappa, mu, sigma0",
    [
        *_TINY_ROOT_STARTS,
        ("negative", 1e-16, 0.0, 1.0),
        ("positive", 0.1, 1.0, 1.0),
        ("positive", 0.0499266523989978, 2.87899379041725, 1.0),
        ("negative", 3.0, 0.2, 0.4),
        ("negative", 40.0, 0.2, 2.5),
        ("flat", 1.0, 0.5, 5e7),
        ("flat", 1.0, 2.5, 1.0),
        ("su2", 1.4, 0.0, 0.4),
    ],
)
def test_classify_limits_are_the_nearest_roots(case, kappa, mu, sigma0):
    behavior = ht.classify(case, kappa, mu, sigma0)
    below, above = _roots_either_side(ht.problem_coefficients(ht.HomothetyProblem(case, kappa, mu)), sigma0)
    rising = behavior.f_at_start > 0.0
    assert behavior.tag is _tag_from_roots(below is not None, above is not None, rising)
    for limit, root in zip((behavior.sigma_past, behavior.sigma_future), (below, above) if rising else (above, below)):
        assert (limit is None) == (root is None)
        if root is not None:
            assert limit == pytest.approx(root, rel=1e-12)


def _quintic_by_hand(case, kappa, mu, s):
    """The coefficients of y^4 F written out in Python float arithmetic."""
    if case == "su2":
        return [4.0 / kappa, -12.0 / kappa, 0.0, 0.0, 0.0, 0.0]
    s = {"positive": 1.0, "flat": 0.0, "negative": -1.0}.get(case, s)
    return [
        (2.0 * kappa * s / 3.0 - 2.0) * (s / 3.0),
        -kappa * s**2 / 3.0,
        mu**2,
        -kappa * s * mu**2,
        0.0,
        -kappa * mu**4 / 4.0,
    ]


def test_grid_coefficients_equal_scalar_bit_for_bit():
    # numpy's ** rounds mu**2 and mu**4 differently from Python floats on a
    # few percent of values; random mus make such a difference show.
    rng = np.random.default_rng(7)
    mus = [0.0, math.sqrt(2.0 / 3.0)] + rng.uniform(0.0, 4.0, 400).tolist()
    s = -0.37
    for case in ("positive", "flat", "negative", "su2", "general"):
        kappas, _ = _dense_axes(case)
        kappas = kappas[::4] + [3.0]
        grid = ht._coefficients(case, kappas, mus, s)
        for i, kap in enumerate(kappas):
            for j, mu in enumerate(mus):
                ref = np.array(_quintic_by_hand(case, kap, mu, s))
                assert grid[i, j].tobytes() == ref.tobytes(), (case, kap, mu)
    for case, kap, mu in (("general", 1.3, 0.7), ("su2", 1.3, 0.0)):
        got = ht.problem_coefficients(ht.HomothetyProblem(case, kap, mu, s))
        assert got.tobytes() == np.array(_quintic_by_hand(case, kap, mu, s)).tobytes()


def _positive_roots_reference(coeffs):
    """Sorted positive real roots of one polynomial, through np.roots."""
    if np.max(np.abs(coeffs)) == 0.0:
        return ()
    out = []
    for r in np.roots(coeffs):
        if abs(r.imag) <= 1e-9 * max(1.0, abs(r.real)) and r.real > 1e-12:
            out.append(float(r.real))
    return tuple(sorted(out))


@pytest.mark.parametrize("width", [3, 6, 9])
def test_positive_roots_equal_np_roots_bit_for_bit(width):
    rng = np.random.default_rng(width)
    n = 2000
    rows = rng.normal(size=(n, width)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n, width))
    # Leading and trailing zeros, which np.roots strips, interior zeros, and
    # all-zero rows.
    lead = rng.integers(0, width + 1, n)
    trail = rng.integers(0, width + 1, n)
    cols = np.arange(width)
    rows[(cols < lead[:, None]) | (cols >= width - trail[:, None])] = 0.0
    rows[rng.random((n, width)) < 0.15] = 0.0
    assert np.any(~rows.any(axis=1))
    mask, re = ht._positive_roots(rows)
    assert mask.shape == re.shape == (n, width - 1)
    for row, m, r in zip(rows, mask, re):
        assert tuple(sorted(r[m].tolist())) == _positive_roots_reference(row), row


def _assert_roots_exact(roots, coeffs):
    exact = _positive_roots_exact(coeffs)
    assert len(roots) == len(exact), (roots, exact)
    for root, ref in zip(roots, exact):
        assert root == pytest.approx(ref, rel=1e-12), (roots, exact)


def test_classify_roots_are_the_exact_positive_roots():
    rng = np.random.default_rng(5)
    starts = list(_TINY_ROOT_STARTS)
    for _ in range(400):
        case = str(rng.choice(["positive", "flat", "negative", "su2"]))
        kappa = float(rng.choice([rng.uniform(0.0, 6.0), 3.0, 0.0]))
        if case == "su2" and kappa == 0.0:
            kappa = 0.5
        mu = float(rng.choice([rng.uniform(0.0, 3.0), 0.0]))
        starts.append((case, kappa, mu, float(10.0 ** rng.uniform(-1.0, 1.0))))
    for case, kappa, mu, sigma0 in starts:
        coeffs = ht.problem_coefficients(ht.HomothetyProblem(case=case, kappa=kappa, mu=mu))
        _assert_roots_exact(ht.classify(case, kappa, mu, sigma0).roots, coeffs)


_ONE_OF_EACH_TAG = [
    ("flat", 4.0, 1.0, 1.0),  # static
    ("positive", ht.kappa_crit_p(1.5) / 2.0, 1.5, 1.0),  # eternal and regular
    ("negative", 40.0, 0.2, 2.5),  # divergent in the future
    ("positive", 0.0, 0.5, 10.0),  # divergent in the past
    ("flat", 1.0, 2.5, 1.0),  # collapse
    ("positive", 3.0, math.sqrt(ht.MU_THRESHOLD_CUBIC_SQ), 1.0),  # unresolved
    ("su2", 1.4, 0.0, 0.4),
    ("general", 1.0, 0.5, 1.0),
]


def test_classify_and_quadrature_read_one_fate_rule(count_calls):
    # One _fates call, and so one stack of roots of B and one of W (none for
    # su2), is all a call needs: the tag, limits, roots and guard share it.
    fates, roots = count_calls(ht, "_fates"), count_calls(ht, "_positive_roots")
    tags = set()
    for case, kappa, mu, sigma0 in _ONE_OF_EACH_TAG:
        before = len(fates), len(roots)
        tags.add(ht.classify(case, kappa, mu, sigma0).tag)
        assert (len(fates) - before[0], len(roots) - before[1]) == (1, 0 if case == "su2" else 2), case
        before = len(fates), len(roots)
        try:
            ht.collapse_time_quadrature(ht.HomothetyProblem(case, kappa, mu, sigma0=sigma0))
        except ValueError:
            pass
        assert (len(fates) - before[0], len(roots) - before[1]) == (1, 0 if case == "su2" else 2), case
    assert tags == set(TAG)


@pytest.mark.parametrize("s", [-1.0, 1.0, -5e7, 2e-5])
def test_collapse_time_quadrature_sees_the_roots_of_a_general_s(s):
    # The fate rule must read the problem's own s, not the general case's 0;
    # s far from +-1 takes its knots from the curve of sign(s).
    for kappa, mu in ((0.3, 0.4), (1.0, 1.2), (4.0, 2.0), (4.8, 0.6), (0.05, 2.8), (2.0, 0.0)):
        problem = ht.HomothetyProblem("general", kappa, mu, s)
        exact = _positive_roots_exact(ht.problem_coefficients(problem))
        starts = [y * f for y in exact for f in (0.99, 1.01)] or [1.0]
        for sigma0 in starts + [min(exact, default=1.0) / 10.0]:
            problem = ht.HomothetyProblem("general", kappa, mu, s, sigma0)
            _assert_roots_exact(ht._fate_and_roots(problem)[2], ht.problem_coefficients(problem))
            if any(y <= sigma0 for y in exact):
                with pytest.raises(ValueError, match="F has a root in"):
                    ht.collapse_time_quadrature(problem)
            else:
                assert math.isfinite(ht.collapse_time_quadrature(problem)), (kappa, mu, sigma0)


def test_su2_reduction_matches_remark_coefficients():
    # At g = I and f = 0 on catalog("su2", kappa) the tensor flow is F(1) I,
    # with F's coefficients (4/kappa, -12/kappa); tests/test_symbolic.py
    # derives the relation exactly.
    for kappa in (0.4, 1.0, 1.9):
        state = hf.FlowState3(algebra=hg.catalog("su2", kappa=kappa), g=np.eye(3), f=0.0)
        g_dot, _ = hf.rhs_3d(state, kappa)
        problem = ht.HomothetyProblem("su2", kappa)
        np.testing.assert_allclose(ht.problem_coefficients(problem), [4.0 / kappa, -12.0 / kappa, 0, 0, 0, 0])
        np.testing.assert_allclose(g_dot, ht.F_value(problem, 1.0) * np.eye(3), rtol=1e-14, atol=1e-14 / kappa)


_NOT_HOMOGENEOUS = pytest.mark.xfail(
    strict=True, reason="the kappa s terms of the s != 0 quintics break the scaling symmetry (ROADMAP item 3)"
)


# su2 is left out: catalog("su2", kappa) ties its brackets to kappa
# (a = 1/(2 sqrt(kappa))), so the symmetry maps its family at kappa to brackets
# that no ("su2", 4 kappa) problem describes.
@pytest.mark.parametrize(
    "case",
    [
        "flat",
        pytest.param("positive", marks=_NOT_HOMOGENEOUS),
        pytest.param("negative", marks=_NOT_HOMOGENEOUS),
        pytest.param("general", marks=_NOT_HOMOGENEOUS),
    ],
)
# No shrinking: the strict xfails fail at once, and shrinking would only slow them.
@settings(max_examples=100, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    kappa=st.just(0.0) | st.floats(1e-3, 10.0),
    mu=st.floats(1e-3, 10.0),
    s=st.floats(0.1, 3.0) | st.floats(-3.0, -0.1),
    y=st.floats(1e-3, 1e3),
)
@example(kappa=0.0, mu=9.445326479116778, s=2.548957510305637, y=220.04025557322777)  # pow's last bit
def test_F_is_homogeneous_under_the_scaling_symmetry(case, kappa, mu, s, y):
    # g = sigma g0 and f = mu sigma^(-3/2) under (g, f, kappa, t) ->
    # (4g, f/2, 4kappa, 4t): sigma -> 4 sigma, mu -> 4 mu, and F = sigma sigma'
    # -> 4F.  The quintic's coefficients and its Horner value p scale by powers
    # of two, bit for bit, but F = p / y**4, and libm's pow is not correctly
    # rounded: (4y)**4 and 256 y**4 differ in the last bit for about 1 y in
    # 2 000.  Each power lies within 1 ulp of exact and each quotient rounds
    # once, so the sides agree to 3 eps |F|, and |F| is at most the size of its
    # terms, sum_k |c_k| y^(1-k), as _is_static sizes them.
    problem = ht.HomothetyProblem(case, 4.0 * kappa, 4.0 * mu, s)
    scaled = ht.F_value(problem, 4.0 * y)
    terms = ht._F_in_powers_of_inverse(np.abs(ht.problem_coefficients(problem)), 4.0 * y)
    unscaled = ht.F_value(ht.HomothetyProblem(case, kappa, mu, s), y)
    assert abs(scaled - 4.0 * unscaled) <= 3.0 * np.finfo(float).eps * terms


def test_problem_validation():
    with pytest.raises(ValueError):
        ht.HomothetyProblem(case="weird", kappa=1.0)
    with pytest.raises(ValueError):
        ht.HomothetyProblem(case="flat", kappa=-1.0)
    with pytest.raises(ValueError):
        ht.HomothetyProblem(case="flat", kappa=1.0, sigma0=0.0)
    with pytest.raises(ValueError):
        ht.HomothetyProblem(case="su2", kappa=0.0)


@pytest.mark.parametrize("field", ["kappa", "mu", "s", "sigma0"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_problem_rejects_non_finite(field, value):
    args = {"case": "general", "kappa": 1.0, "mu": 0.5, "s": 1.0, "sigma0": 1.0}
    args[field] = value
    with pytest.raises(ValueError, match=field):
        ht.HomothetyProblem(**args)


@pytest.mark.parametrize("mu", [math.nan, math.inf])
def test_classify_non_finite_mu_is_a_clean_value_error(mu):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="mu must be finite"):
            ht.classify("positive", 1.0, mu)


def _first_classify_error(case, kappas, mus):
    for kap in kappas:
        for mu in mus:
            try:
                ht.classify(case, kap, mu)
            except ValueError as exc:
                return str(exc)
    return None


@pytest.mark.parametrize(
    "case, kappas, mus",
    [
        ("negative", [0.5, -1.0], [0.0, 1.0]),
        ("negative", [-1.0, 0.5], [0.0, math.nan]),
        ("negative", [0.5, -1.0], [0.0, math.nan]),
        ("positive", [0.5, math.inf], [1.0]),
        ("flat", [0.5], [1.0, -math.inf]),
        ("su2", [1.0, 0.0], [0.0, 1.0]),
        ("su2", [0.0], [math.nan]),
        ("weird", [1.0], [1.0]),
        # finite couplings whose quintic coefficients overflow
        ("positive", [0.5, 1e300], [0.0, 1e5]),
        ("positive", [1e308], [0.5]),
        ("flat", [1.0], [0.5, 1e200]),
        ("su2", [1.0, 1e-310], [0.0]),
    ],
)
def test_sweep_grid_rejects_what_classify_rejects(case, kappas, mus):
    message = _first_classify_error(case, kappas, mus)
    assert message is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            ht.sweep_grid(case, kappas, mus)
    assert str(info.value) == message


def _check_grid_per_value(case, kappas, mus):
    """The per-value grid check: one problem per ``mu`` on row 0, then one
    per ``kappa`` on column 0."""
    if kappas and mus:
        for mu in mus:
            ht.HomothetyProblem(case=case, kappa=kappas[0], mu=mu)
        for kappa in kappas:
            ht.HomothetyProblem(case=case, kappa=kappa, mu=mus[0])


def _error_of(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("case", ["positive", "su2", "weird"])
def test_check_grid_raises_the_per_value_loops_error(case):
    # Each bad kappa in row 0 (index 0) or further down column 0 (index 2),
    # with each bad mu in column 0 (index 0) or further along row 0 (index 2),
    # alone and together.
    bad_kappas = [None, math.nan, math.inf, -1.0, 0.0, -0.0, 5e-324]
    bad_mus = [None, math.nan, math.inf, -math.inf, -0.0, 1e300]
    raised = 0
    for bad_kappa, kappa_at, bad_mu, mu_at in itertools.product(bad_kappas, [0, 2], bad_mus, [0, 2]):
        kappas, mus = [0.5, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0]
        if bad_kappa is not None:
            kappas[kappa_at] = bad_kappa
        if bad_mu is not None:
            mus[mu_at] = bad_mu
        expected = _error_of(_check_grid_per_value, case, kappas, mus)
        assert _error_of(ht._check_grid, case, kappas, mus) == expected, (kappas, mus)
        raised += expected is not None
    assert raised > 0
    assert ht._check_grid(case, [], [math.nan]) is None
    assert ht._check_grid(case, [math.nan], []) is None


@pytest.mark.parametrize(
    "fn, args",
    [
        (ht.problem_coefficients, (ht.HomothetyProblem("general", 1.0, 1e200, 1.0),)),
        (ht.F_value, (ht.HomothetyProblem("general", 1.0, 1e200, 0.5), 1.0)),
        (ht.F_value, (ht.HomothetyProblem("positive", 1.0, 1e200), 1.0)),
        (ht.F_value, (ht.HomothetyProblem("flat", 1.0, -1e200), 1.0)),
        (ht.F_value, (ht.HomothetyProblem("negative", 1.0, 1e100), 1.0)),  # mu**4 overflows from |mu| ~ 1.2e77
        (ht.kappa_crit_p, (1e200,)),
        (ht.kappa_crit_n, (-1e200,)),
        (ht.kappa0, (1e60,)),
        (ht.flat_closed_form, (1.0, 1e200, 0.5)),
        (ht.flat_closed_form, (0.0, 1e200, 0.5)),
        (ht.flat_collapse_time, (1.0, 1e200)),
    ],
)
def test_scalar_helpers_reject_overflowing_mu(fn, args):
    with pytest.raises(ValueError, match="overflow"):
        fn(*args)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "fn, args",
    [
        (ht.F_value, (ht.HomothetyProblem("positive", 1e10, 1e75), 1.0)),
        (ht.F_value, (ht.HomothetyProblem("flat", 1e10, 1e75), 1.0)),
        (ht.F_value, (ht.HomothetyProblem("negative", 1e10, 1e75), 1.0)),
        (ht.F_value, (ht.HomothetyProblem("general", 1e10, 1e75, -0.5), 1.0)),
        (ht.F_value, (ht.HomothetyProblem("su2", 1e-320), 1.0)),
    ],
)
def test_overflowing_couplings_are_blamed_on_kappa_and_mu(fn, args):
    # kappa mu^4 (or 1/kappa) overflows while mu^2 does not: the error names
    # the couplings, not the conformal factor, and no -inf coefficient leaks.
    with pytest.raises(ValueError, match="overflow the quintic"):
        fn(*args)


def test_flat_closed_form_far_past_collapse_is_out_of_domain():
    # b < 0 and an exponent beyond exp's range: t lies far past t_*
    with pytest.raises(ValueError, match="beyond the flat collapse time"):
        ht.flat_closed_form(1.0, 3.0, 1e3)


@pytest.mark.parametrize(
    "case, kappa, mu",
    [
        ("positive", 0.0, 0.0),  # sigma' = -2/3 crosses 1e-8 at a finite slope
        ("flat", 1.6707, 1.6234),  # so steep that stepping in t stalls near sigma = 0.006
    ],
)
def test_collapse_event_sits_on_the_threshold(case, kappa, mu):
    # However steep the approach, a collapse event is the crossing of
    # sigma = 1e-8, and the last sample is that point.
    problem = ht.HomothetyProblem(case=case, kappa=kappa, mu=mu)
    traj = ht.integrate(problem, (0.0, 2.0))
    (event,) = traj.events
    assert event.kind == "collapse"
    assert event.y[0] == pytest.approx(ht.EPS_COLLAPSE, rel=1e-6)
    assert (traj.t[-1], traj.sigma[-1]) == (event.t, event.y[0])
    # The event time is the time to fall from sigma0 to 1e-8.
    at_threshold = ht.HomothetyProblem(case=case, kappa=kappa, mu=mu, sigma0=ht.EPS_COLLAPSE)
    expected = ht.collapse_time_quadrature(problem) - ht.collapse_time_quadrature(at_threshold)
    assert event.t == pytest.approx(expected, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["positive", "flat", "negative", "su2"]),
    st.floats(min_value=0.01, max_value=3.0),  # su2 needs kappa > 0
    st.floats(min_value=0.0, max_value=2.5),
    st.floats(min_value=0.5, max_value=2.0),
)
@example("flat", 1.0, 1.0051776217371298e-160, 1.0)  # mu^2 is subnormal
def test_every_collapse_is_a_threshold_crossing(case, kappa, mu, sigma0):
    try:
        behavior = ht.classify(case, kappa, mu, sigma0)
    except ValueError as exc:
        # A flux so small that F underflows: the collapse lies beyond the
        # largest double in time.
        assert "collapse time overflows a double" in str(exc)
        return
    assume(behavior.tag is ht.BehaviorTag.FINITE_TIME_COLLAPSE)
    # A start where F nearly vanishes lingers by a root, and there any
    # integrated time is ill conditioned: flat, kappa = 2.00001, mu = 0.5,
    # sigma0 = 0.5 (F = -2.5e-6) is off by 1e-8 at rtol 1e-12, with or
    # without the regularised time.
    assume(abs(behavior.f_at_start) >= 1e-3)
    problem = ht.HomothetyProblem(case=case, kappa=kappa, mu=mu, sigma0=sigma0)
    at_threshold = ht.HomothetyProblem(case=case, kappa=kappa, mu=mu, sigma0=ht.EPS_COLLAPSE)
    expected = ht.collapse_time_quadrature(problem) - ht.collapse_time_quadrature(at_threshold)
    # The time is integrated, so its error is a multiple of rtol (up to 5e-8
    # relative at the default 1e-10).  At 1e-12 it is mostly below 1e-9, but
    # the last step reaches past the collapse, where the rhs is clamped, and
    # the event is interpolated inside it: su2, kappa = 2.3137, sigma0 = 1.0820
    # is off by 4.6e-9.
    traj = ht.integrate(problem, (0.0, 2.0 * behavior.collapse_time), rtol=1e-12, atol=1e-14)
    (event,) = traj.events
    assert event.kind == "collapse"
    assert event.t == pytest.approx(expected, rel=1e-8)
    # Near the threshold sigma moves at SUNDMAN_SPEED per unit of the
    # regularised time, which is below |t| + 1 here and resolved only to the
    # spacing of doubles there.
    resolution = hf.SUNDMAN_SPEED * np.spacing(abs(event.t) + 1.0)
    assert abs(event.y[0] - ht.EPS_COLLAPSE) <= max(1e-6 * ht.EPS_COLLAPSE, resolution)


def test_F_equals_polyval_bit_for_bit():
    # _F_from_coefficients runs np.polyval's Horner steps on Python floats.
    rng = np.random.default_rng(7)
    for _ in range(2000):
        coeffs = rng.normal(size=6) * 10.0 ** rng.uniform(-3.0, 3.0, size=6)
        y = float(10.0 ** rng.uniform(-3.0, 3.0))
        assert ht._F_from_coefficients(coeffs, y) == float(np.polyval(coeffs, y)) / y**4


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "fn, args",
    [
        (ht.F_value, (ht.HomothetyProblem("positive", 1e10, 1.0), 1e300)),  # F ~ c0 y overflows, y**4 too
        (ht.F_value, (ht.HomothetyProblem("su2", 1.0), 1e308)),  # F = 4y - 12 overflows
        (ht.F_value, (ht.HomothetyProblem("general", 1.0, 1.0, 3e125), 1e70)),  # F and the quintic overflow, y**4 does not
        (ht.F_value, (ht.HomothetyProblem("flat", 1.0, 1.0), 1e-100)),  # y**4 underflows to zero
        (ht.F_value, (ht.HomothetyProblem("negative", 1.0, 1.0), math.inf)),
        (ht.F_value, (ht.HomothetyProblem("su2", 1.0), math.nan)),
        (ht.F_value, (ht.HomothetyProblem(case="flat", kappa=1e300, mu=1.0), 1e-10)),  # F ~ -kappa mu^4 / 4y^4
        (ht.classify, ("su2", 1.0, 0.0, 1e308)),
        (ht.classify, ("positive", 1.0, 1.0, 1e-100)),
        (ht.classify_from_trajectory, ("su2", 1.0, 0.0, 1e308)),
        (ht.classify_from_trajectory, ("positive", 1.0, 1.0, 1e-100)),
    ],
)
def test_F_rejects_an_unrepresentable_conformal_factor(fn, args):
    with pytest.raises(ValueError, match="conformal factor"):
        fn(*args)


@pytest.mark.filterwarnings("error")
def test_F_is_finite_at_a_large_conformal_factor():
    # Above y = 1, where p(y) / y**4 is not finite, F is summed in powers of
    # 1/y; there F is c0 y + c1 up to terms far below its last bit.
    assert ht.F_value(ht.HomothetyProblem("flat", 1.0, 0.5), 1e78) == pytest.approx(0.25e-78, rel=1e-15)
    assert ht.F_value(ht.HomothetyProblem("flat", 1.0, 1.0), 1e100) == pytest.approx(1e-100, rel=1e-15)
    assert ht.F_value(ht.HomothetyProblem("positive", 1.0, 1.0), 1e100) == pytest.approx(-4e100 / 9, rel=1e-15)
    assert ht.F_value(ht.HomothetyProblem("su2", 1.0), 1e100) == pytest.approx(4e100, rel=1e-15)
    assert ht.F_value(ht.HomothetyProblem("general", 1.0, 1.0, 0.5), 1e70) == pytest.approx(-5e70 / 18, rel=1e-15)
    collapse = ht.classify("positive", 1.0, 0.5, 1e70)
    assert collapse.tag is ht.BehaviorTag.FINITE_TIME_COLLAPSE
    assert collapse.f_at_start == pytest.approx(-4e70 / 9, rel=1e-15)
    assert collapse.collapse_time == pytest.approx(2.25e70, rel=1e-9)  # int_0^sigma0 9/4 dy
    # F = mu^2 / y > 0 far above the one root: sigma grows, however small F is
    kappa, mu = 4.848285431783504, -1.6441619265703111
    for sigma0 in (1e76, 1e90):
        behavior = ht.classify("flat", kappa, mu, sigma0)
        assert behavior.tag is ht.BehaviorTag.ETERNAL_PAST_FINITE_FUTURE_DIVERGENT
        assert behavior.f_at_start == pytest.approx(mu**2 / sigma0, rel=1e-15)


@pytest.mark.parametrize("mu", [1e-155, 1e-158, 1.0051776217371298e-160])
def test_a_subnormal_flux_square_raises_value_error(mu):
    # mu^2 is subnormal and mu^4 is zero, so F = mu^2 / sigma > 0 and the start
    # collapses in the past at t = -1/(3 mu^2) (kappa = 0), beyond the largest
    # double; at 1e-158 F underflows to zero below sigma = 0.1.
    assert ht.sweep_grid("flat", [1.0], [mu])[0, 0] is TAG.FINITE_TIME_COLLAPSE
    for kappa in (0.0, 1.0):
        with pytest.raises(ValueError, match="collapse time overflows a double"):
            ht.classify("flat", kappa, mu, 1.0)
    # Within range the time is finite.
    assert ht.classify("flat", 0.0, 1e-154).collapse_time == pytest.approx(-1.0 / 3e-308, rel=1e-9)


def test_collapse_time_quadrature_rejects_a_root_below_its_threshold():
    # The one root, 6.9e-31, lies just below sigma0, and far below its unit
    # scale; the guard finds it from the fate rule's knots.
    x = 1.0945366673135564e-30
    problem = ht.HomothetyProblem("general", kappa=x, mu=-x, sigma0=x)
    with pytest.raises(ValueError, match="F has a root in"):
        ht.collapse_time_quadrature(problem)


# Magnitudes from the smallest subnormal to 1e150, and zero.
_MAGNITUDES = st.one_of(st.just(0.0), st.floats(min_value=5e-324, max_value=1e150))


def _finite_fields(value) -> bool:
    """Every number in ``value`` (a result, or a Behavior's fields) is finite."""
    fields = vars(value).values() if isinstance(value, ht.Behavior) else [value]
    items = [x for field in fields if field is not None for x in np.ravel(np.asarray(field, dtype=object))]
    return all(math.isfinite(x) for x in items if not isinstance(x, (str, TAG)))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["positive", "flat", "negative", "su2", "general"]),
    _MAGNITUDES,
    _MAGNITUDES,
    st.booleans(),
    _MAGNITUDES,
    st.one_of(_MAGNITUDES, _MAGNITUDES.map(lambda x: -x)),
)
@example("flat", 1.0, 1.0051776217371298e-160, False, 1.0, 0.0)
@example("flat", 0.0, 1.8618743999536332e16, True, 1.076076045802983e149, 0.0)  # the time overflows
@example("general", 0.0, 228987635.0, False, 1.0, 5.833624852276236e-292)  # a knot past the largest double
def test_scalar_entry_points_return_finite_fields_or_raise_value_error(case, kappa, mu, negative, sigma0, s):
    mu = -mu if negative else mu
    calls = (
        lambda: ht.problem_coefficients(ht.HomothetyProblem(case, kappa, mu, s, sigma0)),
        lambda: ht.F_value(ht.HomothetyProblem(case, kappa, mu, s), sigma0),
        lambda: ht.classify(case, kappa, mu, sigma0),
        lambda: ht.collapse_time_quadrature(ht.HomothetyProblem(case, kappa, mu, s, sigma0)),
        lambda: ht.sweep_grid(case, [kappa], [mu]),
    )
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                value = call()
            except ValueError:
                continue
        assert _finite_fields(value), value


def _static_rule_rows(rng):
    """Quintic rows of every case plus random rows spanning twelve orders."""
    rows = [
        ht.problem_coefficients(ht.HomothetyProblem(case, kappa, mu, s))
        for case, kappa, mu, s in (
            ("positive", ht.kappa_crit_p(1.2), 1.2, 0.0),
            ("negative", ht.kappa_crit_n(2.5), 2.5, 0.0),
            ("flat", 4.0 / 1.3**2, 1.3, 0.0),
            ("flat", 1.0, 1.0, 0.0),
            ("su2", 1.4, 0.0, 0.0),
            ("general", 0.7, 0.9, -2.0),
        )
    ]
    for _ in range(40):
        row = rng.choice([-1.0, 1.0], size=6) * 10.0 ** rng.uniform(-6.0, 6.0, size=6)
        row[rng.random(6) < 0.25] = 0.0
        rows.append(row)
    return rows


def test_static_rule_matches_the_exact_bound_across_scales():
    """``_is_static`` asks ``|F(sigma0)| <= 1e-12 sum_k |c_k| sigma0^(1-k)``.

    Against 40-digit mpmath values of ``F`` and of that bound, taken from the
    same doubles: the verdict is exact outside a band of 1e-3 around the
    bound, a float start on an exact root is static, and a non-static verdict
    has the sign of the exact ``F``.
    """
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(17)
    verdicts = {True: 0, False: 0}
    roots_seen = 0
    with mpmath.workdps(40):
        def exact(row, y):
            y = mpmath.mpf(y)
            terms = [mpmath.mpf(c) * y ** (1 - k) for k, c in enumerate(row.tolist())]
            return mpmath.fsum(terms), mpmath.fsum(abs(t) for t in terms)

        for row in _static_rule_rows(rng):
            nonzero = np.flatnonzero(row)  # leading and trailing zeros add no positive root
            coeffs = [mpmath.mpf(c) for c in row[nonzero[0] : nonzero[-1] + 1].tolist()]
            roots = mpmath.polyroots(coeffs, maxsteps=2000, extraprec=200) if len(coeffs) > 1 else []
            positive = [float(mpmath.re(r)) for r in roots if abs(mpmath.im(r)) < 1e-30 and mpmath.re(r) > 0]
            starts = [float(y) for y in 10.0 ** rng.uniform(-6.0, 14.0, size=12)]
            for r in positive:
                roots_seen += 1
                assert ht._is_static(row, ht._F_from_coefficients(row, r), r)
                starts += [r * (1.0 + d) for d in (-1e-14, 1e-13, -1e-12, 1e-11, -1e-9, 1e-3)]
            for y in starts:
                try:
                    f0 = ht._F_from_coefficients(row, y)
                except ValueError:  # F itself overflows at this start
                    continue
                static = bool(ht._is_static(row, f0, y))
                value, scale = exact(row, y)
                if abs(value) > 1.001e-12 * scale:
                    assert not static and (f0 > 0) == (value > 0), (row, y)
                elif abs(value) < 0.999e-12 * scale:
                    assert static, (row, y)
                verdicts[static] += 1
    assert roots_seen >= 20 and min(verdicts.values()) >= 20, (roots_seen, verdicts)


@pytest.mark.parametrize("power", [-40, -20, -7, 7, 20, 40])
def test_static_rule_is_scale_covariant(power):
    """``sigma -> l sigma``, ``c_k -> c_k l^(k-1)`` leaves ``F`` unchanged; with
    ``l`` a power of two both sides are exact, so the verdicts agree bit for bit."""
    rng = np.random.default_rng(18)
    scale = 2.0**power
    for row in _static_rule_rows(rng):
        scaled = row * scale ** np.arange(-1.0, 5.0)
        for y in [1.0, 0.37, 5.5] + [float(v) for v in 10.0 ** rng.uniform(-3.0, 3.0, size=8)]:
            f0 = ht._F_from_coefficients(row, y)
            f_scaled = ht._F_from_coefficients(scaled, y * scale)
            assert f_scaled == f0
            assert ht._is_static(scaled, f_scaled, y * scale) == ht._is_static(row, f0, y)


def test_static_rule_bound_stays_finite_where_terms_of_F_cancel_above_overflow():
    """At ``sigma0 = 5e-38`` the terms ``c3/y^2`` and ``c5/y^4`` of this
    quintic are each about 4e308 and cancel, leaving ``F = c1 = -3.3e307``."""
    problem = ht.HomothetyProblem("general", 1.0, 1e40, -1e154, sigma0=5e-38)
    coeffs = ht.problem_coefficients(problem)
    f0 = ht._F_from_coefficients(coeffs, problem.sigma0)
    assert f0 == pytest.approx(-1e308 / 3, rel=1e-12)
    assert not ht._is_static(coeffs, f0, problem.sigma0)


def test_a_flat_start_far_above_its_root_is_not_static():
    """``F = mu^2 / sigma0 > 0`` at every scale, so the start is not static."""
    mpmath = pytest.importorskip("mpmath")
    for k in range(0, 31, 3):
        sigma0 = 10.0**k
        behavior = ht.classify("flat", 1.0, 1.0, sigma0)
        assert behavior.tag is ht.BehaviorTag.ETERNAL_PAST_FINITE_FUTURE_DIVERGENT, sigma0
        with mpmath.workdps(40):
            exact = 1 / mpmath.mpf(sigma0) - mpmath.mpf(0.25) / mpmath.mpf(sigma0) ** 4
        assert behavior.f_at_start == pytest.approx(float(exact), rel=1e-15)


@pytest.mark.parametrize("n_points", [0, 1])
@pytest.mark.parametrize("kappa", [4.0, 1.0])  # a static start and an integrated one
def test_integrate_needs_two_samples(n_points, kappa):
    problem = ht.HomothetyProblem(case="flat", kappa=kappa, mu=1.0)
    with pytest.raises(ValueError, match="n_points"):
        ht.integrate(problem, (0.0, 1.0), n_points=n_points)


def test_integrate_respects_sigma0_scaling():
    problem = ht.HomothetyProblem(case="flat", kappa=1.0, mu=0.5, sigma0=2.0)
    traj = ht.integrate(problem, (0.0, 1.0))
    assert traj.sigma[0] == pytest.approx(2.0, rel=1e-12)
    assert np.all(np.asarray(traj.sigma) > 0.0)
