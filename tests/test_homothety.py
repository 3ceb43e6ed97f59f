"""Scalar conformal-factor reduction: curves, closed forms, classification."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetflow import homogeneous as hg
from hetflow import homothety as ht

TAG = ht.BehaviorTag


# ---------------------------------------------------------------------------
# critical curves
# ---------------------------------------------------------------------------


def test_kappa_crit_n_at_zero_is_exactly_six():
    assert ht.kappa_crit_n(0.0) == 6.0


def test_static_curves_annihilate_f():
    for mu in np.linspace(0.82, 4.0, 50):
        kap = ht.kappa_crit_p(float(mu))
        assert kap >= 0.0
        assert abs(ht.F_p(kap, float(mu), 1.0)) <= 1e-12
    lows = np.linspace(0.0, math.sqrt(ht.MU_POLE_MINUS_SQ) - 1e-3, 25)
    highs = np.linspace(math.sqrt(ht.MU_POLE_PLUS_SQ) + 1e-3, 5.0, 25)
    for mu in np.concatenate([lows, highs]):
        kap = ht.kappa_crit_n(float(mu))
        assert kap >= 0.0
        assert abs(ht.F_n(kap, float(mu), 1.0)) <= 1e-12


def test_kappa_crit_n_blows_up_at_poles():
    near_pole = math.sqrt(ht.MU_POLE_MINUS_SQ) + 1e-12
    assert abs(ht.kappa_crit_n(near_pole)) > 1e6


def test_kappa_crit_between_poles_is_negative():
    mu = math.sqrt(0.5 * (ht.MU_POLE_MINUS_SQ + ht.MU_POLE_PLUS_SQ))
    assert ht.kappa_crit_n(mu) < 0.0


def test_mu_threshold_cubic_root():
    x = ht.mu_threshold_cubic()
    assert 1.5 < x < 1.6
    poly = ((27.0 * x + 6.0) * x - 68.0) * x - 8.0
    assert abs(poly) <= 1e-10
    roots = np.roots([27.0, 6.0, -68.0, -8.0])
    real_positive = sorted(float(r.real) for r in roots if abs(r.imag) < 1e-12 and r.real > 0)
    assert len(real_positive) == 1
    assert real_positive[0] == pytest.approx(x, abs=1e-10)


def test_kappa0_tangency_residuals():
    for mu in (0.5, 1.0, 1.2):
        kap0, y0 = ht.kappa0(mu)
        assert 0.0 < y0 < 1.0
        assert kap0 > 0.0
        assert abs(ht.F_p(kap0, mu, y0)) <= 1e-10
        dy = 1e-6
        deriv = (ht.F_p(kap0, mu, y0 + dy) - ht.F_p(kap0, mu, y0 - dy)) / (2 * dy)
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
    assert ht.mu_threshold_cubic() == pytest.approx(1.5391526006100325, abs=1e-12)


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


@settings(max_examples=50)
@given(st.floats(min_value=-20.0, max_value=-1.0001))
def test_lambert_w_lower_branch_roundtrip(w):
    x = w * math.exp(w)
    got = ht.lambert_w(x, branch=-1)
    assert got == pytest.approx(w, rel=1e-8)


def test_lambert_w_domain_errors():
    with pytest.raises(ValueError):
        ht.lambert_w(-1.0)
    with pytest.raises(ValueError):
        ht.lambert_w(0.5, branch=-1)


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
    mu = math.sqrt(ht.mu_threshold_cubic())
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
        a = ht.classify(case, kappa, mu)
        b = ht.classify_from_trajectory(case, kappa, mu)
        assert a.tag == b.tag, (case, kappa, mu)


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


def _dense_axes(case):
    """A grid through every place where the classifier's branches meet:
    the kappa_crit_n poles, the cubic threshold, mu^2 = 2/3, mu = 0,
    kappa = 0, the positive degree drop at kappa = 3, and a point on each
    static curve."""
    special = [
        math.sqrt(ht.MU_POLE_MINUS_SQ),
        math.sqrt(ht.MU_POLE_PLUS_SQ),
        math.sqrt(ht.mu_threshold_cubic()),
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


def test_grid_coefficients_equal_scalar_bit_for_bit():
    # numpy's ** rounds mu**2 and mu**4 differently from Python floats on a
    # few percent of values; random mus make such a difference show.
    rng = np.random.default_rng(7)
    mus = [0.0, math.sqrt(2.0 / 3.0)] + rng.uniform(0.0, 4.0, 400).tolist()
    for case in ("positive", "flat", "negative", "su2", "general"):
        kappas, _ = _dense_axes(case)
        kappas = kappas[::4] + [3.0]
        grid = ht._grid_coefficients(case, kappas, mus)
        for i, kap in enumerate(kappas):
            for j, mu in enumerate(mus):
                ref = ht.problem_coefficients(ht.HomothetyProblem(case=case, kappa=kap, mu=mu))
                assert grid[i, j].tobytes() == ref.tobytes(), (case, kap, mu)


def test_check_homothety_consistency_cases():
    kappa = 1.9
    su2 = hg.catalog("su2", kappa=kappa)
    report = ht.check_homothety_consistency(su2, np.eye(3), kappa, 0.0)
    assert report.passed and not report.einstein
    assert report.reduction is not None
    hyper = hg.catalog("hyperbolic", c=0.7)
    einstein = ht.check_homothety_consistency(hyper, np.eye(3), 1.0, 0.5)
    assert einstein.passed and einstein.einstein
    heis = ht.check_homothety_consistency(hg.catalog("heisenberg"), np.eye(3), 1.0, 0.0)
    assert not heis.passed
    # su2 with nonzero flux coupling: torsion term breaks the relations
    report_mu = ht.check_homothety_consistency(su2, np.eye(3), kappa, 0.7)
    assert not report_mu.passed


def test_su2_reduction_matches_remark_coefficients():
    kappa = 1.9
    su2 = hg.catalog("su2", kappa=kappa)
    report = ht.check_homothety_consistency(su2, np.eye(3), kappa, 0.0)
    np.testing.assert_allclose(report.reduction, ht.su2_coefficients(kappa), atol=1e-10)


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


@pytest.mark.parametrize(
    "fn, args",
    [
        (ht.reduction_coefficients, (1.0, 1e200, 1.0)),
        (ht.F_general, (1.0, 1e200, 0.5, 1.0)),
        (ht.F_p, (1.0, 1e200, 1.0)),
        (ht.F_flat, (1.0, -1e200, 1.0)),
        (ht.F_n, (1.0, 1e100, 1.0)),  # mu**4 overflows from |mu| ~ 1.2e77
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


def test_flat_closed_form_far_past_collapse_is_out_of_domain():
    # b < 0 and an exponent beyond exp's range: t lies far past t_*
    with pytest.raises(ValueError, match="beyond the flat collapse time"):
        ht.flat_closed_form(1.0, 3.0, 1e3)


def test_integrate_respects_sigma0_scaling():
    problem = ht.HomothetyProblem(case="flat", kappa=1.0, mu=0.5, sigma0=2.0)
    traj = ht.integrate(problem, (0.0, 1.0))
    assert traj.sigma[0] == pytest.approx(2.0, rel=1e-12)
    assert np.all(np.asarray(traj.sigma) > 0.0)
