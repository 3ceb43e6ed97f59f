"""Acceptance gate: eight end-to-end criteria, one printed pass/fail line each.

Every criterion states its own tolerance and (where relevant) a wall-clock
budget; the fine-grained behaviour is covered by the per-module suites.
Run with ``pytest -s tests/test_acceptance.py`` to see the summary lines.
"""

import math
import time

import numpy as np
import pytest

from hetflow import chart_jets as cj
from hetflow import het_flow as hf
from hetflow import homogeneous as hg
from hetflow import homothety as ht
from hetflow import soliton as so
from hetflow import tensor_core as tc

from test_het_flow import (
    _embed_in_dim4,
    _maurer_cartan_d3,
    _random_three_form_dim4,
    _riemann_wedge_bruteforce,
)

T = ht.BehaviorTag


def _emit(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


# ---------------------------------------------------------------------------
# criterion 1: pointwise curvature identities
# ---------------------------------------------------------------------------


def test_criterion_1_curvature_identity_suite():
    tol, budget = 1e-9, 10.0
    t0 = time.perf_counter()
    worst = {
        "curvature_reconstruction": 0.0,
        "curvature_square_expansion": 0.0,
        "curvature_norm_expansion": 0.0,
        "twisted_square_expansion": 0.0,
        "twisted_norm_expansion": 0.0,
    }
    n_chart = n_hom = 0
    for k in range(100):
        chart = cj.random_chart_sample(1000 + k, maxwell=bool(k % 2))
        hom = hg.random_invariant_sample(2000 + k)
        n_chart += 1
        n_hom += 1
        for sample in (chart, hom):
            g, ric, scal = sample.g, sample.ricci, sample.scalar
            worst["curvature_reconstruction"] = max(
                worst["curvature_reconstruction"],
                tc.rel_err(sample.riemann, tc.riemann_from_ricci_dim3(g, ric, scal)),
            )
            worst["curvature_square_expansion"] = max(
                worst["curvature_square_expansion"],
                tc.rel_err(
                    tc.riemann_square(tc.metric_inverse(g), sample.riemann),
                    tc.riemann_square_dim3(g, tc.metric_inverse(g), ric, scal),
                ),
            )
            worst["curvature_norm_expansion"] = max(
                worst["curvature_norm_expansion"],
                tc.rel_err(
                    tc.riemann_norm2(tc.metric_inverse(g), sample.riemann),
                    tc.riemann_norm2_dim3(tc.metric_inverse(g), ric, scal),
                ),
            )
            worst["twisted_square_expansion"] = max(
                worst["twisted_square_expansion"],
                tc.rel_err(
                    sample.riemann_tw_sq,
                    tc.riemann_square_twisted_dim3(
                        g, tc.metric_inverse(g), ric, scal, sample.f, sample.df, sample.orientation
                    ),
                ),
            )
            worst["twisted_norm_expansion"] = max(
                worst["twisted_norm_expansion"],
                tc.rel_err(
                    sample.riemann_tw_norm2,
                    tc.riemann_norm2_twisted_dim3(
                        tc.metric_inverse(g), ric, scal, sample.f, sample.df
                    ),
                ),
            )
    elapsed = time.perf_counter() - t0
    worst_overall = max(worst.values())
    ok = worst_overall <= tol and elapsed < budget
    _emit(
        1,
        ok,
        f"five curvature identities on {n_chart} chart + {n_hom} homogeneous "
        f"samples, worst rel err {worst_overall:.2e} (tol {tol:.0e}), "
        f"{elapsed:.1f}s (budget {budget:.0f}s)",
    )
    for name, value in worst.items():
        assert value <= tol, f"{name}: {value:.3e}"
    assert elapsed < budget


# ---------------------------------------------------------------------------
# criterion 2: divergence identities
# ---------------------------------------------------------------------------


def test_criterion_2_divergence_identities():
    tol, budget = 1e-8, 30.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(314)
    worst = 0.0
    n = 0
    for k in range(100):
        sample = cj.random_chart_sample(3000 + k, maxwell=bool(k % 2))
        assert np.linalg.norm(sample.df) > 1e-12, "torsion density must be nonconstant"
        assert np.linalg.norm(sample.dilaton) > 1e-12, "dilaton must be nonconstant"
        kappa = float(rng.uniform(0.05, 3.0))
        report = so.verify_divergence_identities(sample, kappa)
        worst = max(worst, max(eq.value for eq in report.equations.values()))
        n += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= tol and elapsed < budget
    _emit(
        2,
        ok,
        f"divergence identities on {n} chart samples with nonconstant "
        f"density/dilaton, worst residual {worst:.2e} (tol {tol:.0e}), "
        f"{elapsed:.1f}s (budget {budget:.0f}s)",
    )
    assert worst <= tol
    assert elapsed < budget


# ---------------------------------------------------------------------------
# criterion 3: critical coupling curves are exact roots
# ---------------------------------------------------------------------------


def test_criterion_3_critical_curves_are_roots():
    tol = 1e-12
    worst_p = 0.0
    for mu in np.linspace(0.82, 4.0, 50):  # admissible: mu^2 > 2/3
        kc = ht.kappa_crit_p(float(mu))
        assert kc > 0.0
        problem = ht.HomothetyProblem(case="positive", kappa=kc, mu=float(mu))
        worst_p = max(worst_p, abs(ht.F_value(problem, 1.0)))

    lo = math.sqrt(ht.MU_POLE_MINUS_SQ) - 1e-3
    hi = math.sqrt(ht.MU_POLE_PLUS_SQ) + 1e-3
    mus_n = np.concatenate([np.linspace(0.0, lo, 25), np.linspace(hi, 5.0, 25)])
    worst_n = 0.0
    for mu in mus_n:
        kc = ht.kappa_crit_n(float(mu))
        assert kc > 0.0
        problem = ht.HomothetyProblem(case="negative", kappa=kc, mu=float(mu))
        worst_n = max(worst_n, abs(ht.F_value(problem, 1.0)))

    exact_six = ht.kappa_crit_n(0.0) == 6.0
    ok = worst_p <= tol and worst_n <= tol and exact_six
    _emit(
        3,
        ok,
        f"critical couplings zero the scale derivative at unit scale for 50 "
        f"admissible mu per sign (worst {worst_p:.2e} / {worst_n:.2e}, tol "
        f"{tol:.0e}); zero-flux negative threshold equals 6 exactly",
    )
    assert worst_p <= tol
    assert worst_n <= tol
    assert exact_six


# ---------------------------------------------------------------------------
# criterion 4: closed-form trajectories vs the integrator
# ---------------------------------------------------------------------------


def test_criterion_4_closed_forms_match_integrator():
    tol, budget = 1e-6, 10.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260815)
    worst_sigma = worst_event = 0.0
    n_collapse = 0
    for i in range(10):
        if i < 5:  # expanding branch (b > 0)
            kappa = float(rng.uniform(0.1, 3.0))
            mu = float(rng.uniform(0.1, math.sqrt(4.0 / kappa) * 0.9))
        else:  # collapsing branch (b < 0)
            kappa = float(rng.uniform(4.5, 12.0))
            mu = float(rng.uniform(math.sqrt(4.0 / kappa) * 1.1, 3.0))
        b = 4.0 / (kappa * mu * mu) - 1.0
        problem = ht.HomothetyProblem(case="flat", kappa=kappa, mu=mu)
        t_end = 2.0 if b > 0.0 else 2.0 * ht.flat_collapse_time(kappa, mu)
        traj = ht.integrate(problem, (0.0, t_end))
        if b < 0.0:
            n_collapse += 1
            t_star = ht.flat_collapse_time(kappa, mu)
            hits = [ev for ev in traj.events if ev.kind == "collapse"]
            assert hits, f"no collapse event for kappa={kappa}, mu={mu}"
            worst_event = max(worst_event, abs(hits[0].t - t_star) / t_star)
        cutoff = min((ev.t for ev in traj.events), default=math.inf)
        for t, sigma in zip(traj.t, traj.sigma):
            if float(t) >= cutoff - 1e-9:  # terminal event sample is degenerate
                continue
            closed = ht.flat_closed_form(kappa, mu, float(t))
            worst_sigma = max(worst_sigma, abs(sigma - closed) / abs(closed))

    kappa = 1.0
    t_max = ht.su2_collapse_time(kappa)
    traj = ht.integrate(ht.HomothetyProblem(case="su2", kappa=kappa), (0.0, 2.0 * t_max))
    hits = [ev for ev in traj.events if ev.kind == "collapse"]
    assert hits, "no round-collapse event"
    su2_err = abs(hits[0].t - t_max) / t_max
    cutoff = hits[0].t
    for t, sigma in zip(traj.t, traj.sigma):
        if float(t) >= cutoff - 1e-9:
            continue
        closed = ht.su2_closed_form(kappa, float(t))
        worst_sigma = max(worst_sigma, abs(sigma - closed) / abs(closed))

    elapsed = time.perf_counter() - t0
    ok = worst_sigma <= tol and worst_event <= tol and su2_err <= tol and elapsed < budget
    _emit(
        4,
        ok,
        f"closed forms vs integrator on 10 flat draws ({n_collapse} collapsing) "
        f"+ round case: worst scale err {worst_sigma:.2e}, worst collapse-time "
        f"err {max(worst_event, su2_err):.2e} (tol {tol:.0e}), {elapsed:.1f}s "
        f"(budget {budget:.0f}s)",
    )
    assert n_collapse >= 1
    assert worst_sigma <= tol
    assert worst_event <= tol
    assert su2_err <= tol
    assert elapsed < budget


# ---------------------------------------------------------------------------
# criterion 5: qualitative behaviour taxonomy
# ---------------------------------------------------------------------------


def test_criterion_5_behavior_taxonomy():
    budget = 60.0
    t0 = time.perf_counter()
    mu_static = math.sqrt(2.0 / 3.0)
    kcp1 = ht.kappa_crit_p(1.0)
    kcp16 = ht.kappa_crit_p(1.6)
    kcn02 = ht.kappa_crit_n(0.2)
    kcn24 = ht.kappa_crit_n(2.4)

    table = [
        # positive curvature: eternal band below the critical coupling,
        # static exactly on it, then divergent-past / finite-future, then
        # collapse above the tangency coupling; the large-flux branch ends
        # in collapse as soon as the critical coupling is crossed.
        ("positive", 0.12, 1.0, T.ETERNAL_REGULAR),
        ("positive", kcp1, 1.0, T.STATIC),
        ("positive", 0.28, 1.0, T.ETERNAL_PAST_DIVERGENT_FUTURE_FINITE),
        ("positive", 0.35, 1.0, T.FINITE_TIME_COLLAPSE),
        ("positive", 2.0 * kcp16, 1.6, T.FINITE_TIME_COLLAPSE),
        ("positive", 0.5, 0.0, T.FINITE_TIME_COLLAPSE),
        ("positive", 0.0, 0.0, T.FINITE_TIME_COLLAPSE),
        ("positive", 0.0, 0.5, T.ETERNAL_PAST_DIVERGENT_FUTURE_FINITE),
        ("positive", 0.0, mu_static, T.STATIC),
        ("positive", 0.0, 1.0, T.FINITE_TIME_COLLAPSE),
        # negative curvature: small flux splits at the critical coupling;
        # between the two flux poles every coupling is finite-past /
        # divergent-future; large flux collapses above the critical coupling.
        ("negative", 0.5 * kcn02, 0.2, T.ETERNAL_PAST_FINITE_FUTURE_DIVERGENT),
        ("negative", kcn02, 0.2, T.STATIC),
        ("negative", 1.5 * kcn02, 0.2, T.ETERNAL_REGULAR),
        ("negative", 0.5, 1.2, T.ETERNAL_PAST_FINITE_FUTURE_DIVERGENT),
        ("negative", 3.0, 1.2, T.ETERNAL_PAST_FINITE_FUTURE_DIVERGENT),
        ("negative", 10.0, 1.2, T.ETERNAL_PAST_FINITE_FUTURE_DIVERGENT),
        ("negative", 0.5 * kcn24, 2.4, T.ETERNAL_PAST_FINITE_FUTURE_DIVERGENT),
        ("negative", kcn24, 2.4, T.STATIC),
        ("negative", 1.5 * kcn24, 2.4, T.FINITE_TIME_COLLAPSE),
        ("negative", 0.0, 1.0, T.FINITE_TIME_COLLAPSE),
        ("negative", 0.0, 0.0, T.FINITE_TIME_COLLAPSE),
        ("negative", 5.9, 0.0, T.ETERNAL_PAST_FINITE_FUTURE_DIVERGENT),
        ("negative", 6.0, 0.0, T.STATIC),
        ("negative", 6.1, 0.0, T.FINITE_TIME_COLLAPSE),
        # flat: behaviour is set by the sign of b = 4/(kappa mu^2) - 1.
        ("flat", 1.0, 1.0, T.ETERNAL_PAST_FINITE_FUTURE_DIVERGENT),
        ("flat", 4.0, 1.0, T.STATIC),
        ("flat", 9.0, 1.0, T.FINITE_TIME_COLLAPSE),
        ("flat", 0.0, 1.0, T.FINITE_TIME_COLLAPSE),
        ("flat", 2.0, 0.0, T.STATIC),
        # round case: always collapses in finite time.
        ("su2", 1.0, 0.0, T.FINITE_TIME_COLLAPSE),
    ]
    mismatches = []
    for case, kappa, mu, expected in table:
        beh = ht.classify(case, kappa, mu)
        traj_beh = ht.classify_from_trajectory(case, kappa, mu)
        if beh.tag is not expected:
            mismatches.append((case, kappa, mu, "classify", beh.tag, expected))
        if traj_beh.tag is not beh.tag:
            mismatches.append((case, kappa, mu, "trajectory", traj_beh.tag, beh.tag))

    # collapse-time spot checks against the closed forms
    ct_checks = [
        abs(ht.classify("su2", 1.0, 0.0).collapse_time - ht.su2_collapse_time(1.0)),
        abs(ht.classify("flat", 9.0, 1.0).collapse_time - ht.flat_collapse_time(9.0, 1.0)),
        abs(ht.classify("flat", 0.0, 1.0).collapse_time + 1.0 / 3.0),
        abs(ht.classify("positive", 0.0, 0.0).collapse_time - 1.5),
        abs(ht.classify("negative", 0.0, 0.0).collapse_time + 1.5),
    ]
    elapsed = time.perf_counter() - t0
    ok = not mismatches and max(ct_checks) <= 1e-9 and elapsed < budget
    _emit(
        5,
        ok,
        f"behaviour taxonomy on {len(table)} parameter points, root classifier "
        f"and trajectory classifier agree, {len(mismatches)} mismatches; "
        f"collapse-time spot checks <= {max(ct_checks):.2e}; {elapsed:.1f}s "
        f"(budget {budget:.0f}s)",
    )
    assert not mismatches, mismatches
    assert max(ct_checks) <= 1e-9
    assert elapsed < budget


# ---------------------------------------------------------------------------
# criterion 6: soliton constructors
# ---------------------------------------------------------------------------


def test_criterion_6_soliton_constructors():
    tol_resid, tol_rhs, tol_disc = 1e-12, 1e-10, 1e-12
    worst_resid = worst_rhs = worst_disc = 0.0
    classified_ok = True
    for kappa in (0.7, 1.3, 2.0):
        for make, case in ((so.heisenberg_strong_soliton, 1), (so.hyperbolic_soliton, 3)):
            candidate = make(kappa)
            report = so.soliton_report(candidate)
            worst_resid = max(
                worst_resid, max(eq.value for eq in report.equations.values())
            )
            algebra = (
                hg.catalog("heisenberg")
                if case == 1
                else hg.catalog("hyperbolic", c=0.5 / math.sqrt(kappa))
            )
            state = hf.FlowState3(
                algebra=algebra, g=candidate.sample.g, f=float(candidate.sample.f)
            )
            g_dot, f_dot = hf.rhs_3d(state, kappa=kappa)
            worst_rhs = max(worst_rhs, float(np.max(np.abs(g_dot))), abs(f_dot))

            match = so.classify_constant_dilaton(algebra, candidate.sample.g, kappa)
            f = float(candidate.sample.f)
            if match.case != case or abs(kappa * f * f - case) > 1e-12:
                classified_ok = False
            _, disc = so.residual_quadratic_form(candidate)
            worst_disc = max(worst_disc, abs(disc - 1.0))

    ok = (
        worst_resid <= tol_resid
        and worst_rhs <= tol_rhs
        and worst_disc <= tol_disc
        and classified_ok
    )
    _emit(
        6,
        ok,
        f"nilpotent and hyperbolic constructors over three couplings: worst "
        f"equation residual {worst_resid:.2e} (tol {tol_resid:.0e}), worst "
        f"flow rate at the fixed point {worst_rhs:.2e} (tol {tol_rhs:.0e}), "
        f"classification round-trip with coupling*density^2 in {{1, 3}}, "
        f"eigenvalue discriminant within {worst_disc:.2e} of 1",
    )
    assert worst_resid <= tol_resid
    assert worst_rhs <= tol_rhs
    assert worst_disc <= tol_disc
    assert classified_ok


# ---------------------------------------------------------------------------
# criterion 7: constraint four-form
# ---------------------------------------------------------------------------


def test_criterion_7_constraint_four_form():
    # dimension three: identically zero by antisymmetry, no tolerance
    rng = np.random.default_rng(77)
    worst3 = 0.0
    for name, kwargs in [
        ("heisenberg", {}),
        ("su2", {"kappa": 1.1}),
        ("sl2r", {}),
        ("hyperbolic", {"c": 0.9}),
    ]:
        alg = hg.catalog(name, **kwargs)
        a = rng.normal(size=(3, 3))
        g = a @ a.T + 0.5 * np.eye(3)
        torsion = float(rng.normal()) * tc.volume_form(g)
        worst3 = max(worst3, float(np.max(np.abs(hf.bianchi_residual(alg, g, torsion, kappa=1.7)))))

    # dimension four: both terms active, matched against brute-force oracles
    kappa = 1.7
    alg4 = _embed_in_dim4(hg.catalog("hyperbolic", c=0.8), "hyperbolic_x_line")
    a = rng.normal(size=(4, 4))
    g4 = a @ a.T + 0.6 * np.eye(4)
    torsion4 = _random_three_form_dim4(rng)
    residual = hf.bianchi_residual(alg4, g4, torsion4, kappa=kappa)
    d_torsion = _maurer_cartan_d3(alg4, torsion4)
    g4_inv = tc.metric_inverse(g4)
    gamma_tw = hg.connection_twisted(hg.levi_civita_connection(alg4, g4, g4_inv), g4_inv, torsion4)
    riem_tw = hg.invariant_riemann(alg4, g4, gamma_tw)
    wedge = _riemann_wedge_bruteforce(g4, riem_tw)
    oracle = d_torsion + kappa * wedge
    gap = float(np.max(np.abs(residual - oracle)))
    magnitude = float(np.max(np.abs(residual)))

    ok = worst3 == 0.0 and gap <= 1e-10 and magnitude > 1e-3
    _emit(
        7,
        ok,
        f"constraint four-form identically zero in dimension three "
        f"(max {worst3:.1e}); in dimension four it is nonzero "
        f"(max {magnitude:.2e}) and matches the brute-force derivative + "
        f"wedge oracle within {gap:.2e} (tol 1e-10)",
    )
    assert worst3 == 0.0
    assert gap <= 1e-10
    assert magnitude > 1e-3


# ---------------------------------------------------------------------------
# criterion 8: parameter-sweep boundaries
# ---------------------------------------------------------------------------


def test_criterion_8_sweep_boundaries():
    kappas = np.linspace(0.0, 1.0, 21)
    mus = np.linspace(0.0, 2.0, 21)
    cell = float(kappas[1] - kappas[0])
    problems = []

    # positive curvature: the eternal-regular block in each flux column must
    # sit exactly under the critical-coupling curve, to one grid cell.
    tags = ht.sweep_grid("positive", kappas, mus)
    for j, mu in enumerate(mus):
        kc = ht.kappa_crit_p(float(mu))
        col = [tags[i, j] for i in range(len(kappas))]
        er_rows = [i for i, tag in enumerate(col) if tag is T.ETERNAL_REGULAR]
        for i, tag in enumerate(col):
            if tag is T.STATIC and abs(float(kappas[i]) - kc) > cell:
                problems.append(f"positive static off-curve at ({kappas[i]}, {mu})")
        if kc <= 0.0:
            if er_rows:
                problems.append(f"positive mu={mu}: eternal block without critical curve")
            continue
        if not er_rows:
            if kc > cell:  # curve comfortably inside the window: block required
                problems.append(f"positive mu={mu}: missing eternal block below {kc}")
            continue
        lo, hi = min(er_rows), max(er_rows)
        if er_rows != list(range(lo, hi + 1)) or lo != 1:
            problems.append(f"positive mu={mu}: eternal block not contiguous from first row")
        top = float(kappas[hi])
        nxt = float(kappas[hi + 1]) if hi + 1 < len(kappas) else math.inf
        if not (top - cell <= kc <= nxt + cell):
            problems.append(f"positive mu={mu}: boundary {top}..{nxt} misses {kc}")

    # flat: static exactly on the mu = 0 axis and the kappa mu^2 = 4 curve
    # (which touches the window only at the far corner); collapse exactly on
    # the kappa = 0, mu > 0 edge; expansion elsewhere.
    tags = ht.sweep_grid("flat", kappas, mus)
    for i, kappa in enumerate(kappas):
        for j, mu in enumerate(mus):
            if mu == 0.0 or abs(kappa * mu * mu - 4.0) <= 1e-12:
                expected = T.STATIC
            elif kappa == 0.0:
                expected = T.FINITE_TIME_COLLAPSE
            else:
                expected = T.ETERNAL_PAST_FINITE_FUTURE_DIVERGENT
            if tags[i, j] is not expected:
                problems.append(f"flat ({kappa}, {mu}): {tags[i, j]} != {expected}")

    # negative curvature: the critical curve stays at coupling >= 6, far
    # outside the window, so every interior node expands; the zero-coupling
    # edge collapses in the past.
    tags = ht.sweep_grid("negative", kappas, mus)
    for i, kappa in enumerate(kappas):
        for j, mu in enumerate(mus):
            expected = (
                T.FINITE_TIME_COLLAPSE
                if kappa == 0.0
                else T.ETERNAL_PAST_FINITE_FUTURE_DIVERGENT
            )
            if tags[i, j] is not expected:
                problems.append(f"negative ({kappa}, {mu}): {tags[i, j]} != {expected}")

    # round case: uniform finite-time collapse (positive coupling required)
    kappas_su2 = np.linspace(0.05, 1.0, 20)
    tags = ht.sweep_grid("su2", kappas_su2, mus)
    for i in range(len(kappas_su2)):
        for j in range(len(mus)):
            if tags[i, j] is not T.FINITE_TIME_COLLAPSE:
                problems.append(f"su2 ({kappas_su2[i]}, {mus[j]}): {tags[i, j]}")

    ok = not problems
    _emit(
        8,
        ok,
        f"21x21 sweeps on [0,1]x[0,2] for all four reductions: behaviour "
        f"boundaries track the critical-coupling curves within one grid cell "
        f"({cell:.2f}); {len(problems)} violations",
    )
    assert not problems, problems[:5]
