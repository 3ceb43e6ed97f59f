"""Soliton residual maps, constant-dilaton classification, and identities.

Expected values come from independent routes computed before asserting:
polynomial root finding for the eigenvalue quadratic, explicit spectra for
the constant-dilaton cases, the curvature pipeline for stationarity, and
closed-form gradient combinations for the skew obstruction scalar.
"""

import math

import numpy as np
import pytest

from hetflow import chart_jets as cj
from hetflow import het_flow as hf
from hetflow import homogeneous as hg
from hetflow import soliton as so
from hetflow import tensor_core as tc

KAPPAS = (0.7, 1.3, 2.0)


def _case_candidate(case, kappa):
    """Exact constant-dilaton data for each case, assembled from the catalog."""
    f = math.sqrt(case / kappa)
    if case == 1:
        alg = hg.catalog("heisenberg")
        g = np.diag([f * f, 1.0, 1.0])
    elif case == 2:
        alg = hg.catalog("e11")
        g = 2.0 * kappa * np.eye(3)
    elif case == 3:
        alg = hg.catalog("hyperbolic", c=0.5 / math.sqrt(kappa))
        g = np.eye(3)
    else:
        raise AssertionError(case)
    sample = hg.build_invariant_sample(alg, g, f)
    return so.SolitonCandidate(sample, kappa, name=f"case{case}")


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kappa", KAPPAS)
def test_heisenberg_constructor_satisfies_every_equation(kappa):
    candidate = so.heisenberg_strong_soliton(kappa)
    assert float(candidate.sample.f) == pytest.approx(1.0 / math.sqrt(kappa), rel=1e-14)
    report = so.soliton_report(candidate)
    assert set(report.equations) == set(so.SOLITON_EQUATIONS)
    for name, eq in report.equations.items():
        assert eq.value <= 1e-12, (name, eq.value)
    assert report.all_passed


@pytest.mark.parametrize("kappa", KAPPAS)
def test_hyperbolic_constructor_satisfies_every_equation(kappa):
    candidate = so.hyperbolic_soliton(kappa)
    assert float(candidate.sample.f) == pytest.approx(math.sqrt(3.0 / kappa), rel=1e-14)
    # Einstein normalization: Ric = -(1 / (2 kappa)) g
    np.testing.assert_allclose(
        candidate.sample.ricci, -candidate.sample.g / (2.0 * kappa), atol=1e-13
    )
    report = so.soliton_report(candidate)
    for name, eq in report.equations.items():
        assert eq.value <= 1e-12, (name, eq.value)
    assert report.all_passed


def test_constructors_reject_bad_coupling():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="coupling kappa must be positive and finite"):
            so.heisenberg_strong_soliton(bad)
        with pytest.raises(ValueError, match="coupling kappa must be positive and finite"):
            so.hyperbolic_soliton(bad)
    for tiny in (1e-320, np.float64(1e-320)):  # 1/kappa and 3/kappa overflow; no RuntimeWarning on the way
        with pytest.raises(ValueError, match="coupling kappa .* is too small"):
            so.heisenberg_strong_soliton(tiny)
        with pytest.raises(ValueError, match="coupling kappa .* is too small"):
            so.hyperbolic_soliton(tiny)
    with pytest.raises(ValueError):
        so.SolitonCandidate(so.heisenberg_strong_soliton(1.0).sample, 0.0)
    with pytest.raises(ValueError):
        so.SolitonCandidate(so.heisenberg_strong_soliton(1.0).sample, float("nan"))


# ---------------------------------------------------------------------------
# residual evaluators
# ---------------------------------------------------------------------------


def test_symmetric_residual_routes_agree():
    # residual_3d assembles the curvature-square term from the Ricci
    # closed form; residual_general contracts the twisted tensor directly.
    rng = np.random.default_rng(2)
    for name in ("sl2r", "su2", "heisenberg"):
        kwargs = {"kappa": 1.4} if name == "su2" else {}
        a = rng.normal(size=(3, 3))
        g = a @ a.T + 0.5 * np.eye(3)
        sample = hg.build_invariant_sample(hg.catalog(name, **kwargs), g, float(rng.normal()))
        candidate = so.SolitonCandidate(sample, 0.9)
        via_ricci = so.residual_3d(candidate).equations["einstein_sym"].value
        via_tensor = so.residual_general(candidate).equations["einstein_sym"].value
        assert via_ricci == pytest.approx(via_tensor, abs=1e-11)


def test_round_metric_with_flux_is_not_a_soliton():
    kappa = 1.3
    sample = hg.build_invariant_sample(
        hg.catalog("su2", kappa=kappa), np.eye(3), math.sqrt(1.0 / kappa)
    )
    report = so.residual_3d(so.SolitonCandidate(sample, kappa))
    assert report.equations["einstein_sym"].value > 1.0
    assert report.equations["dilaton"].value > 0.1
    assert not report.all_passed


def test_maxwell_residual_equals_twice_skew_map():
    for seed in range(4):
        sample = cj.random_chart_sample(seed, maxwell=bool(seed % 2))
        _, e_skew, _ = so.einstein_maps(sample, 0.9)
        np.testing.assert_allclose(
            so.maxwell_residual_3d(sample), 2.0 * e_skew, atol=1e-13
        )


# ---------------------------------------------------------------------------
# constant-dilaton classification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", (1, 2, 3))
@pytest.mark.parametrize("kappa", KAPPAS)
def test_case_data_satisfies_pointwise_system(case, kappa):
    candidate = _case_candidate(case, kappa)
    report = so.residual_3d(candidate, tol=1e-12)
    assert report.all_passed, {n: e.value for n, e in report.equations.items()}


@pytest.mark.parametrize("case", (1, 2, 3))
def test_synthetic_spectra_classify_exactly(case):
    kappa = 1.3
    match = so.classify_ricci_spectrum(so.case_spectrum(case, kappa), kappa)
    assert match.case == case
    assert not match.tie
    assert match.f == pytest.approx(math.sqrt(case / kappa), rel=1e-14)
    assert match.gap <= 1e-14
    assert match.checks["scalar_identity"] <= 1e-12
    assert match.checks["trace_identity"] <= 1e-12


def test_perturbed_spectrum_fails_to_classify():
    kappa = 1.3
    eigs = np.asarray(so.case_spectrum(1, kappa)) + 1e-3
    match = so.classify_ricci_spectrum(eigs, kappa)
    assert match.case is None
    assert match.f is None
    assert match.gap == pytest.approx(1e-3, rel=1e-2)


def test_classify_validation():
    with pytest.raises(ValueError):
        so.classify_ricci_spectrum((1.0, 2.0, 3.0), 0.0)
    with pytest.raises(ValueError):
        so.classify_ricci_spectrum((1.0, 2.0), 1.0)
    with pytest.raises(ValueError):
        so.case_spectrum(4, 1.0)


_SINGULAR = np.diag([1.0, 1.0, 0.0])


def _su2_state(f: float) -> hf.FlowState3:
    return hf.FlowState3(algebra=hg.catalog("su2"), g=np.eye(3), f=f)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(
            lambda: so.classify_constant_dilaton(hg.catalog("heisenberg"), _SINGULAR, 1.0),
            id="classify_constant_dilaton-singular-g",
        ),
        pytest.param(
            lambda: so.case1_axis(hg.catalog("heisenberg"), _SINGULAR, 1.0),
            id="case1_axis-singular-g",
        ),
        pytest.param(
            lambda: so.heisenberg_auxiliary_connection(
                hg.catalog("heisenberg"), _SINGULAR, 1.0, np.array([1.0, 0.0, 0.0])
            ),
            id="heisenberg_auxiliary_connection-singular-g",
        ),
        pytest.param(
            lambda: hg.build_invariant_sample(hg.catalog("heisenberg"), np.eye(3), math.nan),
            id="build_invariant_sample-nan-f",
        ),
        pytest.param(
            lambda: hg.build_invariant_sample(hg.catalog("heisenberg"), np.eye(3), math.inf),
            id="build_invariant_sample-inf-f",
        ),
        pytest.param(
            lambda: so.classify_ricci_spectrum((-0.5, -0.5, 0.5), math.nan),
            id="classify_ricci_spectrum-nan-kappa",
        ),
        pytest.param(
            lambda: so.classify_ricci_spectrum((-0.5, math.nan, 0.5), 1.0),
            id="classify_ricci_spectrum-nan-eigenvalue",
        ),
        pytest.param(lambda: so.case_spectrum(1, 0.0), id="case_spectrum-zero-kappa"),
        pytest.param(lambda: so.case_spectrum(1, math.nan), id="case_spectrum-nan-kappa"),
        pytest.param(lambda: so.case_spectrum(1, -1.0), id="case_spectrum-negative-kappa"),
        pytest.param(lambda: so.quadratic_roots(0.0, 1.0), id="quadratic_roots-zero-kappa"),
        pytest.param(lambda: so.quadratic_roots(math.nan, 1.0), id="quadratic_roots-nan-kappa"),
        pytest.param(lambda: so.quadratic_roots(1.0, math.inf), id="quadratic_roots-inf-f"),
        # f**4 is 1e308 at f = 1e77, and f' overflows; at 1e78 the float f**4 raises
        pytest.param(lambda: hf.rhs_3d(_su2_state(1e77), 1.0), id="rhs_3d-f-1e77"),
        pytest.param(lambda: hf.rhs_3d(_su2_state(1e78), 1.0), id="rhs_3d-f-1e78"),
        pytest.param(lambda: hf.dilaton_rhs(_su2_state(1e78), 1.0), id="dilaton_rhs-f-1e78"),
        pytest.param(
            lambda: hf.rhs_general(hg.catalog("su2"), np.eye(3), np.full((3, 3, 3), math.nan), 1.0),
            id="rhs_general-nan-torsion",
        ),
        pytest.param(
            lambda: hf.bianchi_residual(hg.catalog("su2"), np.eye(3), np.full((3, 3, 3), math.nan), 1.0),
            id="bianchi_residual-nan-torsion",
        ),
        *(
            pytest.param(lambda spec=spec, c=c: spec(c), id=f"{spec.__name__}-{c}")
            for spec in (cj.conformal_chart_spec, cj.hyperbolic_chart_spec)
            for c in (math.inf, 1e200, math.nan)
        ),
    ],
)
def test_entry_points_reject_bad_input_with_value_error(call):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError  # not its subclass LinAlgError


def test_catalog_metrics_classify_by_principal_curvatures():
    kappa = 1.3
    heis = so.classify_constant_dilaton(
        hg.catalog("heisenberg"), np.diag([1.0 / kappa, 1.0, 1.0]), kappa
    )
    assert heis.case == 1 and heis.f == pytest.approx(math.sqrt(1.0 / kappa), rel=1e-12)

    sol = so.classify_constant_dilaton(hg.catalog("e11"), 2.0 * kappa * np.eye(3), kappa)
    assert sol.case == 2 and sol.f == pytest.approx(math.sqrt(2.0 / kappa), rel=1e-12)

    hyp = so.classify_constant_dilaton(
        hg.catalog("hyperbolic", c=0.5 / math.sqrt(kappa)), np.eye(3), kappa
    )
    assert hyp.case == 3 and hyp.f == pytest.approx(math.sqrt(3.0 / kappa), rel=1e-12)

    none = so.classify_constant_dilaton(hg.catalog("su2", kappa=kappa), np.eye(3), kappa)
    assert none.case is None


# ---------------------------------------------------------------------------
# eigenvalue quadratic
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", (1, 2, 3))
@pytest.mark.parametrize("kappa", KAPPAS)
def test_quadratic_form_vanishes_on_case_data(case, kappa):
    candidate = _case_candidate(case, kappa)
    residual, disc = so.residual_quadratic_form(candidate)
    assert np.max(np.abs(residual)) <= 1e-12
    assert disc == pytest.approx(1.0, abs=1e-12)


def test_discriminant_is_identically_one():
    rng = np.random.default_rng(9)
    for _ in range(20):
        kappa = float(rng.uniform(0.1, 5.0))
        f = float(rng.uniform(0.0, 3.0))
        sample = hg.build_invariant_sample(hg.catalog("r3"), np.eye(3), f)
        _, disc = so.residual_quadratic_form(so.SolitonCandidate(sample, kappa))
        assert disc == pytest.approx(1.0, abs=1e-12)


def test_quadratic_roots_match_polynomial_solver():
    for kappa, f in [(0.8, 0.5), (2.0, 1.3), (1.0, 0.0)]:
        lo, hi = sorted(so.quadratic_roots(kappa, f))
        coeffs = [-kappa, 1.0 - kappa * f**2, 0.5 * (f**2 - 0.5 * kappa * f**4)]
        expected = sorted(np.roots(coeffs).real)
        assert lo == pytest.approx(expected[0], abs=1e-12)
        assert hi == pytest.approx(expected[1], abs=1e-12)


def test_quadratic_form_detects_non_solutions():
    kappa = 1.3
    candidate = _case_candidate(1, kappa)
    sample = hg.build_invariant_sample(
        hg.catalog("heisenberg"),
        candidate.sample.g + np.diag([0.05, 0.0, 0.0]),
        float(candidate.sample.f),
    )
    residual, disc = so.residual_quadratic_form(so.SolitonCandidate(sample, kappa))
    assert np.max(np.abs(residual)) > 1e-3
    assert disc == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# strong refinement
# ---------------------------------------------------------------------------


def test_strong_residual_vanishes_on_both_constructors():
    for candidate in (so.heisenberg_strong_soliton(1.1), so.hyperbolic_soliton(0.9)):
        full, reduced = so.strong_residual(candidate)
        assert np.max(np.abs(full)) <= 1e-12
        assert np.max(np.abs(reduced)) <= 1e-12


@pytest.mark.parametrize("kappa", KAPPAS)
def test_case2_passes_pointwise_but_fails_strong(kappa):
    candidate = _case_candidate(2, kappa)
    assert so.residual_3d(candidate, tol=1e-12).all_passed
    full, reduced = so.strong_residual(candidate)
    # universal scale-free obstruction of the solvable case
    assert np.max(np.abs(full)) == pytest.approx(4.0, rel=1e-9)
    assert np.max(np.abs(reduced)) == pytest.approx(4.0, rel=1e-9)
    report = so.soliton_report(candidate)
    assert not report.all_passed
    assert not report.equations["strong_full"].passed
    assert report.equations["einstein_sym"].passed


def test_strong_skew_scalar_gradient_identity(chart_laplacian):
    for seed in range(4):
        spec = cj.random_chart_spec(seed, maxwell=bool(seed % 2))
        sample = cj.build_chart_sample(spec)
        value = so.strong_skew_scalar(so.SolitonCandidate(sample, 0.9))
        phi_up = sample.g_inv @ sample.dilaton
        expected = -(chart_laplacian(spec) + float(phi_up @ sample.df)) / 3.0
        assert value == pytest.approx(expected, abs=1e-13)


def test_batched_residual_maps_equal_single_sample_calls(mixed_stack, slices_match):
    stack, samples = mixed_stack
    kappas = np.linspace(0.3, 2.5, len(samples))
    candidate = so.SolitonCandidate(stack, kappas, name="stack")
    with pytest.raises(ValueError, match="kappa must be positive"):
        so.SolitonCandidate(stack, np.where(kappas > 1.0, kappas, math.nan))
    singles = [so.SolitonCandidate(s, float(k)) for s, k in zip(samples, kappas)]
    maps = so.einstein_maps(stack, kappas)
    single_maps = [so.einstein_maps(c.sample, c.kappa) for c in singles]
    for part in range(3):
        slices_match(maps[part], [single[part] for single in single_maps])
    full = so._strong_full(stack)
    slices_match(full, [so._strong_full(s) for s in samples])
    slices_match(so._skew_scalar(stack, full), [so._skew_scalar(s, so._strong_full(s)) for s in samples])
    resid, disc = so.residual_quadratic_form(candidate)
    single_forms = [so.residual_quadratic_form(c) for c in singles]
    slices_match(resid, [single[0] for single in single_forms])
    slices_match(disc, [single[1] for single in single_forms])
    assert all(type(m[2]) is float for m in single_maps)
    assert all(type(form[1]) is float for form in single_forms)
    assert all(type(so._skew_scalar(s, so._strong_full(s))) is float for s in samples)


@pytest.mark.parametrize("evaluate", [so.soliton_report, so.verify_divergence_identities])
def test_batched_report_holds_the_worst_over_its_samples(mixed_stack, evaluate):
    stack, samples = mixed_stack
    kappas = np.linspace(0.3, 2.5, len(samples))

    def report(sample, kappa):
        if evaluate is so.soliton_report:
            return evaluate(so.SolitonCandidate(sample, kappa))
        return evaluate(sample, kappa)

    batched = report(stack, kappas)
    singles = [report(s, float(k)) for s, k in zip(samples, kappas)]
    assert list(batched.equations) == list(singles[0].equations)
    for name, eq in batched.equations.items():
        assert type(eq.value) is float
        assert eq.value == max(single.equations[name].value for single in singles)
    assert batched.meta["kappa"] == kappas.tolist()
    assert batched.meta["f"] == [s.f for s in samples]


def test_report_computes_the_strong_residual_once(count_calls):
    candidate = so.SolitonCandidate(cj.random_chart_sample(3, maxwell=True), 0.9)
    skew = abs(so.strong_skew_scalar(candidate))
    calls = count_calls(so, "_strong_full")
    report = so.soliton_report(candidate)
    assert len(calls) == 1
    assert report.equations["strong_skew"].value == skew


# ---------------------------------------------------------------------------
# nilpotent axis geometry
# ---------------------------------------------------------------------------


def test_case1_axis_relation_and_normalization():
    kappa = 1.1
    candidate = so.heisenberg_strong_soliton(kappa)
    alg = hg.catalog("heisenberg")
    g, f = candidate.sample.g, float(candidate.sample.f)
    xi = so.case1_axis(alg, g, f)
    assert float(xi @ g @ xi) == pytest.approx(1.0, rel=1e-12)
    xi_flat = g @ xi
    np.testing.assert_allclose(
        hg.invariant_d(alg, xi_flat),
        -f * tc.hodge(tc.metric_inverse(g), tc.volume_form(g), xi_flat),
        atol=1e-13,
    )


def test_case1_axis_error_paths():
    kappa = 1.1
    candidate = so.heisenberg_strong_soliton(kappa)
    alg = hg.catalog("heisenberg")
    with pytest.raises(ValueError, match="reversed-orientation"):
        so.case1_axis(alg, candidate.sample.g, float(candidate.sample.f), orientation=-1)
    with pytest.raises(ValueError, match="no simple positive"):
        so.case1_axis(hg.catalog("hyperbolic", c=0.5), np.eye(3), 1.0)


def test_auxiliary_connection_is_flat_metric_and_parallelizes_axis():
    kappa = 1.1
    candidate = so.heisenberg_strong_soliton(kappa)
    alg = hg.catalog("heisenberg")
    g, f = candidate.sample.g, float(candidate.sample.f)
    xi = so.case1_axis(alg, g, f)
    gamma_bar = so.heisenberg_auxiliary_connection(alg, g, f, xi)
    assert np.max(np.abs(hg.invariant_riemann(alg, g, gamma_bar))) <= 1e-14
    assert np.max(np.abs(hg.invariant_cov_deriv(gamma_bar, g))) <= 1e-14
    for a in range(3):
        assert np.max(np.abs(gamma_bar[a] @ xi)) <= 1e-14


# ---------------------------------------------------------------------------
# divergence identities
# ---------------------------------------------------------------------------


def test_divergence_identities_on_chart_samples(chart_samples):
    rng = np.random.default_rng(77)
    for sample in chart_samples:
        kappa = float(rng.uniform(0.05, 3.0))
        report = so.verify_divergence_identities(sample, kappa)
        assert report.all_passed, {n: e.value for n, e in report.equations.items()}
        assert set(report.equations) == {
            "div_curvature_square",
            "div_torsion_square",
            "div_einstein_map",
        }


def test_divergence_identities_on_invariant_samples(invariant_samples):
    for sample in invariant_samples:
        report = so.verify_divergence_identities(sample, 0.8, tol=1e-9)
        assert report.all_passed, {n: e.value for n, e in report.equations.items()}


def _per_direction_divergence_residuals(s, kappa):
    """The three residuals of verify_divergence_identities, one frame direction
    at a time: the formulas as first written, kept as an oracle."""
    ginv = s.g_inv
    phi_up = ginv @ s.dilaton
    e_sym, e_skew, _ = so.einstein_maps(s, kappa)
    div_tw = s.div_riemann_tw

    def lam12(a, b):
        return 0.5 * float(np.einsum("acd,bef,ab,ce,df->", a, b, ginv, ginv, ginv))

    lhs1 = -np.einsum("ab,abv->v", ginv, s.nabla_riemann_tw_sq)
    rhs1 = np.empty(3)
    for v in range(3):
        rhs1[v] = lam12(div_tw, s.riemann_tw[v]) - 0.5 * s.d_riemann_tw_norm2[v]
    skew_h = np.array([np.einsum("cd,ef,ce,df->", e_skew, s.torsion[v], ginv, ginv) for v in range(3)])
    lhs2 = -np.einsum("ab,abv->v", ginv, s.nabla_torsion_sq)
    rhs2 = np.empty(3)
    for v in range(3):
        rhs2[v] = -0.5 * s.d_torsion_norm2[v] - float(phi_up @ s.torsion_sq[:, v]) + skew_h[v]
    nabla_e = s.nabla_ricci + s.nabla2_dilaton - 0.5 * s.nabla_torsion_sq + kappa * s.nabla_riemann_tw_sq
    tr_e_d = s.d_scalar - s.d_delta_dilaton - 1.5 * s.d_torsion_norm2 + 2.0 * kappa * s.d_riemann_tw_norm2
    lhs3 = -np.einsum("ab,abv->v", ginv, nabla_e) + np.einsum("m,mv->v", phi_up, e_sym) + 0.5 * tr_e_d
    d_e_dil = s.d_delta_dilaton + s.d_dilaton_norm2 - s.d_torsion_norm2 + kappa * s.d_riemann_tw_norm2
    phi_curv = np.einsum("m,macd->acd", phi_up, s.riemann_tw)
    rhs3 = np.empty(3)
    for v in range(3):
        rhs3[v] = kappa * lam12(s.riemann_tw[v], div_tw + phi_curv) + 0.5 * d_e_dil[v] - 0.5 * skew_h[v]
    return {
        "div_curvature_square": float(np.max(np.abs(lhs1 - rhs1))),
        "div_torsion_square": float(np.max(np.abs(lhs2 - rhs2))),
        "div_einstein_map": float(np.max(np.abs(lhs3 - rhs3))),
    }


def test_divergence_identities_match_the_per_direction_formulas():
    # The whole-direction contractions sum in another order than the
    # per-direction ones, so they agree to rounding, not bit for bit.
    specs = [cj.random_chart_spec(300 + k, maxwell=bool(k % 2)) for k in range(50)]
    samples = list(cj.build_chart_samples(specs))
    samples += [c.sample for k in KAPPAS for c in (so.heisenberg_strong_soliton(k), so.hyperbolic_soliton(k))]
    samples += [_case_candidate(case, k).sample for case in (1, 2, 3) for k in KAPPAS]
    rng = np.random.default_rng(19)
    for sample in samples:
        kappa = float(rng.uniform(0.05, 3.0))
        report = so.verify_divergence_identities(sample, kappa)
        for name, expected in _per_direction_divergence_residuals(sample, kappa).items():
            value = report.equations[name].value
            assert abs(value - expected) <= 1e-14 * max(1.0, abs(expected)), (name, value, expected)


def test_divergence_identities_exact_on_flat_data():
    sample = hg.build_invariant_sample(hg.catalog("r3"), np.eye(3), 0.0)
    report = so.verify_divergence_identities(sample, 1.0)
    for eq in report.equations.values():
        assert eq.value == 0.0


# ---------------------------------------------------------------------------
# report objects
# ---------------------------------------------------------------------------


def test_report_json_layout():
    candidate = so.heisenberg_strong_soliton(1.1)
    payload = so.soliton_report(candidate).to_json_dict()
    assert payload["schema_version"] == so.SCHEMA_VERSION
    assert set(payload["equations"]) == set(so.SOLITON_EQUATIONS)
    for entry in payload["equations"].values():
        assert set(entry) == {"value", "tol", "pass"}
        assert entry["pass"] is True
    assert payload["meta"]["backend"] == "homogeneous"
    assert payload["meta"]["kappa"] == pytest.approx(1.1)


def test_report_failure_flags():
    kappa = 1.3
    sample = hg.build_invariant_sample(
        hg.catalog("su2", kappa=kappa), np.eye(3), math.sqrt(1.0 / kappa)
    )
    report = so.soliton_report(so.SolitonCandidate(sample, kappa))
    assert not report.all_passed
    payload = report.to_json_dict()
    assert payload["equations"]["einstein_sym"]["pass"] is False
