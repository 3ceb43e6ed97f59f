"""Residual maps and classification for torsion-coupled curvature solitons.

A candidate bundles a pointwise geometry sample (chart or homogeneous
backend) with the quadratic-curvature coupling ``kappa``.  The coupled
system evaluated here pairs

* a Ricci-type equation for the metric (symmetric part),
* a Maxwell-type equation for the one-form ``phi`` (skew part),
* a scalar equation tying the dilaton coupling to curvature,

with an optional *strong* refinement: a first-order equation on the twisted
curvature tensor, ``div_tw(Rhat) + phi -| Rhat = 0``, whose fully
antisymmetric part carries an independent scalar obstruction.

The flux constraint ``dH = kappa <Rhat ^ Rhat>`` is a four-form equation, so
it is vacuous in dimension three, where every four-form vanishes; no residual
here carries it.  :func:`hetflow.het_flow.bianchi_residual` checks it on
invariant data in dimension four and higher.

Reports are value objects with a stable JSON layout so batch verification
and the command-line front end can share one schema.

The residual maps take stacks as the :mod:`~hetflow.tensor_core` closed
forms do: a candidate whose sample fields carry a leading batch axis, with
one ``kappa`` per sample, gets one report, and each value in it is the
worst over the batch (the maxima of :func:`verify_divergence_identities`
batch the same way).  ``hetflow verify`` evaluates its suites like this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import homogeneous as hg
from . import tensor_core as tc
from .chart_jets import GeometrySample

__all__ = [
    "SCHEMA_VERSION",
    "TOL_CONSTRUCTOR",
    "TOL_JET",
    "EIGEN_GAP_REL",
    "EIGEN_GAP_ABS",
    "SOLITON_EQUATIONS",
    "EquationResidual",
    "ResidualReport",
    "SolitonCandidate",
    "CaseMatch",
    "einstein_maps",
    "maxwell_residual_3d",
    "residual_general",
    "residual_3d",
    "residual_quadratic_form",
    "quadratic_roots",
    "case_spectrum",
    "classify_ricci_spectrum",
    "classify_constant_dilaton",
    "strong_residual",
    "strong_skew_scalar",
    "soliton_report",
    "heisenberg_strong_soliton",
    "hyperbolic_soliton",
    "case1_axis",
    "heisenberg_auxiliary_connection",
    "verify_divergence_identities",
]

SCHEMA_VERSION = 2

#: Exactly constructed candidates must satisfy their equations to this level.
TOL_CONSTRUCTOR = 1e-12
#: Theorem-level identities on third-order jets lose a few digits in doubles.
TOL_JET = 1e-8
#: Eigenvalue matching: relative gap scale and absolute floor.
EIGEN_GAP_REL = 1e-6
EIGEN_GAP_ABS = 1e-12

#: Canonical equation names carried by a full soliton report.
SOLITON_EQUATIONS = (
    "einstein_sym",
    "einstein_skew",
    "dilaton",
    "strong_full",
    "strong_skew",
    "trace_identity",
)


@dataclass(frozen=True)
class EquationResidual:
    """Magnitude of one named equation together with its tolerance verdict."""

    value: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.tol)


@dataclass(frozen=True)
class ResidualReport:
    """Ordered collection of named equation residuals.

    ``soliton_report`` emits every name in :data:`SOLITON_EQUATIONS`; the
    narrower evaluators emit the subset they compute.  All magnitudes are
    nonnegative maxima over tensor components.
    """

    equations: dict[str, EquationResidual]
    meta: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(eq.passed for eq in self.equations.values())

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "equations": {
                name: {"value": float(eq.value), "tol": float(eq.tol), "pass": eq.passed}
                for name, eq in self.equations.items()
            },
            "meta": dict(self.meta),
        }


@dataclass(frozen=True)
class SolitonCandidate:
    """Geometry sample plus coupling constant, ready for residual evaluation.

    The one-form slot of the sample is the closed ``phi`` of the system (both
    backends construct it closed); the dilaton coupling ``f`` is the scalar
    dual of the three-form flux and must be nowhere zero when ``phi`` is
    slaved to it.  A stacked sample takes one ``kappa`` per sample.
    """

    sample: GeometrySample
    kappa: float
    name: str = ""

    def __post_init__(self) -> None:
        kappa = np.asarray(self.kappa, dtype=float)
        if not np.all((0.0 < kappa) & (kappa < np.inf)):
            raise ValueError("coupling kappa must be positive and finite")


def _number(x):
    """A ``float``, or a list of per-sample floats, for report metadata."""
    return np.asarray(x, dtype=float).tolist()


def _worst(x) -> float:
    """Largest magnitude over the components (and the batch) of ``x``."""
    return float(np.max(np.abs(x)))


def _meta(candidate: SolitonCandidate) -> dict:
    s = candidate.sample
    return {
        "name": candidate.name,
        "backend": s.backend,
        "dim": 3,
        "kappa": _number(candidate.kappa),
        "f": _number(s.f),
    }


def einstein_maps(sample: GeometrySample, kappa: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Pointwise residual tensors of the coupled system.

    Returns ``(e_sym, e_skew, e_dil)``: the symmetric Ricci-type map
    ``Ric + nabla phi - 1/2 H o H + kappa Rhat o Rhat``, the skew
    Maxwell-type two-form ``1/2 delta H + 1/2 H(phi, ., .)`` and the scalar
    ``delta phi + |phi|^2 - |H|^2 + kappa |Rhat|^2``.  The four-form flux
    constraint ``dH + kappa <Rhat ^ Rhat>`` is vacuous on these
    three-dimensional samples; :func:`hetflow.het_flow.bianchi_residual`
    checks it in dimension four and higher.
    """
    s = sample
    phi_up = tc.sharp(s.g_inv, s.dilaton)
    tw_sq = tc.broadcast_scalar(kappa, 2) * s.riemann_tw_sq
    e_sym = s.ricci + s.nabla_dilaton - 0.5 * s.torsion_sq + tw_sq
    e_skew = 0.5 * s.delta_torsion + 0.5 * np.einsum("...m,...mcd->...cd", phi_up, s.torsion)
    e_dil = tc.float_or_array(
        s.delta_dilaton + s.dilaton_norm2 - s.torsion_norm2 + kappa * s.riemann_tw_norm2
    )
    return e_sym, e_skew, e_dil


def maxwell_residual_3d(sample: GeometrySample) -> np.ndarray:
    """Two-form ``-*df + f *phi``; equals twice the general skew map in 3D."""
    vol = tc.volume_form(sample.g, sample.orientation)
    return tc.hodge(sample.g_inv, vol, sample.f * sample.dilaton - sample.df)


def residual_general(candidate: SolitonCandidate, tol: float = TOL_JET) -> ResidualReport:
    """Evaluate the coupled system on a candidate by contracting its tensors.

    The contractions hold in any dimension, but samples are three-dimensional,
    where the four-form flux constraint is vacuous; it is checked in dimension
    four and higher by :func:`hetflow.het_flow.bianchi_residual`.
    """
    e_sym, e_skew, e_dil = einstein_maps(candidate.sample, candidate.kappa)
    eqs = {
        "einstein_sym": EquationResidual(_worst(e_sym), tol),
        "einstein_skew": EquationResidual(_worst(e_skew), tol),
        "dilaton": EquationResidual(_worst(e_dil), tol),
    }
    return ResidualReport(eqs, meta=_meta(candidate))


def residual_3d(candidate: SolitonCandidate, tol: float = TOL_JET) -> ResidualReport:
    """Evaluate the expanded three-dimensional system for ``H = f vol``.

    The symmetric equation is assembled from the closed-form expansion of
    ``Rhat o Rhat`` in Ricci data (an independent route from the general
    evaluator, which contracts the twisted curvature tensor directly); the
    skew equation reduces to ``f phi = df`` and the scalar equation to
    ``s = 3 delta phi + 2 |phi|^2 - f^2/2``.
    """
    s = candidate.sample
    kappa = candidate.kappa
    rr_tw = tc.riemann_square_twisted_dim3(
        s.g, s.g_inv, s.ricci, s.scalar, s.f, s.df, s.orientation
    )
    e1 = s.ricci + s.nabla_dilaton - 0.5 * s.f**2 * s.g + kappa * rr_tw
    e2 = s.f * s.dilaton - s.df
    e3 = float(s.scalar - 3.0 * s.delta_dilaton - 2.0 * s.dilaton_norm2 + 0.5 * s.f**2)
    eqs = {
        "einstein_sym": EquationResidual(float(np.max(np.abs(e1))), tol),
        "einstein_skew": EquationResidual(float(np.max(np.abs(e2))), tol),
        "dilaton": EquationResidual(abs(e3), tol),
    }
    return ResidualReport(eqs, meta=_meta(candidate))


def residual_quadratic_form(candidate: SolitonCandidate) -> tuple[np.ndarray, float]:
    """Constant-dilaton quadratic form in the Ricci tensor plus its discriminant.

    Returns the residual of ``-kappa Ric o Ric + (1 - kappa f^2) Ric
    + 1/2 (f^2 - kappa f^4/2) g`` together with the discriminant of the
    associated scalar quadratic, which is identically one for every
    ``(kappa, f)`` — each Ricci eigenvalue of a solution must therefore hit
    one of the two universal roots of :func:`quadratic_roots`.
    """
    s = candidate.sample
    kappa = candidate.kappa
    f2 = s.f**2
    ric_sq = s.ricci @ s.g_inv @ s.ricci
    resid = (
        -tc.broadcast_scalar(kappa, 2) * ric_sq
        + tc.broadcast_scalar(1.0 - kappa * f2, 2) * s.ricci
        + tc.broadcast_scalar(0.5 * (f2 - 0.5 * kappa * f2**2), 2) * s.g
    )
    disc = (1.0 - kappa * f2) ** 2 + 2.0 * kappa * f2 - (kappa * f2) ** 2
    return resid, tc.float_or_array(disc)


def quadratic_roots(kappa: float, f: float) -> tuple[float, float]:
    """Roots ``(-f^2/2, (2 - kappa f^2)/(2 kappa))`` of the eigenvalue quadratic."""
    return -0.5 * f**2, (2.0 - kappa * f**2) / (2.0 * kappa)


def case_spectrum(case: int, kappa: float) -> tuple[float, float, float]:
    """Principal Ricci spectrum of the constant-dilaton case ``kappa f^2 = case``."""
    if case == 1:
        return (-0.5 / kappa, -0.5 / kappa, 0.5 / kappa)
    if case == 2:
        return (0.0, 0.0, -1.0 / kappa)
    if case == 3:
        return (-0.5 / kappa, -0.5 / kappa, -0.5 / kappa)
    raise ValueError(f"unknown constant-dilaton case {case!r}")


@dataclass(frozen=True)
class CaseMatch:
    """Outcome of matching a Ricci spectrum against the constant-dilaton cases.

    ``case`` is ``None`` when no spectrum fits; ``tie`` flags an ambiguous
    match (resolved toward the higher-symmetry case, ordered 3, 1, 2).
    ``checks`` carries the residuals of the scalar identity ``s = -f^2/2``
    and of the trace identity ``2 kappa |Ric|^2 = 2 f^2 - kappa f^4/2``.
    """

    case: int | None
    f: float | None
    eigenvalues: tuple[float, ...]
    gap: float
    tie: bool
    checks: dict[str, float] = field(default_factory=dict)


def classify_ricci_spectrum(eigenvalues, kappa: float) -> CaseMatch:
    """Match a principal Ricci spectrum to one of the constant-dilaton cases."""
    if not (0.0 < kappa < np.inf):
        raise ValueError("coupling kappa must be positive and finite")
    eigs = np.sort(np.asarray(eigenvalues, dtype=float))
    if eigs.shape != (3,):
        raise ValueError("expected exactly three principal curvatures")
    # Python floats from here: three numbers cost less than numpy's per-call overhead.
    spectrum = tuple(eigs.tolist())
    if not all(map(math.isfinite, spectrum)):
        raise ValueError("principal curvatures must be finite")
    scal = sum(spectrum)
    gap_tol = EIGEN_GAP_REL * abs(scal) + EIGEN_GAP_ABS
    matches: list[tuple[int, float]] = []
    gaps: list[float] = []
    for case in (3, 1, 2):  # higher symmetry first
        expected = sorted(case_spectrum(case, float(kappa)))
        gap = max(abs(x - y) for x, y in zip(spectrum, expected))
        gaps.append(gap)
        if gap <= gap_tol:
            matches.append((case, gap))
    if not matches:
        return CaseMatch(None, None, spectrum, min(gaps), False)
    case, gap = matches[0]
    f = math.sqrt(case / kappa)
    ric_norm2 = sum(x * x for x in spectrum)
    checks = {
        "scalar_identity": abs(scal + 0.5 * f**2),
        "trace_identity": abs(2.0 * kappa * ric_norm2 - (2.0 * f**2 - 0.5 * kappa * f**4)),
    }
    return CaseMatch(case, f, spectrum, gap, len(matches) > 1, checks)


def classify_constant_dilaton(alg: hg.LieAlgebraData, g: np.ndarray, kappa: float) -> CaseMatch:
    """Classify an invariant metric by its principal Ricci curvatures."""
    tc.validate_metric(g)
    _, _, _, ricci, _ = hg.invariant_curvature(alg, g)
    eigs, _ = tc.principal_values(g, ricci)
    return classify_ricci_spectrum(eigs, kappa)


def strong_residual(candidate: SolitonCandidate) -> tuple[np.ndarray, np.ndarray]:
    """Full and reduced residuals of the strong condition in dimension three.

    ``full[v, c, d]`` is the twisted divergence of the twisted curvature plus
    the ``phi`` contraction, valid for any candidate.  ``reduced[v, a, b]``
    is the constant-dilaton algebraic route
    ``(d^{nabla} Ric)(., .; v) + (3f/2) * hodge(Ric0(v, .))`` with ``Ric0``
    the traceless Ricci tensor; the two vanish together on constant-dilaton
    solutions.
    """
    s = candidate.sample
    full = _strong_full(s)
    ric0 = s.ricci - (s.scalar / 3.0) * s.g
    vol = tc.volume_form(s.g, s.orientation)
    reduced = np.empty((3, 3, 3))
    for v in range(3):
        anti = s.nabla_ricci[:, :, v] - s.nabla_ricci[:, :, v].T
        reduced[v] = anti + 1.5 * s.f * tc.hodge(s.g_inv, vol, ric0[v])
    return full, reduced


def strong_skew_scalar(candidate: SolitonCandidate) -> float:
    """Volume coefficient of the fully antisymmetric part of the full residual.

    For ``H = f vol`` this scalar equals ``-(laplace f + <phi, df>)/3``
    identically, so on candidates satisfying the Maxwell equation
    ``f phi = df`` it is ``-(f laplace f + |df|^2) / (3 f)`` — the pointwise
    obstruction forcing ``f`` constant on closed manifolds.
    """
    return _skew_scalar(candidate.sample, _strong_full(candidate.sample))


def _strong_full(s) -> np.ndarray:
    """The ``full`` residual of :func:`strong_residual`."""
    phi_up = tc.sharp(s.g_inv, s.dilaton)
    return s.div_riemann_tw + np.einsum("...a,...avcd->...vcd", phi_up, s.riemann_tw)


def _skew_scalar(sample, full: np.ndarray) -> float:
    """Volume coefficient of the fully antisymmetric part of ``full``."""
    skew = (full + np.einsum("...vcd->...cdv", full) + np.einsum("...vcd->...dvc", full)) / 3.0
    return tc.form_inner(sample.g_inv, skew, tc.volume_form(sample.g, sample.orientation))


def soliton_report(candidate: SolitonCandidate, tol: float = TOL_CONSTRUCTOR) -> ResidualReport:
    """Comprehensive report carrying every name in :data:`SOLITON_EQUATIONS`."""
    s = candidate.sample
    kappa = candidate.kappa
    base = residual_general(candidate, tol)
    full = _strong_full(s)
    ric_norm2 = tc.ricci_norm2(s.g_inv, s.ricci)
    trace_res = 2.0 * kappa * ric_norm2 - (2.0 * s.f**2 - 0.5 * kappa * s.f**4)
    eqs = dict(base.equations)
    eqs["strong_full"] = EquationResidual(_worst(full), tol)
    eqs["strong_skew"] = EquationResidual(_worst(_skew_scalar(s, full)), tol)
    eqs["trace_identity"] = EquationResidual(_worst(trace_res), tol)
    return ResidualReport(eqs, meta=_meta(candidate))


def heisenberg_strong_soliton(kappa: float) -> SolitonCandidate:
    """Exact nilpotent strong soliton: ``g = diag(f^2, 1, 1)``, ``f = 1/sqrt(kappa)``.

    The Ricci spectrum is ``(f^2/2, -f^2/2, -f^2/2)`` (case 1) and the unit
    axis along the center satisfies ``nabla xi = -(f/2) * hodge(xi_flat)``.
    """
    sample = hg.build_invariant_sample(*_heisenberg_args(kappa))
    return SolitonCandidate(sample, float(kappa), name="heisenberg")


def _heisenberg_args(kappa: float) -> tuple:
    """The :func:`hetflow.homogeneous.build_invariant_sample` arguments of
    :func:`heisenberg_strong_soliton`."""
    if kappa <= 0.0:
        raise ValueError("coupling kappa must be positive")
    f = 1.0 / math.sqrt(kappa)  # on Python floats, so that an overflow does not warn
    if not f * f < math.inf:
        raise ValueError(f"coupling kappa {kappa!r} is too small: 1/kappa overflows")
    return hg.catalog("heisenberg"), np.diag([f * f, 1.0, 1.0]), f


def hyperbolic_soliton(kappa: float) -> SolitonCandidate:
    """Exact Einstein strong soliton: curvature ``-1/(4 kappa)``, ``f = sqrt(3/kappa)``."""
    sample = hg.build_invariant_sample(*_hyperbolic_args(kappa))
    return SolitonCandidate(sample, float(kappa), name="hyperbolic")


def _hyperbolic_args(kappa: float) -> tuple:
    """The :func:`hetflow.homogeneous.build_invariant_sample` arguments of
    :func:`hyperbolic_soliton`."""
    if kappa <= 0.0:
        raise ValueError("coupling kappa must be positive")
    f_sq = 3.0 / float(kappa)  # on Python floats, so that an overflow does not warn
    if not f_sq < math.inf:
        raise ValueError(f"coupling kappa {kappa!r} is too small: 3/kappa overflows")
    return hg.catalog("hyperbolic", c=0.5 / np.sqrt(kappa)), np.eye(3), math.sqrt(f_sq)


# Residual case1_axis allows in d(xi_flat) = -f * hodge(xi_flat), relative to
# max(|f|, 1).
_AXIS_TOL = 1e-8


def case1_axis(
    alg: hg.LieAlgebraData,
    g: np.ndarray,
    f: float,
    orientation: int = 1,
) -> np.ndarray:
    """Unit eigenvector of the simple positive Ricci eigenvalue, oriented.

    The returned axis ``xi`` (sign fixed deterministically by its largest
    component) must satisfy ``d(xi_flat) = -f * hodge(xi_flat)``; a clean
    failure is raised when only the reversed-orientation relation
    ``d(xi_flat) = +f * hodge(xi_flat)`` fits, or when neither does.
    """
    tc.validate_metric(g)
    g_inv, _, _, ricci, _ = hg.invariant_curvature(alg, g)
    w, vecs = tc.principal_values(g, ricci)
    scale = max(float(np.max(np.abs(w))), 1e-30)
    if w[2] <= 0.0 or (w[2] - w[1]) <= 1e-8 * scale:
        raise ValueError("Ricci spectrum has no simple positive eigenvalue")
    xi = vecs[:, 2]
    k = int(np.argmax(np.abs(xi)))
    xi = xi * np.sign(xi[k])
    xi_flat = g @ xi
    d_xi = hg.invariant_d(alg, xi_flat)
    target = -f * tc.hodge(g_inv, tc.volume_form(g, orientation), xi_flat)
    err_scale = max(abs(f), 1.0)
    if float(np.max(np.abs(d_xi - target))) <= _AXIS_TOL * err_scale:
        return xi
    if float(np.max(np.abs(d_xi + target))) <= _AXIS_TOL * err_scale:
        raise ValueError("axis satisfies the reversed-orientation relation d xi = +f * xi")
    raise ValueError("axis satisfies neither orientation of d xi = -f * xi")


def heisenberg_auxiliary_connection(
    alg: hg.LieAlgebraData,
    g: np.ndarray,
    f: float,
    xi: np.ndarray,
) -> np.ndarray:
    """Coefficients of the metric connection that parallelizes the axis.

    Implements ``nabla_bar_v = nabla_v - (f/2) A(v) + f g(v, xi) A(xi)``
    where ``A(u)`` is the skew endomorphism of the two-form
    ``hodge(u_flat)`` in the positive orientation; on the exact nilpotent
    soliton this connection has vanishing curvature and ``nabla_bar xi = 0``.
    """
    tc.validate_metric(g)
    g_inv = tc.metric_inverse(g)
    gamma = hg.levi_civita_connection(alg, g, g_inv)
    vol = tc.volume_form(g)

    def skew_endo(u: np.ndarray) -> np.ndarray:
        return tc.endo_from_bilinear(g_inv, tc.hodge(g_inv, vol, tc.flat(g, u)))

    xi_endo = skew_endo(xi)
    xi_flat = tc.flat(g, xi)
    gamma_bar = np.array(gamma)
    basis = np.eye(3)
    for a in range(3):
        corr = -0.5 * f * skew_endo(basis[a]) + f * xi_flat[a] * xi_endo
        # gamma[a, b, m] stores the e_m coefficient of the derivative along e_a of e_b.
        gamma_bar[a] += corr.T
    return gamma_bar


def _lam12_inner(g_inv: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products, with 2-form weight 1/2, of the one-form (x) two-form
    block ``a`` with each block ``b[v]`` of the direction-indexed ``b``."""
    return 0.5 * np.einsum("...acd,...vbef,...ab,...ce,...df->...v", a, b, g_inv, g_inv, g_inv)


def verify_divergence_identities(
    sample: GeometrySample, kappa: float, tol: float = TOL_JET
) -> ResidualReport:
    """Evaluate the three divergence identities of the coupled system.

    The report carries, as max-abs over the frame directions,

    * ``div_curvature_square`` — the divergence of ``Rhat o Rhat`` against
      its twisted-divergence/norm-gradient expansion,
    * ``div_torsion_square`` — the divergence of ``H o H`` against its
      expansion through the skew map,
    * ``div_einstein_map`` — the divergence of the full symmetric map
      against the curvature, dilaton-gradient and skew terms.

    The general identities also carry terms in ``dH`` and ``Rhat ^ Rhat``;
    both are four-forms, which vanish in dimension three.

    All three are identities of the geometry: they hold for every sample
    regardless of whether any soliton equation is satisfied, so a failure
    indicates an implementation defect rather than a non-soliton input.
    """
    s = sample
    ginv = s.g_inv
    phi_up = tc.sharp(ginv, s.dilaton)
    e_sym, e_skew, _ = einstein_maps(s, kappa)
    kappa1 = tc.broadcast_scalar(kappa, 1)

    # Divergence of the twisted-curvature square.
    lhs1 = -np.einsum("...ab,...abv->...v", ginv, s.nabla_riemann_tw_sq)
    rhs1 = _lam12_inner(ginv, s.div_riemann_tw, s.riemann_tw) - 0.5 * s.d_riemann_tw_norm2

    # Divergence of the torsion square; skew_h[v] = <e_skew, H(v, ., .)>
    # enters it and the divergence of the symmetric map.
    skew_h = np.einsum("...cd,...vef,...ce,...df->...v", e_skew, s.torsion, ginv, ginv)
    lhs2 = -np.einsum("...ab,...abv->...v", ginv, s.nabla_torsion_sq)
    rhs2 = -0.5 * s.d_torsion_norm2 - np.einsum("...m,...mv->...v", phi_up, s.torsion_sq) + skew_h

    # Divergence of the symmetric map.
    nabla_e = (
        s.nabla_ricci
        + s.nabla2_dilaton
        - 0.5 * s.nabla_torsion_sq
        + tc.broadcast_scalar(kappa, 3) * s.nabla_riemann_tw_sq
    )
    div_e = -np.einsum("...ab,...abv->...v", ginv, nabla_e)
    phi_e = np.einsum("...m,...mv->...v", phi_up, e_sym)
    tr_e_d = (
        s.d_scalar
        - s.d_delta_dilaton
        - 1.5 * s.d_torsion_norm2
        + 2.0 * kappa1 * s.d_riemann_tw_norm2
    )
    lhs3 = div_e + phi_e + 0.5 * tr_e_d
    d_e_dil = (
        s.d_delta_dilaton
        + s.d_dilaton_norm2
        - s.d_torsion_norm2
        + kappa1 * s.d_riemann_tw_norm2
    )
    rhs3 = kappa1 * _lam12_inner(ginv, _strong_full(s), s.riemann_tw) + 0.5 * d_e_dil - 0.5 * skew_h

    eqs = {
        "div_curvature_square": EquationResidual(_worst(lhs1 - rhs1), tol),
        "div_torsion_square": EquationResidual(_worst(lhs2 - rhs2), tol),
        "div_einstein_map": EquationResidual(_worst(lhs3 - rhs3), tol),
    }
    meta = {"backend": s.backend, "dim": 3, "kappa": _number(kappa), "f": _number(s.f)}
    return ResidualReport(eqs, meta=meta)
