"""Polynomial coordinate charts evaluated through third-order jet arithmetic.

A *jet* here is a truncated Taylor expansion at the chart origin in three
coordinates, kept to total degree three and stored densely as the 20 Taylor
coefficients ``c_alpha = d^alpha F / alpha!`` ordered by total degree.  All
tensor fields (metric, connection, curvatures, torsion data, dilaton data)
are arrays whose trailing axis is the jet axis, so the chart pipeline is
exact polynomial arithmetic: the only rounding is double precision itself.

Every jet product goes through one gather--contract--scatter kernel.  The
84 pairs of monomials whose product has degree at most three are listed once
(``MUL_TRIPLES``); a product gathers the pair coefficients of both factors
along a trailing 84-long axis, contracts the tensor axes in a single
``np.einsum`` that carries the pair axis along, and sums each pair into the
coefficient of its product monomial with one ``(84, 20)`` 0/1 scatter
matrix.  ``jet_mul`` and ``jet_einsum`` share it.  A coordinate derivative
is one matrix product with a ``(20, 20)`` matrix that has a single nonzero
entry per column, so it is exact.

Validity bookkeeping is positional rather than stored: a quantity assembled
from k derivatives of the inputs has correct jet coefficients up to degree
``3 - k``, and the pipeline below only ever reads coefficients inside that
range (most outputs are read at degree zero, i.e. the value at the origin).

The end product is a :class:`GeometrySample`: a bundle of plain ``float``
arrays at the point carrying every covariant quantity (including first
covariant derivatives of the quadratic curvature/torsion contractions) that
the flow and soliton modules need.  The bundle is coupling-free: terms that
carry the quadratic-curvature coupling are assembled by the consumers.  This
backend and the homogeneous one (:mod:`hetflow.homogeneous`) fill it through
one assembly, ``_assemble_sample``, where every derived field is written
once.  Each backend hands it the metric, its inverse, the Levi-Civita
coefficients, the torsion 3-form, its density and the dilaton 1-form, plus
five primitives: a two-operand contraction (here ``jet_einsum``), the
covariant derivative (``cov_deriv_jets``), the gradient (``jet_grad``), the
curvature of connection coefficients (``curvature_jets``) and the value at
the point (``jet_value``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor_core as tc

__all__ = [
    "N_VARS",
    "JET_ORDER",
    "N_COEFFS",
    "MONOMIALS",
    "jet_from_poly",
    "jet_constant",
    "jet_value",
    "jet_mul",
    "jet_einsum",
    "jet_deriv",
    "jet_grad",
    "jet_inverse",
    "jet_sqrt",
    "jet_exp",
    "jet_log",
    "jet_matrix_inverse",
    "jet_determinant",
    "christoffel_jets",
    "curvature_jets",
    "cov_deriv_jets",
    "ChartSpec",
    "random_chart_spec",
    "conformal_chart_spec",
    "hyperbolic_chart_spec",
    "GeometrySample",
    "build_chart_sample",
    "random_chart_sample",
]

N_VARS = 3
JET_ORDER = 3

MONOMIALS: list[tuple[int, int, int]] = []
for _deg in range(JET_ORDER + 1):
    for _i in range(_deg, -1, -1):
        for _j in range(_deg - _i, -1, -1):
            MONOMIALS.append((_i, _j, _deg - _i - _j))
N_COEFFS = len(MONOMIALS)  # 20
MONO_INDEX = {m: k for k, m in enumerate(MONOMIALS)}

# (i, j, k) with monomial_i * monomial_j = monomial_k, truncated at degree 3.
MUL_TRIPLES: list[tuple[int, int, int]] = []
for _ia, _ma in enumerate(MONOMIALS):
    for _ib, _mb in enumerate(MONOMIALS):
        _mc = (_ma[0] + _mb[0], _ma[1] + _mb[1], _ma[2] + _mb[2])
        if sum(_mc) <= JET_ORDER:
            MUL_TRIPLES.append((_ia, _ib, MONO_INDEX[_mc]))

# Derivative rule per axis: (dst, src, factor) with dst <- factor * src.
DERIV_RULES: list[list[tuple[int, int, float]]] = []
for _axis in range(N_VARS):
    rules = []
    for _idx, _m in enumerate(MONOMIALS):
        bumped = list(_m)
        bumped[_axis] += 1
        bumped = tuple(bumped)
        if sum(bumped) <= JET_ORDER:
            rules.append((_idx, MONO_INDEX[bumped], float(bumped[_axis])))
    DERIV_RULES.append(rules)

_MUL_I = np.array([t[0] for t in MUL_TRIPLES])
_MUL_J = np.array([t[1] for t in MUL_TRIPLES])
_MUL_K = np.array([t[2] for t in MUL_TRIPLES])
# _MUL_SCATTER[t, k] = 1 when pair t lands on coefficient k.
_MUL_SCATTER = np.zeros((len(MUL_TRIPLES), N_COEFFS))
_MUL_SCATTER[np.arange(len(MUL_TRIPLES)), _MUL_K] = 1.0

# _DERIV[axis][src, dst] = factor, so that ``a @ _DERIV[axis]`` applies DERIV_RULES.
_DERIV = np.zeros((N_VARS, N_COEFFS, N_COEFFS))
for _axis, _rules in enumerate(DERIV_RULES):
    for _dst, _src, _factor in _rules:
        _DERIV[_axis, _src, _dst] = _factor


def jet_from_poly(coeffs: dict[tuple[int, int, int], float]) -> np.ndarray:
    """Jet of a polynomial given as ``{(i, j, k): coefficient}`` (degree <= 3)."""
    out = np.zeros(N_COEFFS)
    for mono, c in coeffs.items():
        if sum(mono) > JET_ORDER:
            raise ValueError(f"monomial {mono} exceeds jet order {JET_ORDER}")
        out[MONO_INDEX[tuple(mono)]] = c
    return out


def jet_constant(value: float) -> np.ndarray:
    out = np.zeros(N_COEFFS)
    out[0] = value
    return out


def jet_value(jets: np.ndarray):
    """Value at the origin (degree-zero coefficient); drops the jet axis."""
    out = np.asarray(jets)[..., 0]
    if out.ndim == 0:
        return float(out)
    return np.array(out, dtype=float)


def jet_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of jets; broadcasts over leading (tensor) axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return (np.take(a, _MUL_I, axis=-1) * np.take(b, _MUL_J, axis=-1)) @ _MUL_SCATTER


def jet_einsum(spec: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Einsum over the leading tensor axes of two jet arrays.

    ``spec`` addresses only the tensor axes and names its output explicitly
    (e.g. ``"abc,cm->abm"``); the jet axis is convolved with degree
    truncation.
    """
    inputs, arrow, output = spec.partition("->")
    if not arrow:
        raise ValueError(f"jet_einsum needs an explicit output in {spec!r}")
    pair = next(c for c in "zyxwvutsrqponmlkjihgfedcba" if c not in spec)
    spec_a, spec_b = inputs.split(",")
    # np.take gives C-ordered gathers with the pair axis innermost; indexing
    # with ``[..., _MUL_I]`` would put it outermost and slow the einsum.
    terms = np.einsum(
        f"{spec_a}{pair},{spec_b}{pair}->{output}{pair}",
        np.take(np.asarray(a, dtype=float), _MUL_I, axis=-1),
        np.take(np.asarray(b, dtype=float), _MUL_J, axis=-1),
    )
    return terms @ _MUL_SCATTER


def jet_deriv(a: np.ndarray, axis: int) -> np.ndarray:
    """Coordinate derivative of a jet array (valid one degree lower)."""
    return np.asarray(a, dtype=float) @ _DERIV[axis]


def jet_grad(a: np.ndarray) -> np.ndarray:
    """Stack of coordinate derivatives; the new derivative axis comes first."""
    return np.stack([jet_deriv(a, axis) for axis in range(N_VARS)], axis=0)


def _jet_series(a: np.ndarray, series: list[float], scale: float) -> np.ndarray:
    """Evaluate ``scale * sum series[k] u^k`` with ``u = a / a0 - 1``."""
    a0 = a[0]
    u = a / a0
    u = u.copy()
    u[0] -= 1.0
    out = jet_constant(series[0])
    power = jet_constant(1.0)
    for coeff in series[1:]:
        power = jet_mul(power, u)
        out = out + coeff * power
    return scale * out


def jet_inverse(a: np.ndarray) -> np.ndarray:
    """Jet of ``1 / a``; requires a nonzero value at the origin."""
    if a[0] == 0.0:
        raise ZeroDivisionError("jet has zero constant term")
    return _jet_series(a, [1.0, -1.0, 1.0, -1.0], 1.0 / a[0])


def jet_sqrt(a: np.ndarray) -> np.ndarray:
    if a[0] <= 0.0:
        raise ValueError("jet sqrt needs a positive constant term")
    return _jet_series(a, [1.0, 0.5, -0.125, 0.0625], math.sqrt(a[0]))


def jet_exp(a: np.ndarray) -> np.ndarray:
    u = a.copy()
    u[0] = 0.0
    out = jet_constant(1.0)
    power = jet_constant(1.0)
    for k in range(1, JET_ORDER + 1):
        power = jet_mul(power, u)
        out = out + power / math.factorial(k)
    return math.exp(a[0]) * out


def jet_log(a: np.ndarray) -> np.ndarray:
    if a[0] <= 0.0:
        raise ValueError("jet log needs a positive constant term")
    out = _jet_series(a, [0.0, 1.0, -0.5, 1.0 / 3.0], 1.0)
    out[0] = math.log(a[0])
    return out


def jet_determinant(g: np.ndarray) -> np.ndarray:
    """Determinant jet of a 3x3 matrix of jets (shape (3, 3, 20))."""
    def m(i: int, j: int) -> np.ndarray:
        return g[i, j]

    def mul3(a, b, c):
        return jet_mul(jet_mul(a, b), c)

    return (
        mul3(m(0, 0), m(1, 1), m(2, 2))
        + mul3(m(0, 1), m(1, 2), m(2, 0))
        + mul3(m(0, 2), m(1, 0), m(2, 1))
        - mul3(m(0, 2), m(1, 1), m(2, 0))
        - mul3(m(0, 1), m(1, 0), m(2, 2))
        - mul3(m(0, 0), m(1, 2), m(2, 1))
    )


def jet_matrix_inverse(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of a 3x3 jet matrix via the adjugate; returns (inverse, det)."""
    det = jet_determinant(g)
    inv_det = jet_inverse(det)
    cof = np.zeros_like(g)
    for i in range(3):
        for j in range(3):
            rows = [r for r in range(3) if r != i]
            cols = [c for c in range(3) if c != j]
            minor = jet_mul(g[rows[0], cols[0]], g[rows[1], cols[1]]) - jet_mul(
                g[rows[0], cols[1]], g[rows[1], cols[0]]
            )
            cof[i, j] = (-1) ** (i + j) * minor
    adj = np.swapaxes(cof, 0, 1)
    inv = jet_mul(adj, inv_det[None, None, :])
    return inv, det


def christoffel_jets(g: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """Levi-Civita coefficients ``Gamma[a, b, m] = Gamma^m_ab`` as jets."""
    dg = np.stack([jet_deriv(g, axis) for axis in range(N_VARS)], axis=0)  # dg[a,i,j]
    # t[a, b, c] = d_a g_cb + d_b g_ca - d_c g_ab
    t = np.empty((3, 3, 3, N_COEFFS))
    for a in range(3):
        for b in range(3):
            for c in range(3):
                t[a, b, c] = dg[a, c, b] + dg[b, c, a] - dg[c, a, b]
    return 0.5 * jet_einsum("abc,cm->abm", t, g_inv)


def curvature_jets(gamma: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(0,4) curvature jets of a coordinate-frame connection ``gamma[a, b, m]``.

    ``R^m_abc = d_a Gamma^m_bc - d_b Gamma^m_ac + Gamma^l_bc Gamma^m_al
    - Gamma^l_ac Gamma^m_bl`` and ``R_abcd = R^m_abc g_md``.  Works for any
    connection coefficients, in particular the torsion-twisted ones.
    """
    dgamma = np.stack([jet_deriv(gamma, axis) for axis in range(N_VARS)], axis=0)
    # dgamma[a, b, c, m] = d_a Gamma^m_bc
    quad = jet_einsum("bcl,alm->abcm", gamma, gamma)
    r_up = dgamma - np.transpose(dgamma, (1, 0, 2, 3, 4)) + quad - np.transpose(quad, (1, 0, 2, 3, 4))
    return jet_einsum("abcm,md->abcd", r_up, g)


def cov_deriv_jets(gamma: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """Covariant derivative of a (0,p) jet tensor; derivative slot first.

    ``(D_a T)_{i1..ip} = d_a T_{i1..ip} - sum_r Gamma^m_{a i_r} T_{..m..}``.
    """
    tensor = np.asarray(tensor, dtype=float)
    p = tensor.ndim - 1
    out = np.stack([jet_deriv(tensor, axis) for axis in range(N_VARS)], axis=0)
    for r in range(p):
        moved = np.moveaxis(tensor, r, 0)  # contract slot r
        corr = jet_einsum("aim,m...->ai...", gamma, moved)
        out -= np.moveaxis(corr, 1, r + 1)
    return out


# ---------------------------------------------------------------------------
# Chart inputs
# ---------------------------------------------------------------------------


@dataclass
class ChartSpec:
    """Polynomial chart data: metric, torsion density and dilaton potential jets.

    ``maxwell=True`` ties the dilaton to the torsion density via
    ``dilaton = d log(density)``, which is the closed 1-form solving the
    torsion-coupling equation ``density * dilaton = d density`` exactly.
    """

    metric: np.ndarray  # (3, 3, 20)
    density: np.ndarray  # (20,) jet of the scalar multiplying the volume form
    potential: np.ndarray  # (20,) jet of the dilaton potential
    maxwell: bool = False
    orientation: int = 1
    seed: int | None = None


# Half-width of the uniform coefficients of random_chart_spec.
_CHART_AMPLITUDE = 0.3


def random_chart_spec(seed: int, maxwell: bool = False) -> ChartSpec:
    """Random polynomial chart: ``g = Id + perturbation`` with uniform
    coefficients in ``[-0.3, 0.3]`` (``_CHART_AMPLITUDE``) on every monomial.

    A Gershgorin bound gives metric eigenvalues >= 1 - 3 * 0.3 = 0.1 at the
    origin, so the metric is SPD without redraws.  (Coefficients of degree > 3
    would not change third-order jets at the origin, so the sampler stops at
    degree three.)
    """
    rng = np.random.default_rng(seed)
    metric = np.zeros((3, 3, N_COEFFS))
    for i in range(3):
        for j in range(i, 3):
            coeffs = rng.uniform(-_CHART_AMPLITUDE, _CHART_AMPLITUDE, size=N_COEFFS)
            if i != j:
                coeffs[0] *= 0.5  # keep the origin matrix comfortably SPD
            metric[i, j] = coeffs
            metric[j, i] = coeffs
    for i in range(3):
        metric[i, i, 0] += 1.0
    density = rng.uniform(-_CHART_AMPLITUDE, _CHART_AMPLITUDE, size=N_COEFFS)
    density[0] = rng.uniform(0.7, 1.3)
    potential = rng.uniform(-_CHART_AMPLITUDE, _CHART_AMPLITUDE, size=N_COEFFS)
    potential[0] = 0.0
    return ChartSpec(metric=metric, density=density, potential=potential,
                     maxwell=maxwell, seed=seed)


def conformal_chart_spec(c: float = 1.0) -> ChartSpec:
    """Chart of ``g = exp(2 c x^1) * Id`` (Taylor-truncated; jets at 0 exact)."""
    factor = jet_exp(jet_from_poly({(1, 0, 0): 2.0 * c}))
    metric = np.zeros((3, 3, N_COEFFS))
    for i in range(3):
        metric[i, i] = factor
    return ChartSpec(metric=metric, density=jet_constant(1.0), potential=np.zeros(N_COEFFS))


def hyperbolic_chart_spec(c: float = 1.0) -> ChartSpec:
    """Solvable-model chart ``g = exp(2 c x^3)(dx1^2 + dx2^2) + dx3^2``.

    Constant sectional curvature ``-c^2``; jets at the origin are exact, so
    the curvature there is exactly that of the model space.
    """
    factor = jet_exp(jet_from_poly({(0, 0, 1): 2.0 * c}))
    metric = np.zeros((3, 3, N_COEFFS))
    metric[0, 0] = factor
    metric[1, 1] = factor
    metric[2, 2] = jet_constant(1.0)
    return ChartSpec(metric=metric, density=jet_constant(1.0), potential=np.zeros(N_COEFFS))


# ---------------------------------------------------------------------------
# Geometry samples
# ---------------------------------------------------------------------------


@dataclass
class GeometrySample:
    """Pointwise geometric data bundle shared by the chart and homogeneous backends.

    All entries are plain float arrays in the frame at the sample point.
    ``gamma[a, b, m] = Gamma^m_ab`` carries the Levi-Civita coefficients and
    ``gamma_tw`` the torsion-twisted ones.  ``div_riemann_tw[v, c, d]`` is the
    twisted divergence ``-g^{ab} (Dhat_a Rhat)_{b v c d}``.  Derivative-flavored
    scalars (``d_*``) are 1-forms; on homogeneous samples they vanish.
    The bundle carries no coupling constant: consumers weight the
    quadratic-curvature blocks themselves.  It carries no four-form either:
    every four-form vanishes in dimension three.
    """

    backend: str
    n: int
    g: np.ndarray
    g_inv: np.ndarray
    gamma: np.ndarray
    gamma_tw: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    d_scalar: np.ndarray
    nabla_ricci: np.ndarray
    riemann_tw: np.ndarray
    ricci_tw: np.ndarray
    div_riemann_tw: np.ndarray
    torsion: np.ndarray
    nabla_torsion: np.ndarray
    delta_torsion: np.ndarray
    torsion_sq: np.ndarray
    nabla_torsion_sq: np.ndarray
    torsion_norm2: float
    d_torsion_norm2: np.ndarray
    riemann_tw_sq: np.ndarray
    nabla_riemann_tw_sq: np.ndarray
    riemann_tw_norm2: float
    d_riemann_tw_norm2: np.ndarray
    f: float
    df: np.ndarray
    hess_f: np.ndarray
    laplace_f: float
    dilaton: np.ndarray
    nabla_dilaton: np.ndarray
    nabla2_dilaton: np.ndarray
    delta_dilaton: float
    d_delta_dilaton: np.ndarray
    dilaton_norm2: float
    d_dilaton_norm2: np.ndarray
    orientation: int = 1
    jet_depth: int = JET_ORDER
    meta: dict = field(default_factory=dict)


def _assemble_sample(
    g, g_inv, gamma, torsion, f, dilaton, *,
    contract, cov_deriv, grad, curvature, value,
    backend: str, orientation: int, jet_depth: int, meta: dict,
) -> GeometrySample:
    """Every derived field of a :class:`GeometrySample`, for either backend.

    Inputs are in the backend's representation (jets or plain arrays), and so
    are the primitives ``contract(spec, a, b)`` (tensor axes only),
    ``cov_deriv(gamma, tensor)``, ``grad(tensor)``, ``curvature(gamma)`` (the
    (0,4) curvature of any connection coefficients) and ``value(x)``.
    """
    riemann = curvature(gamma)
    ricci = contract("ab,aUVb->UV", g_inv, riemann)
    scalar = contract("uv,uv->", g_inv, ricci)

    # Twisted connection of the torsion 3-form H.
    gamma_tw = gamma - 0.5 * contract("abc,cm->abm", torsion, g_inv)
    riemann_tw = curvature(gamma_tw)
    g_inv0 = value(g_inv)
    nabla_torsion = cov_deriv(gamma, torsion)

    def raised(tensor, slots):
        for slot in slots:
            tensor = np.moveaxis(contract("ab,b...->a...", g_inv, np.moveaxis(tensor, slot, 0)), 0, slot)
        return tensor

    torsion_up12 = raised(torsion, (1, 2))  # only the two slots H o H contracts
    torsion_sq = 0.5 * contract("aij,bij->ab", torsion, torsion_up12)
    torsion_norm2 = contract("abc,abc->", torsion, raised(torsion_up12, (0,))) / 6.0
    riemann_tw_up3 = raised(riemann_tw, (1, 2, 3))
    riemann_tw_sq = 0.5 * contract("aijk,bijk->ab", riemann_tw, riemann_tw_up3)
    riemann_tw_norm2 = 0.25 * contract("abcd,abcd->", riemann_tw, raised(riemann_tw_up3, (0,)))

    # Scalar torsion density block.
    df = grad(f)
    hess_f = cov_deriv(gamma, df)

    nabla_dilaton = cov_deriv(gamma, dilaton)
    delta_dilaton = -contract("ab,ab->", g_inv, nabla_dilaton)
    dilaton_norm2 = contract("a,a->", dilaton, contract("ab,b->a", g_inv, dilaton))

    return GeometrySample(
        backend=backend,
        n=3,
        g=value(g),
        g_inv=g_inv0,
        gamma=value(gamma),
        gamma_tw=value(gamma_tw),
        riemann=value(riemann),
        ricci=value(ricci),
        scalar=value(scalar),
        d_scalar=value(grad(scalar)),
        nabla_ricci=value(cov_deriv(gamma, ricci)),
        riemann_tw=value(riemann_tw),
        ricci_tw=value(contract("ab,aUVb->UV", g_inv, riemann_tw)),
        div_riemann_tw=-np.einsum("ab,abvcd->vcd", g_inv0, value(cov_deriv(gamma_tw, riemann_tw))),
        torsion=value(torsion),
        nabla_torsion=value(nabla_torsion),
        delta_torsion=value(-contract("ab,abcd->cd", g_inv, nabla_torsion)),
        torsion_sq=value(torsion_sq),
        nabla_torsion_sq=value(cov_deriv(gamma, torsion_sq)),
        torsion_norm2=value(torsion_norm2),
        d_torsion_norm2=value(grad(torsion_norm2)),
        riemann_tw_sq=value(riemann_tw_sq),
        nabla_riemann_tw_sq=value(cov_deriv(gamma, riemann_tw_sq)),
        riemann_tw_norm2=value(riemann_tw_norm2),
        d_riemann_tw_norm2=value(grad(riemann_tw_norm2)),
        f=value(f),
        df=value(df),
        hess_f=value(hess_f),
        laplace_f=value(-contract("ab,ab->", g_inv, hess_f)),
        dilaton=value(dilaton),
        nabla_dilaton=value(nabla_dilaton),
        nabla2_dilaton=value(cov_deriv(gamma, nabla_dilaton)),
        delta_dilaton=value(delta_dilaton),
        d_delta_dilaton=value(grad(delta_dilaton)),
        dilaton_norm2=value(dilaton_norm2),
        d_dilaton_norm2=value(grad(dilaton_norm2)),
        orientation=orientation,
        jet_depth=jet_depth,
        meta=meta,
    )


def build_chart_sample(spec: ChartSpec) -> GeometrySample:
    """Run the jet pipeline on a chart spec and read everything at the origin."""
    g = spec.metric
    g_inv, det = jet_matrix_inverse(g)
    tc.validate_metric(jet_value(g))
    vol = spec.orientation * tc.levi_civita_symbol(3)[..., None] * jet_sqrt(det)
    # Closed dilaton 1-form from the potential (or d log density).
    potential = jet_log(spec.density) if spec.maxwell else spec.potential
    return _assemble_sample(
        g, g_inv, christoffel_jets(g, g_inv),
        jet_mul(spec.density[None, None, None, :], vol),  # H = density * vol
        spec.density, jet_grad(potential),
        # jet_einsum is read here, at call time, so a patched module attribute
        # (a call counter, a tracer) sees every contraction.
        contract=jet_einsum, cov_deriv=cov_deriv_jets, grad=jet_grad,
        curvature=lambda gamma: curvature_jets(gamma, g), value=jet_value,
        backend="chart", orientation=spec.orientation, jet_depth=JET_ORDER,
        meta={"seed": spec.seed, "maxwell": spec.maxwell},
    )


def random_chart_sample(seed: int, maxwell: bool = False) -> GeometrySample:
    return build_chart_sample(random_chart_spec(seed, maxwell=maxwell))
