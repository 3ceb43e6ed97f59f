"""Polynomial coordinate charts evaluated through graded third-order jet arithmetic.

A *jet* here is a truncated Taylor expansion at the chart origin in three
coordinates.  A jet of degree ``d`` (0 to 3) is stored densely as its
``JET_SIZES[d] = (1, 4, 10, 20)[d]`` Taylor coefficients
``c_alpha = d^alpha F / alpha!``, the monomials of total degree at most ``d``
in ``MONOMIALS`` order (ordered by total degree, so a lower degree is a
prefix).  All tensor fields (metric, connection, curvatures, torsion data,
dilaton data) are arrays whose trailing axis is the jet axis, so the chart
pipeline is exact polynomial arithmetic: the only rounding is double
precision itself.

Validity is stored in the shape.  A coordinate derivative drops one degree
(:func:`jet_deriv` of a degree-``d`` jet has degree ``d - 1``, and a
degree-0 jet has none), and a product is valid to the lower degree of its
factors, so it is computed at that degree and no further.  Every
coefficient an array holds is therefore a correct one, and nothing is
multiplied that a later step could not use: ``Rhat`` is built at degree
one because only its value and first derivatives are read.

Every jet product goes through one gather--contract--scatter kernel.  For
each degree ``d`` the pairs of monomials whose product has degree at most
``d`` are listed once (1, 7, 28 and 84 pairs); a product gathers the pair
coefficients of both factors along a trailing pair axis, contracts the
tensor axes in a single ``np.einsum`` that carries the pair axis along, and
sums each pair into the coefficient of its product monomial with one 0/1
scatter matrix.  ``jet_mul`` and ``jet_einsum`` share it.  A coordinate
derivative is one matrix product with a matrix that has a single nonzero
entry per column, so it is exact.  The metric inverse is the adjugate
written as an epsilon contraction, ``C_ia = 1/2 eps_ijk eps_abc g_jb g_kc``:
one plain einsum against the constant ``eps (x) eps`` and one ``jet_einsum``
give every cofactor, and ``det = 1/3 g_ia C_ia``.

Arrays may carry batch axes in front of the tensor axes.  Every spec
addresses the tensor axes only and is given a leading ellipsis, so the jet
kernel, the metric inverse, the connection, the curvature and the covariant
derivative run on one chart or on a stack of charts through the same calls;
a stack costs the same number of numpy calls as one chart.

The end product is a :class:`GeometrySample`: a bundle of plain ``float``
arrays at a point of a three-dimensional chart, carrying the covariant
quantities (including first covariant derivatives of the quadratic
curvature/torsion contractions) that the soliton residuals, the divergence
identities and the ``verify`` suites read.  The bundle is coupling-free:
terms that carry the quadratic-curvature coupling are assembled by the
consumers.  This backend and the homogeneous one
(:mod:`hetflow.homogeneous`) fill it through one assembly,
``_assemble_sample``, where every derived field is written once, for a
whole batch of samples: its inputs carry one leading batch axis, and it
hands out one sample per batch entry.  :func:`build_chart_samples` runs a
list of chart specs through it in one pass; :func:`build_chart_sample` is
a batch of one.  Each backend hands the assembly the metric, its inverse,
the Levi-Civita coefficients, the torsion 3-form, its density and the
dilaton 1-form, plus six primitives: a two-operand contraction (here
``jet_einsum``), the covariant derivative (``cov_deriv_jets``), the
gradient of a scalar, the curvature of connection coefficients
(``curvature_jets``), the value at the point (``jet_value``) and the cut of
a jet to a lower degree, so that a contraction read only to first order
is built only to first order.  Index raises and covariant derivatives
contract one slot at a time through cached explicit einsum specs, so the
same specs serve jets and plain arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import tensor_core as tc

__all__ = [
    "N_VARS",
    "JET_ORDER",
    "N_COEFFS",
    "JET_SIZES",
    "MONOMIALS",
    "jet_degree",
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
    "christoffel_jets",
    "curvature_jets",
    "cov_deriv_jets",
    "ChartSpec",
    "random_chart_spec",
    "conformal_chart_spec",
    "hyperbolic_chart_spec",
    "GeometrySample",
    "build_chart_sample",
    "build_chart_samples",
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
# Coefficients of a degree-d jet: (1, 4, 10, 20).
JET_SIZES = tuple(sum(1 for m in MONOMIALS if sum(m) <= d) for d in range(JET_ORDER + 1))
_DEGREE_OF_SIZE = {size: d for d, size in enumerate(JET_SIZES)}

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


def _mul_tables(degree: int) -> tuple:
    """Gather indices of both factors and the (pairs, JET_SIZES[degree]) 0/1
    scatter matrix of the pairs whose product has degree <= ``degree``."""
    triples = [t for t in MUL_TRIPLES if t[2] < JET_SIZES[degree]]
    scatter = np.zeros((len(triples), JET_SIZES[degree]))
    scatter[np.arange(len(triples)), [t[2] for t in triples]] = 1.0
    return np.array([t[0] for t in triples]), np.array([t[1] for t in triples]), scatter


_MUL_TABLES = tuple(_mul_tables(d) for d in range(JET_ORDER + 1))  # 1, 7, 28, 84 pairs

# _DERIV[axis][src, dst] = factor, so that ``a @ _DERIV[axis]`` applies DERIV_RULES;
# a degree-d jet takes the leading (JET_SIZES[d], JET_SIZES[d - 1]) block.
_DERIV = np.zeros((N_VARS, N_COEFFS, N_COEFFS))
for _axis, _rules in enumerate(DERIV_RULES):
    for _dst, _src, _factor in _rules:
        _DERIV[_axis, _src, _dst] = _factor
_DERIV_BLOCKS = (None,) + tuple(
    _DERIV[:, : JET_SIZES[d], : JET_SIZES[d - 1]].copy() for d in range(1, JET_ORDER + 1)
)


def jet_degree(a: np.ndarray) -> int:
    """Degree of a jet array, read off the length of its trailing (jet) axis."""
    shape = a.shape if isinstance(a, np.ndarray) else np.shape(a)
    try:
        return _DEGREE_OF_SIZE[shape[-1]]
    except (IndexError, KeyError):
        raise ValueError(f"a jet axis holds one of {JET_SIZES} coefficients, not shape {shape}") from None


def jet_from_poly(coeffs: dict[tuple[int, int, int], float]) -> np.ndarray:
    """Degree-3 jet of a polynomial given as ``{(i, j, k): coefficient}`` (degree <= 3)."""
    out = np.zeros(N_COEFFS)
    for mono, c in coeffs.items():
        if sum(mono) > JET_ORDER:
            raise ValueError(f"monomial {mono} exceeds jet order {JET_ORDER}")
        out[MONO_INDEX[tuple(mono)]] = c
    return out


def jet_constant(value: float, degree: int = JET_ORDER) -> np.ndarray:
    out = np.zeros(JET_SIZES[degree])
    out[0] = value
    return out


def jet_value(jets: np.ndarray):
    """Value at the origin (degree-zero coefficient); drops the jet axis."""
    out = np.asarray(jets)[..., 0]
    if out.ndim == 0:
        return float(out)
    return np.array(out, dtype=float)


def jet_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of jets at the lower of their degrees; broadcasts over leading (tensor) axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    take_a, take_b, scatter = _MUL_TABLES[min(jet_degree(a), jet_degree(b))]
    return (a.take(take_a, axis=-1) * b.take(take_b, axis=-1)) @ scatter


def jet_einsum(spec: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Einsum over the tensor axes of two jet arrays.

    ``spec`` addresses only the tensor axes and names its output explicitly
    (e.g. ``"abc,cm->abm"``); any axes in front of them are batch axes,
    broadcast as by a leading ellipsis (a spec may also place the ellipsis
    itself, as in ``"ab,b...->a..."``).  The jet axis is convolved and
    truncated at the lower of the two degrees.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    take_a, take_b, scatter = _MUL_TABLES[min(jet_degree(a), jet_degree(b))]
    # take gives C-ordered gathers with the pair axis innermost; indexing
    # with ``[..., take_a]`` would put it outermost and slow the einsum.
    terms = np.einsum(_pair_spec(spec), a.take(take_a, axis=-1), b.take(take_b, axis=-1))
    return terms @ scatter


@lru_cache(maxsize=256)
def _batch_spec(spec: str) -> str:
    """``spec`` with leading batch axes (an ellipsis) on every operand and the
    output; a spec that places an ellipsis itself is kept as it is."""
    inputs, arrow, output = spec.partition("->")
    if not arrow:
        raise ValueError(f"a tensor-axis spec needs an explicit output, not {spec!r}")
    if "..." in spec:
        return spec
    return ",".join("..." + term for term in inputs.split(",")) + "->..." + output


@lru_cache(maxsize=256)
def _pair_spec(spec: str) -> str:
    """:func:`_batch_spec` of ``spec`` with a pair axis appended to both operands and the output."""
    pair = next(c for c in "zyxwvutsrqponmlkjihgfedcba" if c not in spec)
    inputs, _, output = _batch_spec(spec).partition("->")
    spec_a, spec_b = inputs.split(",")
    return f"{spec_a}{pair},{spec_b}{pair}->{output}{pair}"


def _transpose_trailing(a: np.ndarray, perm: tuple) -> np.ndarray:
    """``a`` with its trailing ``len(perm)`` axes permuted as ``np.transpose``
    would permute them; the axes in front (batch axes) stay in place."""
    lead = a.ndim - len(perm)
    return a.transpose(*range(lead), *(lead + p for p in perm))


def _deriv_block(a: np.ndarray) -> np.ndarray:
    degree = jet_degree(a)
    if degree == 0:
        raise ValueError("a degree-0 jet has no valid derivative")
    return _DERIV_BLOCKS[degree]


def jet_deriv(a: np.ndarray, axis: int) -> np.ndarray:
    """Coordinate derivative of a jet array, one degree lower than ``a``."""
    a = np.asarray(a, dtype=float)
    return a @ _deriv_block(a)[axis]


def jet_grad(a: np.ndarray) -> np.ndarray:
    """Stack of coordinate derivatives; the new derivative axis comes first."""
    a = np.asarray(a, dtype=float)
    return _grad(a, a.ndim - 1)


def _grad(a: np.ndarray, rank: int) -> np.ndarray:
    """Coordinate derivatives of a jet array whose last ``rank`` non-jet axes
    are tensor axes; the derivative axis goes in front of them, behind any
    batch axes."""
    return np.einsum(_grad_spec(rank), a, _deriv_block(a))


@lru_cache(maxsize=None)
def _grad_spec(rank: int) -> str:
    idx = _SLOT_LETTERS[:rank]
    return f"...{idx}Y,aYX->...a{idx}X"


def _jet_series(a: np.ndarray, series: list[float], scale) -> np.ndarray:
    """Evaluate ``scale * sum series[k] u^k`` with ``u = a / a0 - 1``, at the degree of ``a``.

    Leading axes of ``a`` are batch axes; ``scale`` broadcasts against ``a``.
    """
    u = a / a[..., :1]
    u[..., 0] -= 1.0
    out = jet_constant(series[0], jet_degree(a))
    power = jet_constant(1.0, jet_degree(a))
    for coeff in series[1:]:
        power = jet_mul(power, u)
        out = out + coeff * power
    return scale * out


def jet_inverse(a: np.ndarray) -> np.ndarray:
    """Jet of ``1 / a``; requires a nonzero value at the origin."""
    a = np.asarray(a, dtype=float)
    if np.any(a[..., 0] == 0.0):
        raise ZeroDivisionError("jet has zero constant term")
    return _jet_series(a, [1.0, -1.0, 1.0, -1.0], 1.0 / a[..., :1])


def jet_sqrt(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if np.any(a[..., 0] <= 0.0):
        raise ValueError("jet sqrt needs a positive constant term")
    return _jet_series(a, [1.0, 0.5, -0.125, 0.0625], np.sqrt(a[..., :1]))


def jet_exp(a: np.ndarray) -> np.ndarray:
    u = a.copy()
    u[0] = 0.0
    out = jet_constant(1.0, jet_degree(a))
    power = jet_constant(1.0, jet_degree(a))
    for k in range(1, JET_ORDER + 1):
        power = jet_mul(power, u)
        out = out + power / math.factorial(k)
    return math.exp(a[0]) * out


def jet_log(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if np.any(a[..., 0] <= 0.0):
        raise ValueError("jet log needs a positive constant term")
    out = _jet_series(a, [0.0, 1.0, -0.5, 1.0 / 3.0], 1.0)
    out[..., 0] = np.log(a[..., 0])
    return out


# _EPS_PAIR[i, j, k, a, b, c] = eps_ijk eps_abc, the constant of the adjugate.
_EPS_PAIR = np.einsum("ijk,abc->ijkabc", tc.levi_civita_symbol(3), tc.levi_civita_symbol(3))


def jet_matrix_inverse(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of a 3x3 jet matrix via the adjugate; returns (inverse, det).

    The cofactors ``C_ia = 1/2 eps_ijk eps_abc g_jb g_kc`` are one plain
    einsum against the constant ``eps (x) eps`` (linear in ``g``, so exact
    on jets) and one jet product; then ``det = 1/3 g_ia C_ia`` and
    ``g^-1 = C^T / det``.  Leading axes of ``g`` are batch axes.
    """
    half = 0.5 * np.einsum("ijkabc,...jbY->...ikacY", _EPS_PAIR, g)
    cof = jet_einsum("ikac,kc->ia", half, g)
    det = jet_einsum("ia,ia->", g, cof) / 3.0
    inv = jet_mul(_transpose_trailing(cof, (1, 0, 2)), jet_inverse(det)[..., None, None, :])
    return inv, det


# Index letters of the tensor slots in the specs below; "a" is a derivative
# slot and "z" the contracted index.
_SLOT_LETTERS = "bcdefghijklmnopqrstuvwxy"


@lru_cache(maxsize=None)
def _raise_spec(rank: int, slot: int) -> str:
    """Spec of ``g^{s z} T_{..z..}``: slot ``slot`` of a rank-``rank`` tensor raised in place."""
    idx = _SLOT_LETTERS[:rank]
    return f"{idx[slot]}z,{idx[:slot]}z{idx[slot + 1:]}->{idx}"


@lru_cache(maxsize=None)
def _cov_deriv_spec(rank: int, slot: int) -> str:
    """Spec of ``Gamma^z_{a s} T_{..z..}`` with ``s`` in slot ``slot``: the
    connection term of the covariant derivative for that slot, derivative slot first."""
    idx = _SLOT_LETTERS[:rank]
    return f"a{idx[slot]}z,{idx[:slot]}z{idx[slot + 1:]}->a{idx}"


def christoffel_jets(g: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """Levi-Civita coefficients ``Gamma[a, b, m] = Gamma^m_ab`` as jets, one degree below ``g``.

    Leading axes of ``g`` and ``g_inv`` are batch axes.
    """
    dg = _grad(g, 2)  # dg[a, i, j] = d_a g_ij
    # t[a, b, c] = d_a g_cb + d_b g_ca - d_c g_ab
    t = (_transpose_trailing(dg, (0, 2, 1, 3)) + _transpose_trailing(dg, (2, 0, 1, 3))
         - _transpose_trailing(dg, (1, 2, 0, 3)))
    return 0.5 * jet_einsum("abc,cm->abm", t, g_inv)


def curvature_jets(gamma: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(0,4) curvature jets of a coordinate-frame connection ``gamma[a, b, m]``.

    ``R^m_abc = d_a Gamma^m_bc - d_b Gamma^m_ac + Gamma^l_bc Gamma^m_al
    - Gamma^l_ac Gamma^m_bl`` and ``R_abcd = R^m_abc g_md``, one degree below
    ``gamma``.  Works for any connection coefficients, in particular the
    torsion-twisted ones.  Leading axes are batch axes.
    """
    dgamma = _grad(gamma, 3)  # dgamma[a, b, c, m] = d_a Gamma^m_bc
    gamma = gamma[..., : dgamma.shape[-1]]  # the quadratic term to the derivative's degree
    quad = jet_einsum("bcl,alm->abcm", gamma, gamma)
    swap = (1, 0, 2, 3, 4)
    r_up = dgamma - _transpose_trailing(dgamma, swap) + quad - _transpose_trailing(quad, swap)
    return jet_einsum("abcm,md->abcd", r_up, g)


def cov_deriv_jets(gamma: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """Covariant derivative of a (0,p) jet tensor; derivative slot first.

    ``(D_a T)_{i1..ip} = d_a T_{i1..ip} - sum_r Gamma^m_{a i_r} T_{..m..}``,
    at one degree below ``tensor`` (or at the degree of ``gamma``, if lower).
    Both carry the same leading batch axes, if any.
    """
    tensor = np.asarray(tensor, dtype=float)
    rank = tensor.ndim - gamma.ndim + 3  # gamma has three tensor slots
    size = JET_SIZES[min(jet_degree(tensor) - 1, jet_degree(gamma))]
    out = _grad(tensor, rank)[..., :size]
    gamma = gamma[..., :size]  # the connection terms to the derivative's degree
    for slot in range(rank):
        out -= jet_einsum(_cov_deriv_spec(rank, slot), gamma, tensor)
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

    A sample is three-dimensional by construction: both builders take a
    3x3 metric and ``H = f vol``.  All entries are plain float arrays in the
    frame at the sample point, and each is read by the soliton residuals,
    the divergence identities or the ``verify`` suites.  Samples are built
    in batches: the assembly carries one leading batch axis on every field
    and hands out one sample per batch entry, so a built sample holds no
    batch axis.  ``hetflow verify`` stacks its samples back into one whose
    every field (``orientation`` included) has a leading batch axis, which
    the batched kernels of :mod:`~hetflow.tensor_core`,
    :mod:`~hetflow.soliton` and ``het_flow`` read as they read one sample.
    ``div_riemann_tw[v, c, d]`` is the twisted divergence
    ``-g^{ab} (Dhat_a Rhat)_{b v c d}``.  Derivative-flavored scalars
    (``d_*``) are 1-forms; on homogeneous samples they vanish.  The bundle
    carries no coupling constant: consumers weight the quadratic-curvature
    blocks themselves.  It carries no four-form either: every four-form
    vanishes in dimension three.
    """

    backend: str
    g: np.ndarray
    g_inv: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    d_scalar: np.ndarray
    nabla_ricci: np.ndarray
    riemann_tw: np.ndarray
    div_riemann_tw: np.ndarray
    torsion: np.ndarray
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
    dilaton: np.ndarray
    nabla_dilaton: np.ndarray
    nabla2_dilaton: np.ndarray
    delta_dilaton: float
    d_delta_dilaton: np.ndarray
    dilaton_norm2: float
    d_dilaton_norm2: np.ndarray
    orientation: int = 1
    meta: dict = field(default_factory=dict)


def _assemble_sample(
    g, g_inv, gamma, torsion, f, dilaton, *,
    contract, cov_deriv, grad, curvature, value, truncate,
    backend: str, orientations: list, metas: list,
) -> list[GeometrySample]:
    """Every derived field of a batch of :class:`GeometrySample`, for either backend.

    Inputs carry one leading batch axis and are in the backend's
    representation (jets or plain arrays), and so are the primitives
    ``contract(spec, a, b)`` (``spec`` addresses the tensor axes only),
    ``cov_deriv(gamma, tensor)``, ``grad(scalar)`` (derivative axis behind
    the batch axis), ``curvature(gamma)`` (the (0,4) curvature of any
    connection coefficients), ``value(x)`` and ``truncate(x, degree)`` (a jet
    cut to ``degree``; plain arrays pass through).  Returns one sample per
    batch entry, and raises ``ValueError`` naming the first entry with a
    non-finite field.
    """
    riemann = curvature(gamma)
    ricci = contract("ab,aUVb->UV", g_inv, riemann)
    scalar = contract("uv,uv->", g_inv, ricci)

    # Twisted connection of the torsion 3-form H.
    gamma_tw = gamma - 0.5 * contract("abc,cm->abm", torsion, g_inv)
    riemann_tw = curvature(gamma_tw)
    g_inv0 = value(g_inv)
    # H o H, |H|^2 and |phi|^2 are read to first order and nabla H at its
    # value, so their products stop there.
    torsion1 = truncate(torsion, 1)
    dilaton1 = truncate(dilaton, 1)
    nabla_torsion = cov_deriv(gamma, torsion1)

    def raised(tensor, rank, slots):
        for slot in slots:
            tensor = contract(_raise_spec(rank, slot), g_inv, tensor)
        return tensor

    torsion_up12 = raised(torsion1, 3, (1, 2))  # only the two slots H o H contracts
    torsion_sq = 0.5 * contract("aij,bij->ab", torsion1, torsion_up12)
    torsion_norm2 = contract("abc,abc->", torsion1, raised(torsion_up12, 3, (0,))) / 6.0
    riemann_tw_up3 = raised(riemann_tw, 4, (1, 2, 3))
    riemann_tw_sq = 0.5 * contract("aijk,bijk->ab", riemann_tw, riemann_tw_up3)
    riemann_tw_norm2 = 0.25 * contract("abcd,abcd->", riemann_tw, raised(riemann_tw_up3, 4, (0,)))

    nabla_dilaton = cov_deriv(gamma, dilaton)
    delta_dilaton = -contract("ab,ab->", g_inv, nabla_dilaton)
    dilaton_norm2 = contract("a,a->", dilaton1, contract("ab,b->a", g_inv, dilaton1))

    fields = dict(
        g=value(g),
        g_inv=g_inv0,
        riemann=value(riemann),
        ricci=value(ricci),
        scalar=value(scalar),
        d_scalar=value(grad(scalar)),
        nabla_ricci=value(cov_deriv(gamma, ricci)),
        riemann_tw=value(riemann_tw),
        div_riemann_tw=-np.einsum("...ab,...abvcd->...vcd", g_inv0,
                                  value(cov_deriv(gamma_tw, riemann_tw))),
        torsion=value(torsion),
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
        df=value(grad(f)),
        dilaton=value(dilaton),
        nabla_dilaton=value(nabla_dilaton),
        nabla2_dilaton=value(cov_deriv(gamma, nabla_dilaton)),
        delta_dilaton=value(delta_dilaton),
        d_delta_dilaton=value(grad(delta_dilaton)),
        dilaton_norm2=value(dilaton_norm2),
        d_dilaton_norm2=value(grad(dilaton_norm2)),
    )
    size = len(metas)
    finite = np.isfinite(np.concatenate([v.reshape(size, -1) for v in fields.values()], axis=1)).all(axis=1)
    if not finite.all():
        raise ValueError(f"sample {int(np.argmin(finite))}: its {backend} geometry is not finite "
                         "in double precision")
    # Per-sample columns: Python floats for scalars, views of the batch otherwise.
    columns = [v.tolist() if v.ndim == 1 else list(v) for v in fields.values()]
    return [
        GeometrySample(backend=backend, orientation=orientation, meta=meta, **dict(zip(fields, row)))
        for orientation, meta, *row in zip(orientations, metas, *columns)
    ]


def _stack_chart_specs(specs: list) -> tuple:
    """``(metric, density, potential)`` of the specs stacked on a leading
    batch axis, after checking each spec's shapes, coefficients, orientation
    and metric value; errors name the spec's index."""
    shapes = (("metric", (3, 3, N_COEFFS)), ("density", (N_COEFFS,)), ("potential", (N_COEFFS,)))
    for k, spec in enumerate(specs):
        for name, shape in shapes:
            if np.shape(getattr(spec, name)) != shape:
                raise ValueError(f"sample {k}: {name} must have shape {shape}, "
                                 f"not {np.shape(getattr(spec, name))}")
        if spec.orientation not in (1, -1):
            raise ValueError(f"sample {k}: orientation must be +1 or -1, not {spec.orientation!r}")
    metric, density, potential = (
        np.array([getattr(spec, name) for spec in specs], dtype=float) for name, _ in shapes
    )
    finite = (np.isfinite(metric).all(axis=(1, 2, 3)) & np.isfinite(density).all(axis=1)
              & np.isfinite(potential).all(axis=1))
    bad = np.flatnonzero(~finite)
    if bad.size:
        raise ValueError(f"sample {bad[0]}: metric, density and potential jets must be finite")
    tc.validate_metric(metric[..., 0])
    return metric, density, potential


def build_chart_samples(specs) -> list[GeometrySample]:
    """Run the jet pipeline on a batch of chart specs in one pass and read
    every sample at the origin; one :class:`GeometrySample` per spec, in order.

    Raises ``ValueError``, naming the spec's index, for a spec that is not
    a finite degree-3 chart with an SPD metric value and orientation +-1, a
    ``maxwell`` spec whose density is not positive at the origin, and a spec
    whose geometry overflows.
    """
    specs = list(specs)
    if not specs:
        return []
    with np.errstate(all="ignore"):  # overflow shows up as a non-finite field
        g, density, potential = _stack_chart_specs(specs)
        maxwell = np.array([bool(spec.maxwell) for spec in specs])
        bad = np.flatnonzero(maxwell & ~(density[:, 0] > 0.0))
        if bad.size:
            raise ValueError(f"sample {bad[0]}: a maxwell chart needs a positive density at the origin")
        try:
            g_inv, det = jet_matrix_inverse(g)
        except ZeroDivisionError:
            raise ValueError("a chart metric's determinant rounds to zero") from None
        bad = np.flatnonzero(~(det[:, 0] > 0.0))
        if bad.size:
            raise ValueError(f"sample {bad[0]}: metric determinant {det[bad[0], 0]:.3e} "
                             "is not positive in double precision")
        # H and f are read with at most two derivatives: degree 2 carries them.
        two = JET_SIZES[2]
        orientation = np.array([spec.orientation for spec in specs], dtype=float)
        vol = (orientation[:, None, None, None, None] * tc.levi_civita_symbol(3)[..., None]
               * jet_sqrt(det[:, :two])[:, None, None, None, :])
        # Closed dilaton 1-form from the potential (or d log density); log
        # only where it is taken, since other densities may be negative.
        if maxwell.any():
            potential[maxwell] = jet_log(density[maxwell])
        return _assemble_sample(
            g, g_inv, christoffel_jets(g, g_inv),
            jet_mul(density[:, None, None, None, :], vol),  # H = density * vol
            density[:, :two], _grad(potential, 0),
            # jet_einsum is read here, at call time, so a patched module
            # attribute (a call counter, a tracer) sees every contraction.
            contract=jet_einsum, cov_deriv=cov_deriv_jets, grad=lambda scalar: _grad(scalar, 0),
            curvature=lambda gamma: curvature_jets(gamma, g), value=jet_value,
            truncate=lambda jets, degree: jets[..., : JET_SIZES[degree]],
            backend="chart", orientations=[spec.orientation for spec in specs],
            metas=[{"seed": spec.seed, "maxwell": spec.maxwell} for spec in specs],
        )


def build_chart_sample(spec: ChartSpec) -> GeometrySample:
    """Run the jet pipeline on a chart spec and read everything at the origin
    (:func:`build_chart_samples` on a batch of one)."""
    return build_chart_samples([spec])[0]


def random_chart_sample(seed: int, maxwell: bool = False) -> GeometrySample:
    return build_chart_sample(random_chart_spec(seed, maxwell=maxwell))
