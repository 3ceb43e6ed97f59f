"""Invariant geometry of metric Lie algebras (homogeneous-space backend).

A left-invariant geometry is specified by structure constants
``C[i, j, k]`` (``[e_i, e_j] = C[i, j, k] e_k``) together with an SPD matrix
of inner products ``g`` in the frame ``e_i``.  Everything is then finite
dimensional linear algebra:

* Levi-Civita coefficients come from the invariant Koszul formula
  ``2 g(D_i e_j, e_k) = g([e_i,e_j], e_k) - g([e_j,e_k], e_i)
  + g([e_k,e_i], e_j)``.
* Curvature uses the frame formula
  ``R(e_i, e_j) e_k = D_i D_j e_k - D_j D_i e_k - D_{[e_i, e_j]} e_k``.
* The exterior derivative of invariant forms is purely algebraic:
  ``d w(x_0, .., x_p) = sum_{i<j} (-1)^{i+j} w([x_i, x_j], x_0, .., no i, no j, .., x_p)``.
* Covariant derivatives of invariant (0,p) tensors reduce to
  ``(D_a T)(..) = - sum_r Gamma^m_{a i_r} T(.. e_m ..)``.

:func:`build_invariant_samples` fills a batch
:class:`~hetflow.chart_jets.GeometrySample` (every field with a leading
batch axis) in one pass through the assembly it shares with the chart
backend.  The metrics, densities, dilatons and the structure constants of
each entry's algebra are stacked on one leading batch axis, so one batch
may mix algebras; a single :func:`build_invariant_sample` is a batch of
one, indexed at 0.  The backend supplies plain arrays and six primitives:
``np.einsum`` with a leading ellipsis as the contraction,
:func:`invariant_cov_deriv`, a zero gradient (invariant fields are
constant, so every ``d_*`` field vanishes),
:func:`invariant_riemann` as the curvature, and the array itself as the
value at the point and as its own cut to a lower jet degree.
:func:`levi_civita_connection`, :func:`invariant_riemann` and
:func:`invariant_cov_deriv` take one sample or a stack of them.

The unimodular three-dimensional entries of the catalog are kept in a
diagonalized bracket normal form ``[e_2,e_3] = l1 e1`` (cyclic), which makes
the classical principal-Ricci formulas available as an independent oracle
and as the three-ODE flow of diagonal metrics in :mod:`hetflow.het_flow`:
with ``m_i = (l1+l2+l3)/2 - l_i`` the Ricci endomorphism of the identity
metric is ``diag(2 m_2 m_3, 2 m_1 m_3, 2 m_1 m_2)``.  The non-unimodular
``hyperbolic`` entry has brackets ``[x, y] = l(x) y - l(y) x``
(:func:`l_form`), on which every invariant metric is Einstein.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import tensor_core as tc
from .chart_jets import (
    GeometrySample,
    _assemble_sample,
    _batch_spec,
    _cov_deriv_spec,
    _transpose_trailing,
)

__all__ = [
    "LieAlgebraData",
    "from_milnor",
    "catalog",
    "CATALOG_NAMES",
    "milnor_lambdas",
    "l_form",
    "levi_civita_connection",
    "connection_twisted",
    "invariant_riemann",
    "invariant_curvature",
    "invariant_cov_deriv",
    "invariant_d",
    "closed_one_forms",
    "build_invariant_sample",
    "build_invariant_samples",
    "random_invariant_sample",
]


# Largest |trace ad_x| that LieAlgebraData.is_unimodular counts as zero.
_UNIMODULAR_TOL = 1e-12


@dataclass
class LieAlgebraData:
    """Structure constants and bookkeeping for a real Lie algebra (dim <= 6)."""

    name: str
    dim: int
    structure: np.ndarray  # C[i, j, k]
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        c = np.asarray(self.structure, dtype=float)
        if c.shape != (self.dim,) * 3:
            raise ValueError(f"structure constants must be shape {(self.dim,)*3}")
        if not np.all(np.isfinite(c)):
            raise ValueError("structure constants must be finite")
        if np.max(np.abs(c + np.swapaxes(c, 0, 1))) > 1e-14:
            raise ValueError("structure constants are not antisymmetric in the first two slots")
        self.structure = c

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijk->k", x, y, self.structure)

    def jacobi_residual(self) -> float:
        """Max norm of ``[[x,y],z] + [[y,z],x] + [[z,x],y]`` over basis triples."""
        c = self.structure
        term = np.einsum("ijm,mkl->ijkl", c, c)
        cyc = term + np.einsum("jkm,mil->ijkl", c, c) + np.einsum("kim,mjl->ijkl", c, c)
        return float(np.max(np.abs(cyc)))

    def is_unimodular(self) -> bool:
        """Whether every ``ad_x`` is traceless (``|sum_i C[j, i, i]| <= _UNIMODULAR_TOL``)."""
        traces = np.einsum("jii->j", self.structure)
        return bool(np.max(np.abs(traces)) <= _UNIMODULAR_TOL)


def _milnor_structure(lambdas) -> np.ndarray:
    """Structure constants of the bracket normal form ``[e_2, e_3] = l1 e_1`` (cyclic)."""
    l1, l2, l3 = lambdas
    c = np.zeros((3, 3, 3))
    c[1, 2, 0] = l1
    c[2, 1, 0] = -l1
    c[2, 0, 1] = l2
    c[0, 2, 1] = -l2
    c[0, 1, 2] = l3
    c[1, 0, 2] = -l3
    return c


def from_milnor(lambdas, name: str = "milnor", params: dict | None = None) -> LieAlgebraData:
    """Unimodular 3D algebra in bracket normal form ``[e_2, e_3] = l1 e_1`` (cyclic)."""
    return LieAlgebraData(name=name, dim=3, structure=_milnor_structure(lambdas),
                          params={"lambdas": tuple(float(v) for v in lambdas), **(params or {})})


CATALOG_NAMES = ("r3", "heisenberg", "su2", "sl2r", "e11", "e2", "hyperbolic")


def catalog(name: str, **params) -> LieAlgebraData:
    """Named three-dimensional geometries.

    * ``r3`` — abelian (flat).
    * ``heisenberg`` — nilpotent, single bracket ``[e_2, e_3] = e_1``.
    * ``su2`` — compact form tuned by ``kappa``: brackets ``(a, a, 4a)`` with
      ``a = 1 / (2 sqrt(kappa))``.
    * ``sl2r`` — brackets ``(1, 1, -1)``.
    * ``e11`` — solvable Sol-type, brackets ``(1, -1, 0)``.
    * ``e2`` — Euclidean-motion type, brackets ``(1, 1, 0)``.
    * ``hyperbolic`` — non-unimodular ``[e_3, e_1] = c e_1``,
      ``[e_3, e_2] = c e_2``; with the identity metric this is the constant
      sectional curvature ``-c^2`` model (``Ric = -2 c^2 g``).
    """
    if name == "r3":
        return LieAlgebraData("r3", 3, np.zeros((3, 3, 3)))
    if name == "heisenberg":
        return from_milnor((1.0, 0.0, 0.0), name="heisenberg")
    if name == "su2":
        kappa = float(params.get("kappa", 1.0))
        if not 0.0 < kappa < np.inf:
            raise ValueError("su2 catalog entry needs a finite kappa > 0")
        a = 0.5 / np.sqrt(kappa)
        return from_milnor((a, a, 4.0 * a), name="su2", params={"kappa": kappa})
    if name == "sl2r":
        return from_milnor((1.0, 1.0, -1.0), name="sl2r")
    if name == "e11":
        return from_milnor((1.0, -1.0, 0.0), name="e11")
    if name == "e2":
        return from_milnor((1.0, 1.0, 0.0), name="e2")
    if name == "hyperbolic":
        c = float(params.get("c", 1.0))
        s = np.zeros((3, 3, 3))
        s[2, 0, 0] = c
        s[0, 2, 0] = -c
        s[2, 1, 1] = c
        s[1, 2, 1] = -c
        return LieAlgebraData("hyperbolic", 3, s, params={"c": c})
    raise ValueError(f"unknown catalog entry {name!r}; choose from {CATALOG_NAMES}")


def milnor_lambdas(alg: LieAlgebraData) -> tuple | None:
    """Brackets ``(l1, l2, l3)`` of an algebra given in bracket normal form.

    ``None`` unless the algebra is three-dimensional and its only nonzero
    structure constants are ``C[1, 2, 0] = l1``, ``C[2, 0, 1] = l2``,
    ``C[0, 1, 2] = l3`` and their exact antisymmetric partners (the frame of
    :func:`from_milnor`); ``r3`` gives ``(0, 0, 0)``.
    """
    if alg.dim != 3:
        return None
    c = alg.structure
    lambdas = (float(c[1, 2, 0]), float(c[2, 0, 1]), float(c[0, 1, 2]))
    return lambdas if np.array_equal(c, _milnor_structure(lambdas)) else None


def l_form(alg: LieAlgebraData) -> tuple | None:
    """The one-form ``l`` of an algebra with brackets ``[x, y] = l(x) y - l(y) x``.

    ``l_i = 1/2 sum_j C[i, j, j]``; ``None`` unless the algebra is
    three-dimensional and its structure constants equal
    ``l_i delta_jk - l_j delta_ik`` exactly, as :func:`milnor_lambdas` asks
    of its normal form.  Every left-invariant metric ``g`` on such an algebra
    has constant sectional curvature ``-K`` with ``K = l.g^-1.l`` (Milnor
    1976, section 1), so ``Ric = -2 K g``.  ``hyperbolic`` gives ``(0, 0, c)``
    and the abelian ``r3`` gives ``(0, 0, 0)``; a rotated frame of
    ``hyperbolic`` gives ``None``, since rounding leaves its constants off
    that form.
    """
    if alg.dim != 3:
        return None
    c = alg.structure
    ell = 0.5 * np.einsum("ijj->i", c)
    eye = np.eye(3)
    form = np.einsum("i,jk->ijk", ell, eye) - np.einsum("j,ik->ijk", ell, eye)
    return tuple(ell.tolist()) if np.array_equal(c, form) else None


def _principal_ricci(l1: float, l2: float, l3: float) -> tuple:
    """Milnor's principal Ricci values on Python floats (see the module docstring)."""
    half = 0.5 * (l1 + l2 + l3)
    m1, m2, m3 = half - l1, half - l2, half - l3
    return 2.0 * m2 * m3, 2.0 * m1 * m3, 2.0 * m1 * m2


def _structure(alg) -> np.ndarray:
    return alg.structure if isinstance(alg, LieAlgebraData) else alg


def levi_civita_connection(alg: LieAlgebraData, g: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """Koszul coefficients ``Gamma[i, j, m]`` with ``D_{e_i} e_j = Gamma[i,j,m] e_m``.

    ``alg`` may also be structure constants stacked on leading batch axes,
    which ``g`` and ``g_inv`` then share.
    """
    a = np.einsum("...ijm,...mk->...ijk", _structure(alg), g)  # g([e_i, e_j], e_k)
    n = 0.5 * (a - _transpose_trailing(a, (2, 0, 1)) + _transpose_trailing(a, (1, 2, 0)))
    return np.einsum("...ijk,...km->...ijm", n, g_inv)


def connection_twisted(gamma: np.ndarray, g_inv: np.ndarray, torsion: np.ndarray) -> np.ndarray:
    """Metric connection with totally skew torsion ``-H``, twisted from the
    Levi-Civita coefficients ``gamma``: ``Gammahat^m_ij = Gamma^m_ij - 1/2 H_ijc g^cm``."""
    return gamma - 0.5 * np.einsum("ijc,cm->ijm", torsion, g_inv)


def invariant_riemann(alg: LieAlgebraData, g: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(0,4) curvature of frame-connection coefficients on invariant data.

    ``R(e_i, e_j) e_k = D_i D_j e_k - D_j D_i e_k - D_{[e_i, e_j]} e_k``;
    valid for the Levi-Civita and the torsion-twisted coefficients alike.
    ``alg`` may also be structure constants stacked on leading batch axes,
    which ``g`` and ``gamma`` then share.
    """
    quad = np.einsum("...jkm,...imp->...ijkp", gamma, gamma)
    r_up = (quad - _transpose_trailing(quad, (1, 0, 2, 3))
            - np.einsum("...ijl,...lkp->...ijkp", _structure(alg), gamma))
    return np.einsum("...ijkp,...pd->...ijkd", r_up, g)


def invariant_curvature(alg: LieAlgebraData, g: np.ndarray) -> tuple:
    """``(g_inv, gamma, riemann, ricci, scalar)`` of an invariant metric, from one inverse."""
    g_inv = tc.metric_inverse(g)
    gamma = levi_civita_connection(alg, g, g_inv)
    riemann = invariant_riemann(alg, g, gamma)
    ricci = tc.ricci_from_riemann(g_inv, riemann)
    return g_inv, gamma, riemann, ricci, tc.scalar_curvature(g_inv, ricci)


def invariant_cov_deriv(gamma: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """Covariant derivative of an invariant (0,p) tensor; derivative slot first.

    ``gamma`` and ``tensor`` carry the same leading batch axes, if any.
    """
    tensor = np.asarray(tensor, dtype=float)
    rank = tensor.ndim - gamma.ndim + 3  # gamma has three tensor slots
    out = np.zeros(gamma.shape[:-2] + tensor.shape[tensor.ndim - rank:])
    for slot in range(rank):
        out -= np.einsum(_batch_spec(_cov_deriv_spec(rank, slot)), gamma, tensor)
    return out


def invariant_d(alg: LieAlgebraData, form: np.ndarray) -> np.ndarray:
    """Exterior derivative of an invariant p-form (algebraic Palais formula).

    ``d w(x_0, .., x_p) = sum_{i<j} (-1)^{i+j} w([x_i, x_j], .. no x_i, x_j ..)``;
    invariant scalars (p = 0) have vanishing differential.
    """
    form = np.asarray(form, dtype=float)
    p = form.ndim
    n = alg.dim
    out = np.zeros((n,) * (p + 1))
    if p == 0:
        return out
    # term[a, b, rest] = w([e_a, e_b], rest); slots a, b go to positions i, j.
    term = np.einsum("abm,m...->ab...", alg.structure, form)
    for i, j in itertools.combinations(range(p + 1), 2):
        out += (-1) ** (i + j) * np.moveaxis(term, (0, 1), (i, j))
    return out


# Singular values of the bracket-image matrix below this share of the largest
# count as zero in closed_one_forms.
_RANK_TOL = 1e-10


def closed_one_forms(alg: LieAlgebraData) -> np.ndarray:
    """Orthonormal basis (rows) of invariant closed 1-forms.

    An invariant 1-form is closed iff it annihilates the derived algebra, so
    the basis spans the null space of the bracket-image matrix.
    """
    n = alg.dim
    images = alg.structure.reshape(n * n, n)
    _, s, vt = np.linalg.svd(images, full_matrices=True)
    rank = int(np.sum(s > _RANK_TOL * max(1.0, s[0] if s.size else 1.0)))
    return vt[rank:]


def build_invariant_sample(
    alg: LieAlgebraData,
    g: np.ndarray,
    f: float,
    dilaton: np.ndarray | None = None,
    orientation: int = 1,
) -> GeometrySample:
    """Geometry bundle of an invariant metric with torsion ``H = f vol`` (dim 3).

    ``dilaton`` is an invariant 1-form (coefficient vector); closedness is the
    caller's responsibility (see :func:`closed_one_forms`).  All invariant
    scalars are constant, so the ``d_*`` entries vanish identically.  This is
    :func:`build_invariant_samples` on a batch of one, indexed at 0: one
    sample with Python-float scalars, an int orientation and a meta dict.
    """
    return build_invariant_samples([(alg, g, f, dilaton, orientation)])[0]


def _checked_args(k: int, alg, g, f, dilaton=None, orientation=1) -> tuple:
    """The arguments of :func:`build_invariant_sample` as arrays, after the
    checks that need no linear algebra (the metrics are checked together);
    errors name the sample's index."""
    if alg.dim != 3:
        raise ValueError(f"sample {k}: full geometry samples are three-dimensional; "
                         "use the raw helpers in higher dimension")
    g = np.asarray(g, dtype=float)
    if g.shape != (3, 3):
        raise ValueError(f"sample {k}: metric must be a 3x3 matrix, not shape {g.shape}")
    if not np.isfinite(f):
        raise ValueError(f"sample {k}: torsion density f must be finite")
    dilaton = np.zeros(3) if dilaton is None else np.asarray(dilaton, dtype=float)
    if dilaton.shape != (3,) or not np.all(np.isfinite(dilaton)):
        raise ValueError(f"sample {k}: dilaton must be a finite vector of shape (3,)")
    if orientation not in (1, -1):
        raise ValueError(f"sample {k}: orientation must be +1 or -1, not {orientation!r}")
    return alg, g, float(f), dilaton, orientation


def build_invariant_samples(args) -> GeometrySample:
    """Invariant geometry bundles of a batch in one pass.

    Each entry of ``args`` is a tuple of :func:`build_invariant_sample`
    arguments, ``(alg, g, f)``, ``(alg, g, f, dilaton)`` or
    ``(alg, g, f, dilaton, orientation)``.  The algebras may differ: their
    structure constants are stacked on the batch axis with the metrics.
    Returns one :class:`~hetflow.chart_jets.GeometrySample` whose fields hold
    the entries in order on a leading batch axis; ``batch[k]`` is entry
    ``k``'s sample, as :func:`build_invariant_sample` returns it.  Raises
    ``ValueError`` for an empty ``args`` and, naming the entry's index, for
    an algebra that is not three-dimensional, a metric that is not a finite
    SPD 3x3 matrix, a non-finite ``f``, a dilaton that is not a finite
    ``(3,)`` vector, an orientation other than +-1, and a geometry that
    overflows.
    """
    checked = [_checked_args(k, *entry) for k, entry in enumerate(args)]
    if not checked:
        raise ValueError("a batch of invariant samples needs at least one entry")
    algs, gs, fs, dilatons, orientations = zip(*checked)
    g = np.array(gs)
    structure = np.array([alg.structure for alg in algs])
    f = np.array(fs)
    with np.errstate(all="ignore"):  # overflow shows up as a non-finite field
        tc.validate_metric(g)
        g_inv = tc.metric_inverse(g)
        torsion = f[:, None, None, None] * tc.volume_form(g, np.array(orientations))
        return _assemble_sample(
            g, g_inv, levi_civita_connection(structure, g, g_inv), torsion, f, np.array(dilatons),
            contract=_contract, cov_deriv=invariant_cov_deriv,
            grad=lambda scalar: np.zeros(np.shape(scalar) + (3,)),
            curvature=lambda gamma: invariant_riemann(structure, g, gamma),
            value=lambda x: x, truncate=lambda x, degree: x,
            backend="homogeneous", orientations=list(orientations),
            metas=[{"algebra": alg.name, **alg.params} for alg in algs],
        )


def _contract(spec: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.einsum`` of a tensor-axis spec over leading batch axes."""
    return np.einsum(_batch_spec(spec), a, b)


# closed_one_forms of the catalog entries without parameters, by name, each
# computed on its first draw in a process.
_CLOSED_FORMS: dict = {}


def _random_invariant_args(seed: int) -> tuple:
    """The :func:`build_invariant_sample` arguments of :func:`random_invariant_sample`."""
    rng = np.random.default_rng(seed)
    name = CATALOG_NAMES[int(rng.integers(len(CATALOG_NAMES)))]
    if name == "su2":
        alg = catalog("su2", kappa=float(rng.uniform(0.3, 3.0)))
    elif name == "hyperbolic":
        alg = catalog("hyperbolic", c=float(rng.uniform(0.3, 2.0)))
    else:
        alg = catalog(name)
    a = rng.normal(size=(3, 3))
    g = a @ a.T + 0.5 * np.eye(3)
    f = float(rng.uniform(0.3, 2.0))
    basis = _CLOSED_FORMS.get(name)
    if basis is None:
        basis = closed_one_forms(alg)
        if name not in ("su2", "hyperbolic"):  # the entries with a parameter
            _CLOSED_FORMS[name] = basis
    dilaton = None
    if basis.shape[0]:
        dilaton = basis.T @ rng.uniform(-1.0, 1.0, size=basis.shape[0])
    orientation = int(rng.choice([-1, 1]))
    return alg, g, f, dilaton, orientation


def random_invariant_sample(seed: int):
    """Deterministic random invariant geometry for batch verification.

    Draws a catalog algebra (with random coupling where the family has one),
    a well-conditioned random invariant metric, a random flux scale, a random
    closed invariant one-form, and a random orientation.
    """
    return build_invariant_sample(*_random_invariant_args(seed))
