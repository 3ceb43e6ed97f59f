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

Scalar invariants built from invariant data are constant, so every ``d_*``
field of the resulting :class:`~hetflow.chart_jets.GeometrySample` vanishes.

The unimodular three-dimensional entries of the catalog are kept in a
diagonalized bracket normal form ``[e_2,e_3] = l1 e1`` (cyclic), which makes
the classical principal-Ricci formulas available as an independent oracle
and as the three-ODE flow of diagonal metrics in :mod:`hetflow.het_flow`:
with ``m_i = (l1+l2+l3)/2 - l_i`` the Ricci endomorphism of the identity
metric is ``diag(2 m_2 m_3, 2 m_1 m_3, 2 m_1 m_2)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import tensor_core as tc
from .chart_jets import GeometrySample

__all__ = [
    "LieAlgebraData",
    "from_milnor",
    "catalog",
    "CATALOG_NAMES",
    "milnor_lambdas",
    "milnor_principal_ricci",
    "milnor_ricci_diag",
    "levi_civita_connection",
    "connection_twisted",
    "invariant_riemann",
    "invariant_curvature",
    "invariant_cov_deriv",
    "invariant_d",
    "closed_one_forms",
    "build_invariant_sample",
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


def from_milnor(lambdas, name: str = "milnor", params: dict | None = None) -> LieAlgebraData:
    """Unimodular 3D algebra in bracket normal form ``[e_2, e_3] = l1 e_1`` (cyclic)."""
    l1, l2, l3 = lambdas
    c = np.zeros((3, 3, 3))
    c[1, 2, 0] = l1
    c[2, 1, 0] = -l1
    c[2, 0, 1] = l2
    c[0, 2, 1] = -l2
    c[0, 1, 2] = l3
    c[1, 0, 2] = -l3
    return LieAlgebraData(name=name, dim=3, structure=c,
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
    return lambdas if np.array_equal(c, from_milnor(lambdas).structure) else None


def _principal_ricci(l1: float, l2: float, l3: float) -> tuple:
    """Milnor's principal Ricci values on Python floats (see the module docstring)."""
    half = 0.5 * (l1 + l2 + l3)
    m1, m2, m3 = half - l1, half - l2, half - l3
    return 2.0 * m2 * m3, 2.0 * m1 * m3, 2.0 * m1 * m2


def milnor_principal_ricci(lambdas) -> np.ndarray:
    """Principal Ricci values of the identity metric in bracket normal form."""
    return np.array(_principal_ricci(*(float(v) for v in lambdas)))


def milnor_ricci_diag(lambdas, diag) -> np.ndarray:
    """Ricci tensor (diagonal entries in the original frame) of a diagonal
    metric ``g = diag(d)`` on a bracket-normal-form algebra.

    Rescaling ``ehat_i = e_i / sqrt(d_i)`` is orthonormal with brackets
    ``lhat_1 = l1 sqrt(d1 / (d2 d3))`` (cyclic), so
    ``Ric(e_i, e_i) = d_i * r_i(lhat)``.
    """
    d = np.asarray(diag, dtype=float)
    l = np.asarray(lambdas, dtype=float)
    lhat = np.array(
        [
            l[0] * np.sqrt(d[0] / (d[1] * d[2])),
            l[1] * np.sqrt(d[1] / (d[2] * d[0])),
            l[2] * np.sqrt(d[2] / (d[0] * d[1])),
        ]
    )
    return d * milnor_principal_ricci(lhat)


def levi_civita_connection(alg: LieAlgebraData, g: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """Koszul coefficients ``Gamma[i, j, m]`` with ``D_{e_i} e_j = Gamma[i,j,m] e_m``."""
    a = np.einsum("ijm,mk->ijk", alg.structure, g)  # g([e_i, e_j], e_k)
    n = 0.5 * (a - np.transpose(a, (2, 0, 1)) + np.transpose(a, (1, 2, 0)))
    return np.einsum("ijk,km->ijm", n, g_inv)


def connection_twisted(gamma: np.ndarray, g_inv: np.ndarray, torsion: np.ndarray) -> np.ndarray:
    """Metric connection with totally skew torsion ``-H``, twisted from the
    Levi-Civita coefficients ``gamma``: ``Gammahat^m_ij = Gamma^m_ij - 1/2 H_ijc g^cm``."""
    return gamma - 0.5 * np.einsum("ijc,cm->ijm", torsion, g_inv)


def invariant_riemann(alg: LieAlgebraData, g: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(0,4) curvature of frame-connection coefficients on invariant data.

    ``R(e_i, e_j) e_k = D_i D_j e_k - D_j D_i e_k - D_{[e_i, e_j]} e_k``;
    valid for the Levi-Civita and the torsion-twisted coefficients alike.
    """
    quad = np.einsum("jkm,imp->ijkp", gamma, gamma)
    r_up = quad - np.transpose(quad, (1, 0, 2, 3)) - np.einsum("ijl,lkp->ijkp", alg.structure, gamma)
    return np.einsum("ijkp,pd->ijkd", r_up, g)


def invariant_curvature(alg: LieAlgebraData, g: np.ndarray) -> tuple:
    """``(g_inv, gamma, riemann, ricci, scalar)`` of an invariant metric, from one inverse."""
    g_inv = tc.metric_inverse(g)
    gamma = levi_civita_connection(alg, g, g_inv)
    riemann = invariant_riemann(alg, g, gamma)
    ricci = tc.ricci_from_riemann(g_inv, riemann)
    return g_inv, gamma, riemann, ricci, tc.scalar_curvature(g_inv, ricci)


def invariant_cov_deriv(gamma: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """Covariant derivative of an invariant (0,p) tensor; derivative slot first."""
    tensor = np.asarray(tensor, dtype=float)
    p = tensor.ndim
    n = gamma.shape[0]
    out = np.zeros((n,) + tensor.shape)
    for r in range(p):
        moved = np.moveaxis(tensor, r, 0)
        corr = np.einsum("aim,m...->ai...", gamma, moved)
        out -= np.moveaxis(corr, 1, r + 1)
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
    scalars are constant, so the ``d_*`` entries vanish identically and the
    Laplacian of the torsion density is zero.
    """
    if alg.dim != 3:
        raise ValueError("full geometry samples are three-dimensional; use the raw helpers in higher dimension")
    g = np.asarray(g, dtype=float)
    tc.validate_metric(g)
    if not np.isfinite(f):
        raise ValueError("torsion density f must be finite")
    n = 3
    zero_vec = np.zeros(n)

    g_inv, gamma, riemann, ricci, scalar = invariant_curvature(alg, g)
    nabla_ricci = invariant_cov_deriv(gamma, ricci)

    torsion = f * tc.volume_form(g, orientation)
    gamma_tw = connection_twisted(gamma, g_inv, torsion)
    riemann_tw = invariant_riemann(alg, g, gamma_tw)
    ricci_tw = tc.ricci_from_riemann(g_inv, riemann_tw)
    nabla_tw_riemann_tw = invariant_cov_deriv(gamma_tw, riemann_tw)
    div_riemann_tw = -np.einsum("ab,abvcd->vcd", g_inv, nabla_tw_riemann_tw)

    nabla_torsion = invariant_cov_deriv(gamma, torsion)
    delta_torsion = tc.codifferential_from_nabla(g_inv, nabla_torsion)
    torsion_sq = tc.torsion_square(g_inv, torsion)
    nabla_torsion_sq = invariant_cov_deriv(gamma, torsion_sq)
    torsion_norm2 = tc.torsion_norm2(g_inv, torsion)

    riemann_tw_sq = tc.riemann_square(g_inv, riemann_tw)
    nabla_riemann_tw_sq = invariant_cov_deriv(gamma, riemann_tw_sq)
    riemann_tw_norm2 = tc.riemann_norm2(g_inv, riemann_tw)

    if dilaton is None:
        dilaton = zero_vec
    dilaton = np.asarray(dilaton, dtype=float)
    nabla_dilaton = invariant_cov_deriv(gamma, dilaton)
    nabla2_dilaton = invariant_cov_deriv(gamma, nabla_dilaton)
    delta_dilaton = float(-np.einsum("ab,ab->", g_inv, nabla_dilaton))
    dilaton_norm2 = float(dilaton @ g_inv @ dilaton)

    return GeometrySample(
        backend="homogeneous",
        n=n,
        g=g,
        g_inv=g_inv,
        gamma=gamma,
        gamma_tw=gamma_tw,
        riemann=riemann,
        ricci=ricci,
        scalar=scalar,
        d_scalar=zero_vec,
        nabla_ricci=nabla_ricci,
        riemann_tw=riemann_tw,
        ricci_tw=ricci_tw,
        div_riemann_tw=div_riemann_tw,
        torsion=torsion,
        nabla_torsion=nabla_torsion,
        delta_torsion=delta_torsion,
        torsion_sq=torsion_sq,
        nabla_torsion_sq=nabla_torsion_sq,
        torsion_norm2=torsion_norm2,
        d_torsion_norm2=zero_vec,
        riemann_tw_sq=riemann_tw_sq,
        nabla_riemann_tw_sq=nabla_riemann_tw_sq,
        riemann_tw_norm2=riemann_tw_norm2,
        d_riemann_tw_norm2=zero_vec,
        f=float(f),
        df=zero_vec,
        hess_f=np.zeros((n, n)),
        laplace_f=0.0,
        dilaton=dilaton,
        nabla_dilaton=nabla_dilaton,
        nabla2_dilaton=nabla2_dilaton,
        delta_dilaton=delta_dilaton,
        d_delta_dilaton=zero_vec,
        dilaton_norm2=dilaton_norm2,
        d_dilaton_norm2=zero_vec,
        orientation=orientation,
        jet_depth=0,
        meta={"algebra": alg.name, **alg.params},
    )


def random_invariant_sample(seed: int):
    """Deterministic random invariant geometry for batch verification.

    Draws a catalog algebra (with random coupling where the family has one),
    a well-conditioned random invariant metric, a random flux scale, a random
    closed invariant one-form, and a random orientation.
    """
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
    basis = closed_one_forms(alg)
    dilaton = None
    if basis.shape[0]:
        dilaton = basis.T @ rng.uniform(-1.0, 1.0, size=basis.shape[0])
    orientation = int(rng.choice([-1, 1]))
    return build_invariant_sample(alg, g, f, dilaton=dilaton, orientation=orientation)
