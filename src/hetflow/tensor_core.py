"""Pointwise tensor algebra on a single tangent space with an SPD metric.

Everything in this module acts on plain ``numpy`` arrays holding tensor
components in an arbitrary (not necessarily orthonormal) frame.  Index raising
and lowering is always explicit through the metric ``g`` or its inverse, so
the same routines serve coordinate frames (chart backend) and invariant
frames (homogeneous backend).

No helper inverts a metric.  The caller computes :func:`metric_inverse` once
per geometry and passes ``g_inv`` down to every helper that raises an index
(:func:`hodge` and the ``*_dim3`` closed forms included); helpers that lower
indices or build the volume form take ``g`` as well.

Conventions
-----------
* Curvature sign: ``R(u, v)w = D_u D_v w - D_v D_u w - D_[u,v] w``, stored as
  the (0,4) array ``R[a, b, c, d] = g(R(e_a, e_b) e_c, e_d)``.  With this
  choice a round sphere of sectional curvature ``c`` has
  ``R[a, b, c, d] = c (g_bc g_ad - g_ac g_bd)`` and ``Ric = 2 c g`` in
  dimension three.
* Ricci trace: ``Ric(u, v) = sum_i R(e_i, u, v, e_i)`` over an orthonormal
  frame, i.e. ``Ric_uv = g^{ab} R_{a u v b}``.
* Forms use the determinant convention: ``(a ^ b)(u, v) = a(u) b(v) -
  a(v) b(u)`` for 1-forms, and the inner product of p-forms carries ``1/p!``:
  ``<w, t> = (1/p!) w_{i...} t^{i...}``.
* The volume form of a positively oriented frame is
  ``vol = sqrt(det g) e^1 ^ ... ^ e^n`` and the Hodge star is
  ``(*a)_{b...} = (1/p!) vol_{a... b...} a^{a...}``.  In dimension three
  ``**`` is the identity on every degree.
* A pair of vectors acts as the skew endomorphism
  ``(v1 ^ v2)(w) = g(v1, w) v2 - g(v2, w) v1``; its associated 2-form (via
  ``w(u, v) = g(A u, v)``) is ``v1_flat ^ v2_flat``.
* The quadratic contractions of a 3-form ``H`` and a curvature ``R`` are
  ``(H o H)(u, v) = 1/2 H(u, e_i, e_j) H(v, e_i, e_j)`` and
  ``(R o R)(u, v)  = 1/2 R(u, e_i, e_j, e_k) R(v, e_i, e_j, e_k)`` (orthonormal
  sums; the general-frame versions below raise indices with ``g^{-1}``).
  Hence ``tr_g (H o H) = 3 |H|^2`` and ``tr_g (R o R) = 2 |R|^2`` with
  ``|R|^2 = 1/4 R_{abcd} R^{abcd}``.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

__all__ = [
    "validate_metric",
    "metric_inverse",
    "frame_orthonormalize",
    "principal_values",
    "flat",
    "sharp",
    "raise_all",
    "alt",
    "sym",
    "wedge",
    "interior",
    "levi_civita_symbol",
    "volume_form",
    "hodge",
    "form_inner",
    "form_norm2",
    "bilinear_from_endo",
    "endo_from_bilinear",
    "torsion_square",
    "torsion_norm2",
    "riemann_square",
    "riemann_norm2",
    "riemann_wedge_riemann",
    "ricci_from_riemann",
    "scalar_curvature",
    "codifferential_from_nabla",
    "riemann_from_ricci_dim3",
    "riemann_square_dim3",
    "riemann_norm2_dim3",
    "riemann_twisted_dim3",
    "riemann_square_twisted_dim3",
    "riemann_norm2_twisted_dim3",
    "rel_err",
]

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


# Asymmetry validate_metric allows, relative to max(1, max|g|).
_SYMMETRY_TOL = 1e-12


def validate_metric(g: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``g`` is a symmetric positive definite matrix.

    ``g`` may also be a stack ``(B, n, n)``, checked matrix by matrix; the
    error then names the first failing index.  The eigenvalues come from one
    ``eigvalsh`` of the matrices scaled to unit max norm, so that no entry
    overflows on the way.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim not in (2, 3) or g.shape[-1] != g.shape[-2]:
        raise ValueError(f"metric must be a square matrix, got shape {g.shape}")
    stack = g.reshape((-1,) + g.shape[-2:])

    def require(ok: np.ndarray, message) -> None:
        if not ok.all():
            k = int(np.argmin(ok))  # the first failing matrix
            raise ValueError((f"sample {k}: " if g.ndim == 3 else "") + message(k))

    require(np.isfinite(stack).all(axis=(1, 2)), lambda k: "metric contains non-finite entries")
    scale = np.max(np.abs(stack), axis=(1, 2))
    asym = np.max(np.abs(stack - np.swapaxes(stack, 1, 2)), axis=(1, 2))
    require(asym <= _SYMMETRY_TOL * np.maximum(1.0, scale), lambda k: "metric is not symmetric")
    unit = stack / np.where(scale > 0.0, scale, 1.0)[:, None, None]
    eig_min = np.linalg.eigvalsh(0.5 * (unit + np.swapaxes(unit, 1, 2)))[:, 0]
    require(eig_min > 0.0, lambda k: "metric is not positive definite "
            f"(min eigenvalue {float(eig_min[k]) * float(scale[k]):.3e})")


def metric_inverse(g: np.ndarray) -> np.ndarray:
    return np.linalg.inv(np.asarray(g, dtype=float))


def frame_orthonormalize(g: np.ndarray) -> np.ndarray:
    """Matrix ``P`` whose columns express a g-orthonormal frame: ``P.T @ g @ P = I``.

    Components of a (0,p) tensor in the orthonormal frame are obtained by
    contracting each slot with ``P``.
    """
    chol = np.linalg.cholesky(np.asarray(g, dtype=float))
    return np.linalg.inv(chol).T


def principal_values(g: np.ndarray, bilinear: np.ndarray) -> tuple:
    """Principal values of a symmetric bilinear form relative to ``g``.

    Returns ``(w, vecs)``: the ascending solutions of
    ``bilinear @ v = w g @ v`` and their eigenvectors as ``g``-orthonormal
    columns, from ``np.linalg.eigh`` of the form in the frame of
    :func:`frame_orthonormalize`.
    """
    frame = frame_orthonormalize(g)
    w, vecs = np.linalg.eigh(frame.T @ np.asarray(bilinear, dtype=float) @ frame)
    return w, frame @ vecs


def flat(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    return g @ v


def sharp(g_inv: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    return g_inv @ alpha


@lru_cache(maxsize=None)
def _raise_all_spec(rank: int) -> str:
    """``"abcd,ea,fb,gc,hd->efgh"`` for rank 4: every slot raised, in place."""
    low, up = _LETTERS[:rank], _LETTERS[rank : 2 * rank]
    return ",".join([low] + [u + l for u, l in zip(up, low)]) + "->" + up


def raise_all(g_inv: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """Raise every index of a (0,p) tensor with ``g^{-1}``, in one einsum."""
    tensor = np.asarray(tensor, dtype=float)
    return np.einsum(_raise_all_spec(tensor.ndim), tensor, *(g_inv,) * tensor.ndim)


def alt(tensor: np.ndarray) -> np.ndarray:
    """Full antisymmetrization (1/p! sum of signed permutations) over all indices."""
    tensor = np.asarray(tensor, dtype=float)
    p = tensor.ndim
    if p <= 1:
        return tensor.copy()
    out = np.zeros_like(tensor)
    for perm in itertools.permutations(range(p)):
        sign = _perm_sign(perm)
        out += sign * np.transpose(tensor, perm)
    return out / math.factorial(p)


def sym(tensor: np.ndarray) -> np.ndarray:
    """Symmetrization of a 2-index tensor."""
    return 0.5 * (tensor + tensor.T)


def _perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        node = start
        while not seen[node]:
            seen[node] = True
            node = perm[node]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def wedge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Wedge product of a p-form and a q-form in the determinant convention.

    ``a ^ b = (p+q)! / (p! q!) Alt(a x b)`` so that
    ``e^1 ^ e^2 (e_1, e_2) = 1``.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    p, q = a.ndim, b.ndim
    coeff = math.factorial(p + q) / (math.factorial(p) * math.factorial(q))
    return coeff * alt(np.multiply.outer(a, b))


def interior(v: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Interior product ``v -| alpha`` of a vector into a p-form (first slot)."""
    return np.tensordot(np.asarray(v, dtype=float), np.asarray(alpha, dtype=float), axes=([0], [0]))


@lru_cache(maxsize=8)
def levi_civita_symbol(n: int) -> np.ndarray:
    eps = np.zeros((n,) * n)
    for perm in itertools.permutations(range(n)):
        eps[perm] = _perm_sign(perm)
    return eps


def volume_form(g: np.ndarray, orientation=1) -> np.ndarray:
    """Riemannian volume form ``sqrt(det g) e^1 ^ ... ^ e^n`` as a (0,n) array.

    ``g`` may be a stack ``(..., n, n)`` with ``orientation`` broadcast over
    its leading axes; the forms stack the same way.
    """
    n = g.shape[-1]
    root = orientation * np.sqrt(np.linalg.det(g))
    return np.reshape(root, np.shape(root) + (1,) * n) * levi_civita_symbol(n)


def hodge(g_inv: np.ndarray, vol: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Hodge star of a p-form: ``(*a)_{b...} = (1/p!) vol_{a...b...} a^{a...}``.

    ``vol`` is the oriented :func:`volume_form`.  Scalars (p = 0) may be passed
    as plain floats; the result for p = n is a plain float as well.
    """
    n = g_inv.shape[0]
    if np.ndim(alpha) == 0:
        return float(alpha) * vol
    alpha = np.asarray(alpha, dtype=float)
    p = alpha.ndim
    if p > n:
        raise ValueError(f"form degree {p} exceeds dimension {n}")
    raised = raise_all(g_inv, alpha)
    spec = _LETTERS[:n] + "," + _LETTERS[:p] + "->" + _LETTERS[p:n]
    out = np.einsum(spec, vol, raised) / math.factorial(p)
    if p == n:
        return float(out)
    return out


def form_inner(g_inv: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two p-forms, ``(1/p!) a_{i...} b^{i...}``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != b.ndim:
        raise ValueError("forms must have equal degree")
    raised = raise_all(g_inv, b)
    return float(np.tensordot(a, raised, axes=a.ndim) / math.factorial(a.ndim))


def form_norm2(g_inv: np.ndarray, a: np.ndarray) -> float:
    return form_inner(g_inv, a, a)


def bilinear_from_endo(g: np.ndarray, endo: np.ndarray) -> np.ndarray:
    """Bilinear form ``B(u, v) = g(A u, v)`` of an endomorphism ``A[m, b]``."""
    return endo.T @ g


def endo_from_bilinear(g_inv: np.ndarray, bilinear: np.ndarray) -> np.ndarray:
    """Endomorphism ``A`` with ``g(A u, v) = B(u, v)``, i.e. ``A^m_b = B_bc g^cm``."""
    return (bilinear @ g_inv).T


def torsion_square(g_inv: np.ndarray, torsion: np.ndarray) -> np.ndarray:
    """Symmetric form ``(H o H)_{ab} = 1/2 H_{aij} H_{bkl} g^{ik} g^{jl}``."""
    return 0.5 * np.einsum("aij,bkl,ik,jl->ab", torsion, torsion, g_inv, g_inv)


def torsion_norm2(g_inv: np.ndarray, torsion: np.ndarray) -> float:
    return form_norm2(g_inv, torsion)


def riemann_square(g_inv: np.ndarray, riemann: np.ndarray) -> np.ndarray:
    """Symmetric form ``(R o R)_{ab} = 1/2 R_{aijk} R_b{}^{ijk}``."""
    raised = np.einsum("bijk,ip,jq,kr->bpqr", riemann, g_inv, g_inv, g_inv)
    return 0.5 * np.einsum("aijk,bijk->ab", riemann, raised)


def riemann_norm2(g_inv: np.ndarray, riemann: np.ndarray) -> float:
    """``|R|^2 = 1/4 R_{abcd} R^{abcd}``."""
    raised = raise_all(g_inv, riemann)
    return 0.25 * float(np.tensordot(riemann, raised, axes=4))


def riemann_wedge_riemann(g_inv: np.ndarray, riemann: np.ndarray) -> np.ndarray:
    """4-form ``1/2 sum_{ij} R(e_i, e_j) ^ R(e_i, e_j)`` (orthonormal sum).

    The curvature 2-forms live in the first index pair; the frame sum runs
    over the last pair with indices raised.  In dimension three this vanishes
    identically (no nonzero 4-forms) at the level of antisymmetrization.
    """
    paired = 0.5 * np.einsum("abij,cdkl,ik,jl->abcd", riemann, riemann, g_inv, g_inv)
    return 6.0 * alt(paired)


def ricci_from_riemann(g_inv: np.ndarray, riemann: np.ndarray) -> np.ndarray:
    """``Ric_{uv} = g^{ab} R_{a u v b}`` (valid for twisted curvatures too)."""
    return np.einsum("ab,auvb->uv", g_inv, riemann)


def scalar_curvature(g_inv: np.ndarray, ricci: np.ndarray) -> float:
    return float(np.tensordot(g_inv, ricci, axes=2))


def codifferential_from_nabla(g_inv: np.ndarray, nabla_form: np.ndarray) -> np.ndarray:
    """Codifferential from a covariant derivative: ``(delta a)_... = -g^{ab} (D_a a)_{b...}``.

    ``nabla_form[a, ...]`` must carry the derivative slot first.
    """
    return -np.tensordot(g_inv, nabla_form, axes=([0, 1], [0, 1]))


# ---------------------------------------------------------------------------
# Dimension-three closed forms
# ---------------------------------------------------------------------------


def _require_dim3(matrix: np.ndarray) -> None:
    if matrix.shape[0] != 3:
        raise ValueError("this identity is specific to dimension three")


def riemann_from_ricci_dim3(g: np.ndarray, ricci: np.ndarray, scalar: float) -> np.ndarray:
    """Reconstruct the full (0,4) curvature from Ricci data in dimension three.

    ``R_abcd = s/2 (g_ac g_bd - g_bc g_ad) + (g_bc Ric_ad - Ric_ac g_bd)
    + (Ric_bc g_ad - g_ac Ric_bd)``.
    """
    _require_dim3(g)
    gg = np.einsum("ac,bd->abcd", g, g) - np.einsum("bc,ad->abcd", g, g)
    g_ric = (
        np.einsum("bc,ad->abcd", g, ricci)
        - np.einsum("ac,bd->abcd", ricci, g)
        + np.einsum("bc,ad->abcd", ricci, g)
        - np.einsum("ac,bd->abcd", g, ricci)
    )
    return 0.5 * scalar * gg + g_ric


def riemann_square_dim3(
    g: np.ndarray, g_inv: np.ndarray, ricci: np.ndarray, scalar: float
) -> np.ndarray:
    """Closed form of ``R o R`` in dimension three:
    ``-Ric o Ric + s Ric + (|Ric|^2 - s^2/2) g``."""
    _require_dim3(g)
    ric_sq = ricci @ g_inv @ ricci
    ric_norm2 = float(np.einsum("ab,cd,ac,bd->", ricci, ricci, g_inv, g_inv))
    return -ric_sq + scalar * ricci + (ric_norm2 - 0.5 * scalar**2) * g


def riemann_norm2_dim3(g_inv: np.ndarray, ricci: np.ndarray, scalar: float) -> float:
    """``|R|^2 = |Ric|^2 - s^2/4`` in dimension three."""
    _require_dim3(g_inv)
    ric_norm2 = float(np.einsum("ab,cd,ac,bd->", ricci, ricci, g_inv, g_inv))
    return ric_norm2 - 0.25 * scalar**2


def riemann_twisted_dim3(
    g: np.ndarray,
    riemann: np.ndarray,
    f: float,
    df: np.ndarray,
    orientation: int = 1,
) -> np.ndarray:
    """Curvature of the torsion connection for ``H = f vol`` in dimension three.

    ``Rhat(u,v) = R(u,v) - 1/2 (df(u) *v_flat - df(v) *u_flat) + f^2/4 u ^ v``
    as 2-form-valued expressions in the last index pair.
    """
    _require_dim3(g)
    vol = volume_form(g, orientation)
    star_basis = vol  # (*e_b_flat)_{cd} = vol_{bcd}
    df_term = np.einsum("a,bcd->abcd", df, star_basis) - np.einsum("b,acd->abcd", df, star_basis)
    gg = np.einsum("ac,bd->abcd", g, g) - np.einsum("bc,ad->abcd", g, g)
    return riemann - 0.5 * df_term + 0.25 * f**2 * gg


def riemann_square_twisted_dim3(
    g: np.ndarray,
    g_inv: np.ndarray,
    ricci: np.ndarray,
    scalar: float,
    f: float,
    df: np.ndarray,
    orientation: int = 1,
) -> np.ndarray:
    """Closed form of ``Rhat o Rhat`` for ``H = f vol`` in dimension three.

    ``-Ric o Ric + (s - f^2/2) Ric + (|Ric|^2 - s^2/2 + |df|^2/4 + f^4/8) g
    + 1/2 [*df, Ric] + 1/4 df x df`` where ``[.,.]`` is the endomorphism
    commutator turned back into a (symmetric) bilinear form.
    """
    _require_dim3(g)
    ric_sq = ricci @ g_inv @ ricci
    ric_norm2 = float(np.einsum("ab,cd,ac,bd->", ricci, ricci, g_inv, g_inv))
    df_norm2 = float(df @ g_inv @ df)
    star_df = hodge(g_inv, volume_form(g, orientation), df)
    endo_star_df = endo_from_bilinear(g_inv, star_df)
    endo_ric = endo_from_bilinear(g_inv, ricci)
    comm = bilinear_from_endo(g, endo_star_df @ endo_ric - endo_ric @ endo_star_df)
    return (
        -ric_sq
        + (scalar - 0.5 * f**2) * ricci
        + (ric_norm2 - 0.5 * scalar**2 + 0.25 * df_norm2 + 0.125 * f**4) * g
        + 0.5 * comm
        + 0.25 * np.outer(df, df)
    )


def riemann_norm2_twisted_dim3(
    g_inv: np.ndarray,
    ricci: np.ndarray,
    scalar: float,
    f: float,
    df: np.ndarray,
) -> float:
    """``|Rhat|^2 = |Ric|^2 - s^2/4 - f^2 s / 4 + |df|^2/2 + 3 f^4 / 16`` (dim 3)."""
    _require_dim3(g_inv)
    ric_norm2 = float(np.einsum("ab,cd,ac,bd->", ricci, ricci, g_inv, g_inv))
    df_norm2 = float(df @ g_inv @ df)
    return ric_norm2 - 0.25 * scalar**2 - 0.25 * f**2 * scalar + 0.5 * df_norm2 + 0.1875 * f**4


def rel_err(a, b) -> float:
    """Relative deviation ``|a - b| / max(|a|, |b|, 1)`` on arrays or scalars."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = max(float(np.max(np.abs(a), initial=0.0)), float(np.max(np.abs(b), initial=0.0)), 1.0)
    return float(np.max(np.abs(a - b), initial=0.0)) / denom
