"""Packed storage for symmetric d x d tensors.

A symmetric tensor in dimension d is stored as a flat vector of
m = d*(d+1)/2 components: the d diagonal entries first, then the
off-diagonal entries scaled by sqrt(2).  With that scaling the
Euclidean dot product of two packed vectors equals the Frobenius
double contraction of the corresponding matrices, so norms and
inner products need no special casing downstream.

Packed component order:
    d=1: [a00]
    d=2: [a00, a11, s*a01]
    d=3: [a00, a11, a22, s*a12, s*a02, s*a01]       (s = sqrt(2))

All functions accept arrays with an arbitrary number of leading axes;
the packed components always live on the last axis.
"""

from __future__ import annotations

import numpy as np

SQRT2 = np.sqrt(2.0)

# off-diagonal index pairs per dimension, matching the packed order above
_OFFDIAG = {1: [], 2: [(0, 1)], 3: [(1, 2), (0, 2), (0, 1)]}


def packed_len(dim):
    """Number of packed components for symmetric tensors in dimension dim."""
    if dim not in (1, 2, 3):
        raise ValueError(f"unsupported dimension {dim}")
    return dim * (dim + 1) // 2


def pack(mat):
    """Pack symmetric matrices (..., d, d) into vectors (..., m).

    The input must be symmetric already; no symmetrization is applied.
    """
    mat = np.asarray(mat, dtype=float)
    d = mat.shape[-1]
    if mat.shape[-2] != d:
        raise ValueError("expected square matrices on the last two axes")
    m = packed_len(d)
    out = np.empty(mat.shape[:-2] + (m,))
    for i in range(d):
        out[..., i] = mat[..., i, i]
    for k, (i, j) in enumerate(_OFFDIAG[d]):
        out[..., d + k] = SQRT2 * mat[..., i, j]
    return out


def unpack(vec, d):
    """Expand packed vectors (..., m) back to full matrices (..., d, d) in dimension d."""
    vec = np.asarray(vec, dtype=float)
    if vec.shape[-1] != packed_len(d):
        raise ValueError("packed length does not match dimension")
    out = np.zeros(vec.shape[:-1] + (d, d))
    for i in range(d):
        out[..., i, i] = vec[..., i]
    for k, (i, j) in enumerate(_OFFDIAG[d]):
        out[..., i, j] = vec[..., d + k] / SQRT2
        out[..., j, i] = out[..., i, j]
    return out


def sym_part(mat):
    """Packed symmetric part of general square matrices (..., d, d)."""
    mat = np.asarray(mat, dtype=float)
    return pack(0.5 * (mat + np.swapaxes(mat, -1, -2)))


def dot(a, b):
    """Frobenius inner product of packed tensors, contracted over the last axis.

    Adds one product per packed column.  numpy sums an axis of fewer than
    8 entries in this order, starting from +0.0, so the result equals
    ``np.sum(a * b, axis=-1)`` bit for bit at a fraction of its cost.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError("packed lengths differ")
    out = a[..., 0] * b[..., 0] + 0.0
    for i in range(1, a.shape[-1]):
        out += a[..., i] * b[..., i]
    return out


def norm(a):
    """Frobenius norm of packed tensors."""
    return np.sqrt(dot(a, a))


def outer(a, b):
    """Outer product (..., m, m) of packed tensors, for rank-one updates."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., :, None] * b[..., None, :]
