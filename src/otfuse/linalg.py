"""Minimal dense linear algebra over float64 matrices.

Matrices are plain 2-D ``numpy.ndarray`` objects in row-major order; every
public operation validates its inputs and guarantees a finite result.  This
module is the substrate for the weight-alignment products and for the
row-wise Euclidean cost matrices consumed by the transport solvers.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, ValidationError

_BLOCK_BYTES = 256 * 1024  # difference block budget of row_distance_matrix


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D float64 array and validate finiteness."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValidationError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(arr)


def _check_finite(out: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(out).all():
        raise NumericalError(f"{op} produced non-finite entries")
    return out


def matmul(a, b) -> np.ndarray:
    """Matrix product ``a @ b`` with shape validation."""
    a = as_matrix(a, "left operand")
    b = as_matrix(b, "right operand")
    if a.shape[1] != b.shape[0]:
        raise ValidationError(
            f"matmul dimension mismatch: left is {a.shape[0]}x{a.shape[1]}, "
            f"right is {b.shape[0]}x{b.shape[1]}"
        )
    return _check_finite(a @ b, "matmul")


def transpose(a) -> np.ndarray:
    """Return a contiguous copy of the transpose of ``a``."""
    a = as_matrix(a)
    return np.ascontiguousarray(a.T)


def row_distance_matrix(a, b) -> np.ndarray:
    """Pairwise Euclidean distances between the rows of ``a`` and ``b``.

    Both inputs must have the same shape; the result ``D`` is square with
    ``D[i, j] = ||a_i - b_j||_2``.  Differences are formed explicitly so that
    identical rows produce an exactly-zero distance.  They are built one
    block of row pairs at a time in a reused buffer of at most 256 KiB:
    several rows of ``a`` against all of ``b`` while that fits, else one row
    of ``a`` against as many rows of ``b`` as fit (at least one).  Memory
    stays at the m x m result plus that buffer at any width.
    """
    a = as_matrix(a, "first matrix")
    b = as_matrix(b, "second matrix")
    if a.shape[1] != b.shape[1]:
        raise ValidationError(
            f"row_distance_matrix column mismatch: {a.shape} vs {b.shape}"
        )
    if a.shape[0] != b.shape[0]:
        raise ValidationError(
            f"row_distance_matrix needs equal row counts for a square cost, "
            f"got {a.shape} vs {b.shape}"
        )
    m, k = a.shape
    cols = max(1, min(m, _BLOCK_BYTES // (8 * k)))  # rows of b per block
    rows = max(1, _BLOCK_BYTES // (8 * k * cols))  # rows of a per block
    buf = np.empty(min(rows, m) * cols * k)
    out = np.empty((m, m))
    for i in range(0, m, rows):
        for j in range(0, m, cols):
            a_blk, b_blk = a[i : i + rows], b[j : j + cols]
            diff = buf[: len(a_blk) * len(b_blk) * k].reshape(len(a_blk), len(b_blk), k)
            np.subtract(a_blk[:, None, :], b_blk[None, :, :], out=diff)
            np.einsum("ijk,ijk->ij", diff, diff, out=out[i : i + rows, j : j + cols])
    np.sqrt(out, out=out)
    return _check_finite(out, "row_distance_matrix")
