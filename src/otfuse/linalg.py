"""Minimal dense linear algebra over float64 matrices.

Matrices are plain 2-D ``numpy.ndarray`` objects in row-major order; every
public operation validates its inputs and guarantees a finite result.  This
module is the substrate for the weight-alignment products and for the
row-wise Euclidean cost matrices consumed by the transport solvers, which
one BLAS Gram product builds (``row_distance_matrix`` gives its accuracy).
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, ValidationError


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

    Both inputs must have the same m x k shape; the result ``D`` is square
    with ``D[i, j] = ||a_i - b_j||_2``.  The squares come from the Gram form
    ``||a_i||^2 + ||b_j||^2 - 2 a_i . b_j``, one BLAS ``a @ b.T`` written into
    the result.  Its rounding error, up to ``2 (k + 2) u (||a_i||^2 +
    ||b_j||^2)`` with ``u = 2**-53``, swamps small distances, so each square
    below ``1e-6 * max(||a_i||^2, ||b_j||^2)`` is recomputed from the explicit
    difference ``a_i - b_j``: identical rows give exactly 0.0.  Every other
    entry keeps a relative error of at most ``2e6 (k + 2) u + u`` (5.7e-8 at
    k = 256).  The test is strict, so no pair with a zero row is repaired:
    the Gram form already gives the other row's squared norm, or 0 for two
    zero rows.  Memory: the m x m result, an m x m bool mask and O(m k).
    """
    a = as_matrix(a, "first matrix")
    b = as_matrix(b, "second matrix")
    if a.shape != b.shape:
        raise ValidationError(
            f"row_distance_matrix needs two matrices of one shape, got {a.shape} vs {b.shape}"
        )
    sq_a = np.einsum("ij,ij->i", a, a)
    sq_b = np.einsum("ij,ij->i", b, b)
    out = a @ b.T
    out *= -2.0
    out += sq_a[:, None]
    out += sq_b
    near = out < 1e-6 * sq_a[:, None]
    near |= out < 1e-6 * sq_b
    for i in np.flatnonzero(near.any(axis=1)):
        cols = np.flatnonzero(near[i])
        diff = a[i] - b[cols]
        out[i, cols] = np.einsum("ij,ij->i", diff, diff)
    np.sqrt(out, out=out)
    return _check_finite(out, "row_distance_matrix")
