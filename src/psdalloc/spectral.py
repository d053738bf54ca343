"""Dense symmetric-matrix kernel: eigendecomposition and PSD order."""

from typing import NamedTuple

import numpy as np

# relative tolerance for eigendecomposition-based identities and PSD checks
TOL_EIG = 1e-10


class InvalidMatrix(ValueError):
    """Input is not a usable symmetric matrix (non-square or non-finite)."""


class ShapeError(ValueError):
    """Operands have incompatible dimensions."""


class EigenPair(NamedTuple):
    values: np.ndarray   # non-increasing
    vectors: np.ndarray  # orthonormal columns; vectors[:, i] pairs with values[i]


def sym(M):
    """Symmetric part (M + M.T)/2 as a float array.

    The result is exactly symmetric entrywise, which downstream code relies on.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise InvalidMatrix("expected a square matrix, got shape %r" % (A.shape,))
    if not np.isfinite(A).all():
        raise InvalidMatrix("matrix has non-finite entries")
    return 0.5 * (A + A.T)


def eig_sym(M):
    """Eigendecomposition of a symmetric matrix.

    Returns EigenPair(values, vectors) with values sorted non-increasing and
    vectors orthonormal, so M == vectors @ diag(values) @ vectors.T up to
    TOL_EIG * ||M||_F.
    """
    A = sym(M)
    w, V = np.linalg.eigh(A)
    return EigenPair(w[::-1].copy(), V[:, ::-1].copy())


def psd_order_gap(A, B):
    """Smallest eigenvalue of B - A: nonnegative iff A precedes B in the PSD order."""
    A = sym(A)
    B = sym(B)
    if A.shape != B.shape:
        raise ShapeError("dimension mismatch: %r vs %r" % (A.shape, B.shape))
    return float(np.linalg.eigvalsh(B - A)[0])
