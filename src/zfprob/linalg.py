"""Dense linear-algebra primitives shared by the reduction and decoding code.

All routines work on float64 numpy arrays.  Triangular matrices are upper
triangular and square unless stated otherwise.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import (
    DimensionMismatchError,
    RankDeficientError,
    SingularDiagonalError,
)
from .tolerances import RANK_TOL, SOLVE_DIAG_MIN, UPPER_TRIANGULAR_TOL

__all__ = [
    "QRFactorization",
    "qr_factorize",
    "pivot_signs",
    "positive_triangular",
    "round_nearest",
    "back_substitute",
    "det_upper_triangular",
    "int_determinant",
    "check_upper_triangular",
]


def _as_matrix(a, name="matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DimensionMismatchError(f"{name} contains non-finite entries")
    return a


def _as_vector(v, n=None, name="vector") -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-dimensional, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise DimensionMismatchError(f"{name} has length {v.shape[0]}, expected {n}")
    if not np.all(np.isfinite(v)):
        raise DimensionMismatchError(f"{name} contains non-finite entries")
    return v


def check_upper_triangular(r, name="matrix") -> np.ndarray:
    """Validate a square upper-triangular matrix and return it as float64.

    Below-diagonal entries may carry roundoff up to UPPER_TRIANGULAR_TOL
    relative to the largest entry; anything bigger is an error.
    """
    r = _as_matrix(r, name)
    n, m = r.shape
    if n != m:
        raise DimensionMismatchError(f"{name} must be square, got shape {r.shape}")
    if n == 0:
        return r
    scale = np.max(np.abs(r))
    below = np.abs(np.tril(r, -1))
    if below.size and np.max(below) > UPPER_TRIANGULAR_TOL * max(scale, 1.0):
        i, j = np.unravel_index(np.argmax(below), below.shape)
        raise DimensionMismatchError(
            f"{name} is not upper triangular: entry ({i}, {j}) = {r[i, j]!r}")
    return np.triu(r)


def pivot_signs(r) -> np.ndarray:
    """The sign rule: +1 or -1 per row, whichever makes that row's pivot
    positive."""
    return np.where(r.diagonal() < 0.0, -1.0, 1.0)


def positive_triangular(r, name="R"):
    """The input gate for a triangular factor: returns (signs[:, None] * r, signs).

    Validates r as square upper triangular, raises SingularDiagonalError
    naming the smallest pivot when any |r_ii| < SOLVE_DIAG_MIN, and flips
    each negative-pivot row so the returned factor has a positive diagonal.
    Row flips leave ||R xi|| unchanged; a caller that keeps an observation
    or an orthogonal factor must flip it with the same signs.
    """
    r = check_upper_triangular(r, name)
    diag = np.abs(r.diagonal())
    if diag.size and diag.min() < SOLVE_DIAG_MIN:
        i = int(diag.argmin())
        raise SingularDiagonalError(
            f"{name} pivot {i} has magnitude {float(diag[i])!r}, below {SOLVE_DIAG_MIN}")
    signs = pivot_signs(r)
    return signs[:, None] * r, signs


@dataclass(frozen=True)
class QRFactorization:
    """Full QR factorization A = [q1 q2] [[r], [0]].

    q1 : (m, n) orthonormal columns spanning range(A)
    r  : (n, n) upper triangular with positive diagonal
    q2 : (m, m - n) orthonormal complement of range(A)
    """

    q1: np.ndarray
    r: np.ndarray
    q2: np.ndarray


def qr_factorize(a) -> QRFactorization:
    """Householder QR with the diagonal of R normalized to be positive.

    Requires m >= n and full column rank; rank deficiency (smallest pivot
    below RANK_TOL times the largest column norm) raises RankDeficientError.
    """
    a = _as_matrix(a)
    m, n = a.shape
    if m < n:
        raise DimensionMismatchError(
            f"need at least as many rows as columns, got shape {a.shape}")
    q, r_full = np.linalg.qr(a, mode="complete")
    r = r_full[:n, :n].copy()
    # flip signs so every pivot is positive; fold the flips into Q's columns
    signs = pivot_signs(r)
    r = signs[:, None] * r
    q = q.copy()
    q[:, :n] *= signs[None, :]
    col_norms = np.linalg.norm(a, axis=0)
    threshold = RANK_TOL * (np.max(col_norms) if n else 0.0)
    if n and np.min(np.abs(np.diag(r))) <= threshold:
        raise RankDeficientError(
            f"matrix is rank deficient: smallest pivot {np.min(np.abs(np.diag(r)))!r}")
    # adding 0.0 turns any -0.0 produced by the sign flips into plain 0.0
    return QRFactorization(q1=q[:, :n], r=np.triu(r) + 0.0, q2=q[:, n:])


def round_nearest(x):
    """Round to the nearest integer, breaking ties toward zero.

    Halfway points go to the integer of smaller magnitude: 0.5 -> 0,
    1.5 -> 1, -0.5 -> 0, -1.5 -> -1.  Accepts scalars or arrays; returns
    a Python int for scalar input, an int64 array otherwise.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("cannot round non-finite values")
    rounded = np.sign(arr) * np.ceil(np.abs(arr) - 0.5)
    out = rounded.astype(np.int64)
    if np.isscalar(x) or arr.ndim == 0:
        return int(out)
    return out


def back_substitute(r, y) -> np.ndarray:
    """Solve R x = y for upper-triangular R.

    R passes through positive_triangular; a flipped row of R flips the
    matching entry of y, so the solution is that of the input system.
    """
    r, signs = positive_triangular(r)
    y = _as_vector(y, r.shape[0], "y")
    return solve_triangular(r, signs * y, lower=False)


def det_upper_triangular(r) -> float:
    """Determinant of an upper-triangular matrix: product of the diagonal."""
    r = check_upper_triangular(r, "R")
    return float(np.prod(np.diag(r)))


def int_determinant(z) -> int:
    """Exact determinant of an integer matrix.

    Uses fraction-free Gaussian elimination over Python ints, so the result
    is exact for any size; used to certify unimodular transforms.
    """
    z = np.asarray(z, dtype=object)
    if z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise DimensionMismatchError(f"need a square matrix, got shape {z.shape}")
    n = z.shape[0]
    if n == 0:
        return 1
    a = []
    for row in z:
        converted = []
        for v in row:
            if isinstance(v, (int, np.integer)):
                converted.append(int(v))
            else:
                fv = float(v)
                if fv != round(fv):
                    raise DimensionMismatchError(
                        f"matrix entries must be integers, found {v!r}")
                converted.append(int(round(fv)))
        a.append(converted)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]
