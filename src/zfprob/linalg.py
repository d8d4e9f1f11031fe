"""Dense linear-algebra primitives shared by the reduction and decoding code,
and the input checks every entry point applies.

All routines work on float64 numpy arrays.  Triangular matrices are upper
triangular and square unless stated otherwise.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    RankDeficientError,
    SingularDiagonalError,
    SingularMatrixError,
)
from .tolerances import RANK_TOL, SOLVE_DIAG_MIN, UPPER_TRIANGULAR_TOL

_INT64_LIMIT = 2.0 ** 63  # the first magnitude an int64 cannot hold

__all__ = [
    "QRFactorization",
    "qr_factorize",
    "pivot_signs",
    "positive_triangular",
    "unit_scale",
    "round_nearest",
    "roundable_abs",
    "integer_entries",
    "int64_entries",
    "int_determinant",
    "check_upper_triangular",
    "check_sigma",
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


def check_upper_triangular(r) -> np.ndarray:
    """Validate a square upper-triangular matrix and return it as float64.

    Below-diagonal entries may carry roundoff up to UPPER_TRIANGULAR_TOL
    relative to the largest entry; anything bigger is an error.
    """
    r = _as_matrix(r, "R")
    n, m = r.shape
    if n != m:
        raise DimensionMismatchError(f"R must be square, got shape {r.shape}")
    if n == 0:
        return r
    scale = np.max(np.abs(r))
    below = np.abs(np.tril(r, -1))
    if below.size and np.max(below) > UPPER_TRIANGULAR_TOL * scale:
        i, j = np.unravel_index(np.argmax(below), below.shape)
        raise DimensionMismatchError(
            f"R is not upper triangular: entry ({i}, {j}) = {r[i, j]!r}")
    return np.triu(r)


def check_sigma(sigma) -> None:
    """The noise-level rule: sigma must be a positive finite real."""
    if not (sigma > 0) or not math.isfinite(sigma):
        raise ValueError(f"sigma must be a positive finite real, got {sigma!r}")


def pivot_signs(r) -> np.ndarray:
    """The sign rule: +1 or -1 per row, whichever makes that row's pivot
    positive."""
    return np.where(r.diagonal() < 0.0, -1.0, 1.0)


def positive_triangular(r):
    """The input gate for a triangular factor: returns (signs[:, None] * r, signs).

    Validates r as square upper triangular, raises SingularDiagonalError
    naming the smallest pivot when a pivot of unit_scale(r) is below
    SOLVE_DIAG_MIN, and flips each negative-pivot row so the returned factor
    has a positive diagonal.  Row flips leave ||R xi|| unchanged; a caller
    that keeps an observation or an orthogonal factor must flip it too.
    """
    r = check_upper_triangular(r)
    u, e = unit_scale(r)
    diag = np.abs(u.diagonal())
    if diag.size and diag.min() < SOLVE_DIAG_MIN:
        i = int(diag.argmin())
        raise SingularDiagonalError(
            f"R pivot {i} has magnitude {float(abs(r[i, i]))!r}, below {SOLVE_DIAG_MIN} * 2**{e}")
    signs = pivot_signs(r)
    return signs[:, None] * r, signs


def unit_scale(a):
    """The one normalization: (a / 2**e, e), with e the binary exponent of
    the largest |entry|, so that entry lands in [0.5, 1); e = 0 for an
    all-zero a.  A power of two changes exponents, not mantissas: ratios and
    comparisons of entries survive exactly (short of entries that turn
    subnormal), and no square of a scaled entry overflows."""
    a = np.asarray(a, dtype=float)
    e = math.frexp(float(np.max(np.abs(a), initial=0.0)))[1]
    return np.ldexp(a, -e), e


@dataclass(frozen=True)
class QRFactorization:
    """Thin QR factorization A = q1 r.

    q1 : (m, n) orthonormal columns spanning range(A)
    r  : (n, n) upper triangular with positive diagonal
    """

    q1: np.ndarray
    r: np.ndarray


def qr_factorize(a) -> QRFactorization:
    """Householder QR with the diagonal of R normalized to be positive.

    Requires m >= n and full column rank; rank deficiency (smallest pivot
    below RANK_TOL times the largest column norm) raises RankDeficientError.
    """
    a, e = unit_scale(_as_matrix(a))
    m, n = a.shape
    if m < n:
        raise DimensionMismatchError(
            f"need at least as many rows as columns, got shape {a.shape}")
    # complete, not reduced: the modes round q1 and r differently, and replays pin those bits
    q, r_full = np.linalg.qr(a, mode="complete")
    r = r_full[:n, :n].copy()
    # flip signs so every pivot is positive; fold the flips into Q's columns
    signs = pivot_signs(r)
    r = signs[:, None] * r
    q1 = q[:, :n] * signs[None, :]
    if n:
        pivot = np.min(np.abs(np.diag(r)))
        if pivot <= RANK_TOL * np.max(np.linalg.norm(a, axis=0)):
            raise RankDeficientError(
                f"matrix is rank deficient: smallest pivot {math.ldexp(pivot, e)!r}")
    # adding 0.0 turns any -0.0 produced by the sign flips into plain 0.0
    return QRFactorization(q1=q1, r=np.ldexp(np.triu(r) + 0.0, e))


def round_nearest(x) -> int:
    """Round a real scalar to the nearest integer, breaking ties toward zero.

    Halfway points go to the integer of smaller magnitude: 0.5 -> 0,
    1.5 -> 1, -0.5 -> 0, -1.5 -> -1.  Accepts a Python or numpy float or
    int and returns a Python int.  A value that is not finite, or of
    magnitude 2**63 or more, has no int64 rounding and raises ValueError.
    """
    # round |x| down and step up when the fraction, which is exact in
    # float64, passes one half; |x| - 0.5 is not exact in [2**52, 2**53),
    # where it would take odd integers one step down
    v = float(x)
    a = abs(v)
    if not a < _INT64_LIMIT:
        raise ValueError(f"cannot round {v!r}: not finite or of magnitude 2**63 or more")
    m = math.floor(a)
    if a - m > 0.5:
        m += 1
    return -m if v < 0 else m


def roundable_abs(x) -> np.ndarray:
    """|x| as a new float64 array, refused entry by entry as round_nearest
    refuses a scalar: an entry that is not finite, or of magnitude 2**63
    or more, raises ValueError."""
    a = np.abs(np.asarray(x, dtype=float))
    if not a.max(initial=0.0) < _INT64_LIMIT:  # a NaN makes the max NaN
        raise ValueError("cannot round values that are not finite or of magnitude 2**63 or more")
    return a


def _whole(v) -> int:
    if isinstance(v, (int, np.integer)):
        return int(v)
    if float(v).is_integer():
        return int(float(v))
    raise DimensionMismatchError(f"entries must be integers, found {v!r}")


def integer_entries(a) -> np.ndarray:
    """The entries of a as Python ints, in an object array of a's shape.

    The one integer test: an entry that is not a whole number, NaN and
    infinities included, raises DimensionMismatchError.
    """
    a = np.asarray(a, dtype=object)
    return np.array([_whole(v) for v in a.flat], dtype=object).reshape(a.shape)


def int64_entries(a, what: str) -> np.ndarray:
    """The one way out to int64: a, Python ints or nested lists of them, as an
    int64 array of its shape.

    Integer results are formed exactly in Python ints and leave only here:
    an entry of magnitude 2**63 or more raises SingularMatrixError naming
    it.  The test is on |v| because a plain int64 cast takes -2**63.
    """
    a = np.array(a, dtype=object)
    big = max(a.flat, key=abs, default=0)
    if abs(big) >= _INT64_LIMIT:
        raise SingularMatrixError(f"{what} {big} is out of the int64 range (|v| < 2**63)")
    return a.astype(np.int64)


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
    a = integer_entries(z).tolist()
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
