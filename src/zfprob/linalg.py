"""Dense linear-algebra primitives shared by the reduction and decoding code,
and the input checks every entry point applies.

All routines work on float64 numpy arrays.  Triangular matrices are upper
triangular and square unless stated otherwise.
"""

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    RankDeficientError,
    SingularDiagonalError,
    SingularMatrixError,
)
from .tolerances import SOLVE_DIAG_MIN, UPPER_TRIANGULAR_TOL

_INT64_LIMIT = 2.0 ** 63  # the first magnitude an int64 cannot hold

__all__ = [
    "QRFactorization",
    "qr_factorize",
    "unit_scale",
    "round_nearest",
    "integer_entries",
    "int64_entries",
    "int_determinant",
    "check_upper_triangular",
    "check_sigma",
]


def _real(a, name: str) -> np.ndarray:
    """a as float64.  A float64 ndarray is taken as is; anything else must
    hold real numbers, which is checked before the cast, since the cast
    drops an imaginary part."""
    if type(a) is not np.ndarray or a.dtype != np.float64:
        try:
            a = np.asarray(a)  # a ragged nesting raises ValueError here
            if a.dtype.kind not in "biufO":  # an object array's casts are checked one by one
                raise TypeError(f"got dtype {a.dtype}")
            a = np.asarray(a, dtype=float)
        except (TypeError, ValueError) as exc:
            raise DimensionMismatchError(f"{name} must hold real numbers: {exc}") from exc
    return a


def _as_array(a, ndim: int, name: str) -> np.ndarray:
    """The one array check: a as float64 (see _real), with ndim dimensions and
    finite entries."""
    a = _real(a, name)
    if a.ndim != ndim:
        raise DimensionMismatchError(f"{name} must be {ndim}-dimensional, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DimensionMismatchError(f"{name} contains non-finite entries")
    return a


def check_upper_triangular(r) -> np.ndarray:
    """Validate a square upper-triangular matrix and return it as float64.

    Below-diagonal entries may carry roundoff up to UPPER_TRIANGULAR_TOL
    relative to the largest entry; anything bigger is an error.
    """
    r = _as_array(r, 2, "R")
    n, m = r.shape
    if n != m:
        raise DimensionMismatchError(f"R must be square, got shape {r.shape}")
    lower = _strict_lower(n)
    a = np.abs(r)
    below = a[lower]  # row-major, so argmax names the first largest entry
    if below.size and below.max() > UPPER_TRIANGULAR_TOL * a.max():
        k = int(np.argmax(below))
        i, j = (int(index[k]) for index in np.nonzero(lower))
        raise DimensionMismatchError(
            f"R is not upper triangular: entry ({i}, {j}) = {float(r[i, j])!r}")
    # np.triu's own expression, so the bytes and the memory order are np.triu's
    return np.where(lower, np.zeros(1, r.dtype), r)


@functools.lru_cache(maxsize=64)  # bounded: a process meeting many sizes keeps 64 masks
def _strict_lower(n: int) -> np.ndarray:
    """The read-only mask of the entries below the diagonal of an n x n matrix."""
    mask = np.tri(n, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def check_sigma(sigma) -> None:
    """The noise-level rule: sigma must be a positive finite real."""
    if not (sigma > 0) or not math.isfinite(sigma):
        raise ValueError(f"sigma must be a positive finite real, got {sigma!r}")


@dataclass(frozen=True, eq=False)
class _Gated:
    """A factor that has passed the gate, which makes one, as does own()
    without a pass: source, the caller's array as given, against which the
    reductions measure their contract; r, the read-only factor with a
    positive diagonal and no -0.0; signs, the row flips that made it; unit
    and e, unit_scale(r), unit read-only."""

    source: object = field(repr=False)
    r: np.ndarray
    signs: np.ndarray
    unit: np.ndarray = field(repr=False)
    e: int

    def own(self) -> "_Gated":
        """The gate's value for r itself, without a second pass: r has a
        positive diagonal, so its signs are +1 and its unit and e are these.
        It equals _gate(r) bit for bit."""
        return _Gated(self.r, self.r, np.ones_like(self.signs), self.unit, self.e)


def _gate(r) -> _Gated:
    """The input gate for a triangular factor, which a _Gated has passed
    already and so comes back as is.

    Validates r as square upper triangular, flips each negative-pivot row so
    the gated factor has a positive diagonal, and raises SingularDiagonalError
    naming the smallest pivot when a pivot of its unit_scale is below
    SOLVE_DIAG_MIN.  Row flips leave ||R xi|| unchanged; a caller that keeps
    an observation or an orthogonal factor must flip it too.
    """
    if isinstance(r, _Gated):
        return r
    t = check_upper_triangular(r)
    # the sign rule: +1 or -1 per row, whichever makes that row's pivot positive;
    # + 0.0 turns a flip's -0.0 into 0.0, so a row flip changes no bit
    signs = np.where(t.diagonal() < 0.0, -1.0, 1.0)
    gated = signs[:, None] * t + 0.0
    unit, e = unit_scale(gated)
    diag = unit.diagonal()
    if diag.size and diag.min() < SOLVE_DIAG_MIN:
        i = int(diag.argmin())
        raise SingularDiagonalError(
            f"R pivot {i} has magnitude {float(gated[i, i])!r}, "
            f"below {SOLVE_DIAG_MIN} * 2**{e}")
    # a gated factor is never re-checked, so it cannot change
    gated.flags.writeable = False
    unit.flags.writeable = False
    return _Gated(r, gated, signs, unit, e)


def unit_scale(a):
    """The one normalization: (a / 2**e, e), with e the binary exponent of
    the largest |entry|, so that entry lands in [0.5, 1); e = 0 for an
    all-zero a.  A power of two changes exponents, not mantissas: ratios and
    comparisons of entries survive exactly (short of entries that turn
    subnormal), and no square of a scaled entry overflows.  An a that does
    not hold real numbers raises DimensionMismatchError."""
    a = _real(a, "A")
    e = math.frexp(float(np.max(np.abs(a), initial=0.0)))[1]
    return np.ldexp(a, -e), e


@functools.cache
def _dtrtrs():
    """LAPACK's dtrtrs, imported at the first solve: scipy.linalg takes most of
    a process's start-up, and reduce and --help never solve.  Cached, as a
    function-local import costs ten to twenty times this lookup per call."""
    from scipy.linalg.lapack import dtrtrs
    return dtrtrs


def _solve_upper(r, b) -> np.ndarray:
    """R^-1 b for a float64 upper-triangular r and a float64 b of one or two
    dimensions: LAPACK's dtrtrs, called with the arguments
    scipy.linalg.solve_triangular(r, b, check_finite=False) passes it, so the
    bits are that call's, without its per-call checks and wrapping.  An empty
    b gives an empty result, as there; a zero pivot raises LinAlgError."""
    if b.size == 0:  # dtrtrs refuses n = 0
        return np.empty_like(b, dtype=float)
    dtrtrs = _dtrtrs()
    if r.flags.f_contiguous:
        x, info = dtrtrs(r, b, lower=0, trans=0)
    else:  # the transposed system, as dtrtrs reads Fortran order
        x, info = dtrtrs(r.T, b, lower=1, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


@dataclass(frozen=True, eq=False)
class QRFactorization:
    """Thin QR factorization A = q1 r.

    q1 : (m, n) orthonormal columns spanning range(A)
    gated : the gate's value for r, which passes r on without a second pass
    r  : (n, n) upper triangular with positive diagonal, read-only: gated.r
    """

    q1: np.ndarray
    gated: _Gated

    @property
    def r(self) -> np.ndarray:
        return self.gated.r


def qr_factorize(a) -> QRFactorization:
    """Householder QR with R passed through the triangular gate, _gate: its
    row flips, which make every pivot positive, are folded into q1's
    columns.

    Requires m >= n.  A factor the gate refuses, a pivot below SOLVE_DIAG_MIN
    relative to R's largest entry, is rank deficient: RankDeficientError.
    """
    a, e = unit_scale(_as_array(a, 2, "matrix"))
    m, n = a.shape
    if m < n:
        raise DimensionMismatchError(
            f"need at least as many rows as columns, got shape {a.shape}")
    # complete, not reduced: the modes round q1 and r differently, and replays pin those bits
    q, r_full = np.linalg.qr(a, mode="complete")
    try:
        with np.errstate(over="ignore"):  # an entry past the float range turns inf
            g = _gate(np.ldexp(r_full[:n, :n], e))
    except DimensionMismatchError as exc:  # the gate's refusal of that inf
        raise SingularMatrixError("R is out of floating-point range") from exc
    except SingularDiagonalError as exc:
        raise RankDeficientError(f"matrix is rank deficient: {exc}") from exc
    return QRFactorization(q1=q[:, :n] * g.signs[None, :], gated=g.own())


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


def _whole(v) -> int:
    if isinstance(v, (int, np.integer)):
        return int(v)
    # a float() of a string parses it, and of a numpy complex drops its imaginary part
    if isinstance(v, numbers.Real) and float(v).is_integer():
        return int(float(v))
    raise DimensionMismatchError(f"entries must be integers, found {v!r}")


def integer_entries(a) -> np.ndarray:
    """The entries of a as Python ints, in an object array of a's shape.

    The one integer test: an entry that is not a whole real number, NaN,
    infinities, complex numbers and strings included, raises
    DimensionMismatchError naming it.
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
