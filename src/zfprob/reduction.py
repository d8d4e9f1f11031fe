"""Lattice reductions on an upper-triangular matrix.

Every routine here rewrites an upper-triangular R as Qbar^T R Z = Rbar with
Z unimodular (integer, det +-1) and Qbar orthogonal, returning the triple
plus counters of the elementary steps taken.  Covered strategies:

* entry-wise size reduction and the adjacent-column swap step,
* the classic delta-parameterized reduction loop built from those two,
* the sorted-pivot ordering (greedy smallest pivot, first to last),
* the decision-feedback ordering (greedy largest pivot, last to first).

Indices are 0-based throughout.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import (
    DimensionMismatchError,
    InvalidGridError,
    IterationLimitExceededError,
    NotUnimodularError,
    RankDeficientError,
    SingularDiagonalError,
    SingularMatrixError,
)
from .linalg import (
    check_upper_triangular,
    int64_entries,
    int_determinant,
    integer_entries,
    positive_triangular,
    qr_factorize,
    round_nearest,
    unit_scale,
)
from .tolerances import (
    DEFAULT_DELTA,
    DET_PRESERVATION_TOL,
    LLL_CHECK_SLACK,
    MAX_ITERATIONS_PER_N2,
    ORDERING_TIE_TOL,
    REDUCTION_RECONSTRUCTION_TOL,
    SOLVE_DIAG_MIN,
)

__all__ = [
    "LLLParams",
    "ReductionStats",
    "ReductionResult",
    "LLLCheckReport",
    "size_reduce_entry",
    "lll_reduce",
    "is_lll_reduced",
    "sqrd",
    "vblast",
    "orthogonality_defect",
]


@dataclass(frozen=True)
class LLLParams:
    """Reduction-loop knob.

    delta: quality parameter in (0.25, 1.0], or InvalidGridError; larger
    demands a more reduced output.  The loop is capped at MAX_ITERATIONS_PER_N2 * n**2
    passes for an n-column input.
    """

    delta: float = DEFAULT_DELTA

    def __post_init__(self):
        if not (0.25 < self.delta <= 1.0):
            raise InvalidGridError(f"delta must lie in (0.25, 1.0], got {self.delta!r}")


@dataclass(frozen=True)
class ReductionStats:
    size_reductions: int = 0
    swaps: int = 0
    iterations: int = 0


@dataclass(frozen=True)
class LLLCheckReport:
    size_ok: bool
    lovasz_ok: bool
    first_violation: tuple[int, int] | None = None

    @property
    def is_reduced(self) -> bool:
        return self.size_ok and self.lovasz_ok


@dataclass(frozen=True)
class ReductionResult:
    """Output of a reduction: Qbar^T R Z = Rbar.

    r_bar: upper triangular, positive diagonal.  z: integer unimodular.
    q_bar: orthogonal.  stats: elementary-step counters.
    reconstruction_error: relative Frobenius error of Qbar^T R Z against
    Rbar.  det_drift: relative |det| change through the reduction.  Both
    are measured once, against the reduction's own input, before the
    result is made: every reduction refuses, with SingularMatrixError
    naming the failed test, a result whose error or drift exceeds its
    tolerance.  check(r_input) re-verifies a result against a given input.
    """

    r_bar: np.ndarray
    z: np.ndarray
    q_bar: np.ndarray
    stats: ReductionStats
    reconstruction_error: float
    det_drift: float

    def check(self, r_input):
        """Raise unless every structural invariant holds against r_input."""
        if int_determinant(self.z) not in (-1, 1):
            raise NotUnimodularError(
                f"transform determinant is {int_determinant(self.z)}, expected +-1")
        if np.min(np.diag(self.r_bar), initial=np.inf) <= 0.0:
            raise SingularDiagonalError("reduced matrix has a non-positive pivot")
        _contract(r_input, check_upper_triangular(r_input), self.r_bar, self.z, self.q_bar)


def _reconstruction_error(r_input, r_bar, z, q_bar) -> float:
    """Relative Frobenius error of Qbar^T R Z against Rbar, R = r_input."""
    u, e = unit_scale(r_input)
    lhs = q_bar.T @ u @ z
    # an empty or all-zero R has no norm to be relative to: 1 at unit scale
    scale = np.linalg.norm(u) or 1.0
    return float(np.linalg.norm(lhs - np.ldexp(r_bar, -e)) / scale)


def _det_drift(r_input, r_bar) -> float:
    """Relative |det| change from triangular r_input to r_bar."""
    d_in, e_in = _frexp_product(r_input.diagonal())
    d_out, e_out = _frexp_product(r_bar.diagonal())
    if d_in == 0.0:
        raise SingularMatrixError("input factor has a zero pivot")
    # both determinants scaled by the same exact 2**-e_in
    with np.errstate(over="ignore"):
        d_out = float(np.ldexp(d_out, e_out - e_in))
    return _in_range(abs(d_out - d_in) / d_in, "determinant drift")


def _contract(r_input, triangular, r_bar, z, q_bar) -> tuple[float, float]:
    """(reconstruction error, determinant drift) of Qbar^T R Z = Rbar, R being
    r_input and triangular its checked triangular form; raises
    SingularMatrixError naming the first of the two tests that fails."""
    err = _reconstruction_error(r_input, r_bar, z, q_bar)
    if not err <= REDUCTION_RECONSTRUCTION_TOL:
        raise SingularMatrixError(
            f"reconstruction error {err:.3e} exceeds {REDUCTION_RECONSTRUCTION_TOL}")
    drift = _det_drift(triangular, r_bar)
    if not drift <= DET_PRESERVATION_TOL:
        raise SingularMatrixError(
            f"determinant drift {drift:.3e} exceeds {DET_PRESERVATION_TOL}")
    return err, drift


def _result(r_input, gated, r_bar, z, q_bar, stats) -> ReductionResult:
    """The result of reducing r_input, whose gate gave gated, once it passes
    the contract.  z is unimodular by construction, so its determinant is
    not recomputed, and gated's row flips leave |det| as it is."""
    err, drift = _contract(r_input, gated, r_bar, z, q_bar)
    return ReductionResult(r_bar=r_bar, z=z, q_bar=q_bar, stats=stats,
                           reconstruction_error=err, det_drift=drift)


def _frexp_product(v) -> tuple[float, int]:
    """|prod(v)| as (m, e), the product being m * 2**e.  m multiplies frexp
    mantissas in [0.5, 1), so it stays normal for len(v) < 1022, and it
    carries the raw product's bits wherever that product is normal."""
    m, e = np.frexp(v)
    return abs(float(np.prod(m))), int(e.sum())


def _in_range(x: float, what: str) -> float:
    if not math.isfinite(x):
        raise SingularMatrixError(f"{what} is {x!r}, out of floating-point range")
    return x


def _size_reduce_inplace(r, z, i, k) -> bool:
    """Column k minus the nearest integer multiple of column i in unit-scaled
    r and in z, a list of columns of Python ints, which cannot wrap."""
    pivot, entry = r.item(i, i), r.item(i, k)
    if abs(pivot) < SOLVE_DIAG_MIN:
        raise SingularDiagonalError(f"pivot {i} has relative magnitude {abs(pivot)!r}")
    # then |r_ik / r_ii| <= 1/2 too, division being monotone, and that rounds to 0
    if abs(entry) <= 0.5 * abs(pivot):
        return False
    mu = round_nearest(entry / pivot)
    if mu == 0:
        return False
    # rows above i only, r is triangular
    r[: i + 1, k] -= mu * r[: i + 1, i]
    z[k] = [a - mu * b for a, b in zip(z[k], z[i])]
    return True


def _transform(z) -> np.ndarray:
    """The int64 matrix whose columns are z, through the one int64 boundary."""
    n = len(z)
    return int64_entries(z, "transform entry").reshape(n, n).T.copy()


def size_reduce_entry(r, z, i: int, k: int):
    """Shrink r_ik by an integer multiple of column i (i < k).

    Returns (r, z, applied) with fresh arrays; applied is False when the
    entry already satisfied |r_ik| <= 0.5 |r_ii| closely enough that the
    nearest multiple was zero.  The same column operation is applied to z,
    whose entries must be whole numbers.
    """
    r, e = unit_scale(check_upper_triangular(r))
    n = r.shape[0]
    if not (0 <= i < k < n):
        raise DimensionMismatchError(f"need 0 <= i < k < {n}, got i={i}, k={k}")
    z = integer_entries(z)
    if z.shape != (n, n):
        raise DimensionMismatchError(f"Z must be {n}x{n}, got {z.shape}")
    z = z.T.tolist()
    applied = _size_reduce_inplace(r, z, i, k)
    return np.ldexp(r, e), _transform(z), applied


def _lovasz_holds(r, k: int, delta: float) -> bool:
    """Adjacent-pair condition at column k (1 <= k < n):
    delta * r_{k-1,k-1}^2 <= r_{k-1,k}^2 + r_{k,k}^2.  r is unit-scaled, so
    no square overflows, and its pivots clear the relative floor, so no
    pivot's square underflows."""
    a, b, c = r.item(k - 1, k - 1), r.item(k - 1, k), r.item(k, k)
    return delta * (a * a) <= b * b + c * c


def _swap_inplace(r, z, q, k):
    """Exchange columns k-1 and k of r and of z, a list of columns, then
    restore triangular form with one 2x2 rotation accumulated into q;
    pivots stay positive."""
    r[:, [k - 1, k]] = r[:, [k, k - 1]]
    z[k - 1], z[k] = z[k], z[k - 1]
    # the swap leaves one entry below the diagonal; rotate it away
    a = r[k - 1, k - 1]
    b = r[k, k - 1]
    rho = math.hypot(a, b)
    if rho < SOLVE_DIAG_MIN:
        raise SingularDiagonalError(f"columns {k-1},{k} are numerically dependent")
    c = a / rho
    s = b / rho
    g = np.array([[c, -s], [s, c]])
    r[[k - 1, k], :] = g.T @ r[[k - 1, k], :]
    q[:, [k - 1, k]] = q[:, [k - 1, k]] @ g
    # pivot k-1 is now rho > 0 and pivot k is -s * (old pivot k-1) < 0: flip row k
    r[k] = -r[k]
    q[:, k] = -q[:, k]
    r[k, k - 1] = 0.0


def lll_reduce(r, params: LLLParams | None = None) -> ReductionResult:
    """Run the delta-parameterized reduction loop on upper-triangular r.

    The loop walks a column pointer k from 1 upward: size-reduce the
    superdiagonal entry, test the adjacent-pair condition, swap and step
    back on failure, otherwise size-reduce the rest of the column and
    advance.  Output satisfies |rbar_ik| <= 0.5 rbar_ii for all i < k and
    the pair condition at every k for the given delta.
    """
    if params is None:
        params = LLLParams()
    gated, signs = positive_triangular(r)
    # unit scale: the pair test squares entries, the pivot floors compare them
    u, e = unit_scale(gated)
    n = u.shape[0]
    # z is kept as columns of Python ints and leaves through _transform
    z = [[int(i == j) for i in range(n)] for j in range(n)]
    q = np.diag(signs)
    limit = MAX_ITERATIONS_PER_N2 * max(n, 1) ** 2
    size_reductions = 0
    swaps = 0
    iterations = 0
    passes = 0
    k = 1
    while k < n:
        passes += 1
        if passes > limit:
            raise IterationLimitExceededError(
                f"no convergence after {limit} passes (delta={params.delta})")
        changed = False
        if _size_reduce_inplace(u, z, k - 1, k):
            size_reductions += 1
            changed = True
        if not _lovasz_holds(u, k, params.delta):
            _swap_inplace(u, z, q, k)
            swaps += 1
            changed = True
            k = max(k - 1, 1)
        else:
            for i in range(k - 2, -1, -1):
                if _size_reduce_inplace(u, z, i, k):
                    size_reductions += 1
                    changed = True
            k += 1
        if changed:
            iterations += 1
    stats = ReductionStats(size_reductions=size_reductions, swaps=swaps,
                           iterations=iterations)
    return _result(r, gated, np.ldexp(u + 0.0, e), _transform(z), q, stats)


def is_lll_reduced(r, delta: float = DEFAULT_DELTA) -> LLLCheckReport:
    """Check the size-reduced and adjacent-pair conditions with a small
    boundary slack; reports the first violating index pair if any, size
    violations before pair ones, each in column-major order.  r goes
    through the input gate, so a pivot below the floor is refused, and
    delta through LLLParams, so a delta outside (0.25, 1.0] is too."""
    delta = LLLParams(delta=delta).delta
    r, _ = unit_scale(positive_triangular(r)[0])
    d = np.diag(r)  # the gate's pivots are positive
    # |r_ik| against r_ii / 2 for i < k, held column-major as (k, i)
    size = np.argwhere(np.abs(np.triu(r, 1)).T > 0.5 * d + LLL_CHECK_SLACK * d)
    b, c = np.diag(r, 1), d[1:]
    lhs = delta * (d[:-1] * d[:-1])
    pair = np.flatnonzero(lhs > b * b + c * c + LLL_CHECK_SLACK * lhs)
    first = ((int(size[0, 1]), int(size[0, 0])) if size.size
             else (int(pair[0]), int(pair[0]) + 1) if pair.size else None)
    return LLLCheckReport(size_ok=not size.size, lovasz_ok=not pair.size, first_violation=first)


def _perm_result(r, gated, signs, perm) -> ReductionResult:
    """Permutation perm of r, which the gate turned into gated with row flips
    signs; the flips are folded into q_bar."""
    n = gated.shape[0]
    z = np.eye(n, dtype=np.int64)[:, perm]
    f = qr_factorize(gated[:, perm])
    # swap count of the permutation: transpositions of its cycle decomposition
    seen = [False] * n
    cycles = 0
    for start in range(n):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    stats = ReductionStats(size_reductions=0, swaps=n - cycles, iterations=0)
    return _result(r, gated, f.r, z, signs[:, None] * f.q1, stats)


def _dual_basis(r) -> np.ndarray:
    """R^-T for a gated upper-triangular r: column c is row c of R^-1, whose
    norm is 1 / (the pivot column c gets when placed last).  Raises
    SingularMatrixError when an entry leaves the float range."""
    # the gate has checked that r is finite
    dual = solve_triangular(r, np.eye(r.shape[0]), lower=False, check_finite=False).T
    if not np.all(np.isfinite(dual)):
        raise SingularMatrixError("R^-1 is out of floating-point range")
    return dual


def _sorted_order(w, largest: bool = False) -> list[int]:
    """Sorted QR on the columns of w: pick the remaining column with the
    smallest residual norm, or the largest when largest is set (the first
    index within a relative tie window), then project it out of the rest.
    Returns the picks in order.  Only a residual that is not a positive
    normal float, one that underflowed, is refused here; whether the
    reordered factor has full rank is the gate's call, through
    qr_factorize."""
    work = np.array(w, dtype=float)
    remaining = list(range(work.shape[1]))
    order: list[int] = []
    while remaining:
        best, best_norm = None, None
        for c in remaining:
            # hypot, not a sum of squares: a dual column's squares can leave
            # the float range while the column itself does not
            norm = math.hypot(*work[:, c])
            if best is None or (norm > best_norm * (1.0 + ORDERING_TIE_TOL) if largest
                                else norm < best_norm * (1.0 - ORDERING_TIE_TOL)):
                best, best_norm = c, norm
        if not best_norm >= np.finfo(float).tiny:
            raise RankDeficientError("columns became dependent during ordering")
        order.append(best)
        remaining.remove(best)
        v = work[:, best] / best_norm
        for c in remaining:
            # project twice: after one pass an ill-conditioned basis keeps
            # enough of v to misorder the later picks
            work[:, c] -= v * (v @ work[:, c])
            work[:, c] -= v * (v @ work[:, c])
    return order


def sqrd(r) -> ReductionResult:
    """Column reordering chosen first to last, each pick minimizing the
    next pivot magnitude; z is the corresponding permutation."""
    # row sign flips leave every residual norm, and so the order, unchanged
    gated, signs = positive_triangular(r)
    order = _sorted_order(unit_scale(gated)[0])
    return _perm_result(r, gated, signs, order)


def vblast(r) -> ReductionResult:
    """Column reordering chosen last to first, each pick maximizing the
    pivot that position would get; z is the corresponding permutation.

    The column placed last gets pivot 1 / ||row c of R^-1||, so the picks
    are the sorted-QR picks on the dual basis R^-T, in reverse."""
    gated, signs = positive_triangular(r)
    tail = _sorted_order(_dual_basis(gated))
    return _perm_result(r, gated, signs, tail[::-1])


def orthogonality_defect(r) -> float:
    """Product of column norms over |det|; 1 exactly when columns are
    orthogonal, larger otherwise."""
    # unit-scaled, so no squared entry overflows; the scale cancels in the ratio
    r, _ = unit_scale(positive_triangular(r)[0])
    norms, e_norms = _frexp_product(np.linalg.norm(r, axis=0))
    det, e_det = _frexp_product(r.diagonal())
    with np.errstate(over="ignore"):
        defect = float(np.ldexp(norms / det, e_norms - e_det))
    return _in_range(defect, "orthogonality defect")
