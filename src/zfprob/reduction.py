"""Lattice reductions on an upper-triangular matrix.

Every routine here rewrites an upper-triangular R as Qbar^T R Z = Rbar with
Z unimodular (integer, det +-1) and Qbar orthogonal, returning the triple
plus counters of the elementary steps taken.  Covered strategies:

* entry-wise size reduction and the adjacent-column swap step,
* the classic delta-parameterized reduction loop built from those two,
* the sorted-pivot ordering (greedy smallest pivot, first to last),
* the decision-feedback ordering (greedy largest pivot, last to first).

The reduction loop's steps are scalar, so it runs on Python-float columns.

Indices are 0-based throughout.
"""

import math
from dataclasses import dataclass

import numpy as np

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
    _Gated,
    _gate,
    _solve_upper,
    check_upper_triangular,
    int64_entries,
    int_determinant,
    integer_entries,
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


@dataclass(frozen=True, eq=False)
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
    gated: the gate's value for Rbar, the one place the result holds it;
    r_bar is its read-only gated.r.
    """

    gated: _Gated
    z: np.ndarray
    q_bar: np.ndarray
    stats: ReductionStats
    reconstruction_error: float
    det_drift: float

    @property
    def r_bar(self) -> np.ndarray:
        return self.gated.r

    def check(self, r_input):
        """Raise unless every structural invariant holds against r_input."""
        det = int_determinant(self.z)
        if det not in (-1, 1):
            raise NotUnimodularError(f"transform determinant is {det}, expected +-1")
        if np.min(np.diag(self.r_bar), initial=np.inf) <= 0.0:
            raise SingularDiagonalError("reduced matrix has a non-positive pivot")
        check_upper_triangular(r_input)
        _contract(r_input, self.r_bar, self.z, self.q_bar)


def _reconstruction_error(r_input, r_bar, z, q_bar) -> float:
    """Relative Frobenius error of Qbar^T R Z against Rbar, R = r_input."""
    u, e = unit_scale(r_input)
    lhs = q_bar.T @ u @ z
    # an empty or all-zero R has no norm to be relative to: 1 at unit scale
    scale = np.linalg.norm(u) or 1.0
    return float(np.linalg.norm(lhs - np.ldexp(r_bar, -e)) / scale)


def _det_drift(r_input, r_bar) -> float:
    """Relative |det| change from triangular r_input to r_bar; row flips keep |det|."""
    d_in, e_in = _frexp_product(np.asarray(r_input, dtype=float).diagonal())
    d_out, e_out = _frexp_product(r_bar.diagonal())
    if d_in == 0.0:
        raise SingularMatrixError("input factor has a zero pivot")
    # both determinants scaled by the same exact 2**-e_in
    with np.errstate(over="ignore"):
        d_out = float(np.ldexp(d_out, e_out - e_in))
    return _in_range(abs(d_out - d_in) / d_in, "determinant drift")


def _contract(r_input, r_bar, z, q_bar) -> tuple[float, float]:
    """(reconstruction error, determinant drift) of Qbar^T R Z = Rbar, R being
    the triangular r_input; raises SingularMatrixError naming the first of
    the two tests that fails."""
    err = _reconstruction_error(r_input, r_bar, z, q_bar)
    if not err <= REDUCTION_RECONSTRUCTION_TOL:
        raise SingularMatrixError(
            f"reconstruction error {err:.3e} exceeds {REDUCTION_RECONSTRUCTION_TOL}")
    drift = _det_drift(r_input, r_bar)
    if not drift <= DET_PRESERVATION_TOL:
        raise SingularMatrixError(
            f"determinant drift {drift:.3e} exceeds {DET_PRESERVATION_TOL}")
    return err, drift


def _result(r_input, gated, z, q_bar, stats) -> ReductionResult:
    """The result of reducing r_input to gated.r, once it passes the contract.
    z is unimodular by construction, so its determinant is not recomputed."""
    err, drift = _contract(r_input, gated.r, z, q_bar)
    return ReductionResult(gated=gated, z=z, q_bar=q_bar, stats=stats,
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


def _size_reduce_inplace(cols, z, i, k) -> bool:
    """Column k minus the nearest integer multiple of column i in cols, the
    unit-scaled factor as Python-float columns, and in z, sparse columns
    {row: Python int} that hold only their nonzero entries; ints cannot wrap."""
    ci, ck = cols[i], cols[k]
    pivot, entry = ci[i], ck[i]
    if abs(pivot) < SOLVE_DIAG_MIN:
        raise SingularDiagonalError(f"pivot {i} has relative magnitude {abs(pivot)!r}")
    # then |r_ik / r_ii| <= 1/2 too, division being monotone, and that rounds to 0
    if abs(entry) <= 0.5 * abs(pivot):
        return False
    # else |entry / pivot| >= 1/2 + 2**-53, the pivot being normal, so mu != 0
    mu = round_nearest(entry / pivot)
    # rows above i only, the factor is triangular
    ck[:i + 1] = [a - mu * b for a, b in zip(ck, ci[:i + 1])]
    zk = z[k]
    for row, b in z[i].items():
        a = zk.get(row, 0) - mu * b
        if a:
            zk[row] = a
        else:
            del zk[row]
    return True


def _transform(z) -> np.ndarray:
    """The int64 matrix whose columns are the sparse columns z, made dense
    once and passed through the one int64 boundary."""
    n = len(z)
    dense = [[0] * n for _ in range(n)]
    for col, entries in zip(dense, z):
        for row, v in entries.items():
            col[row] = v
    return int64_entries(dense, "transform entry").reshape(n, n).T.copy()


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
    z = [{row: v for row, v in enumerate(col) if v} for col in z.T.tolist()]
    cols = r.T.tolist()
    applied = _size_reduce_inplace(cols, z, i, k)
    return np.ldexp(np.array(cols).T, e, order="C"), _transform(z), applied


def _swap_inplace(cols, z, q, k):
    """Exchange columns k-1 and k of cols, the unit-scaled factor as Python-float
    columns, and of z, then restore triangular form with one 2x2 rotation,
    accumulated into q; pivots stay positive.  Rows k-1 and k are zero left
    of column k-1, the factor being triangular, so the rotation runs on the
    columns from k-1 on, in Python floats whatever BLAS kernel is loaded."""
    cols[k - 1], cols[k] = cols[k], cols[k - 1]
    z[k - 1], z[k] = z[k], z[k - 1]
    # the swap leaves one entry below the diagonal; rotate it away
    a, b = cols[k - 1][k - 1], cols[k - 1][k]
    rho = math.hypot(a, b)
    if rho < SOLVE_DIAG_MIN:
        raise SingularDiagonalError(f"columns {k-1},{k} are numerically dependent")
    c = a / rho
    s = b / rho
    # pivot k-1 turns rho > 0 and pivot k -s * (old pivot k-1) < 0: row k is flipped
    for col in cols[k - 1:]:
        x, y = col[k - 1], col[k]
        col[k - 1] = c * x + s * y
        col[k] = -(c * y - s * x)
    cols[k - 1][k] = 0.0
    q[:, k - 1:k + 1] = q[:, k - 1:k + 1] @ np.array([[c, -s], [s, c]])
    q[:, k] = -q[:, k]


def lll_reduce(r, params: LLLParams = LLLParams()) -> ReductionResult:
    """Run the delta-parameterized reduction loop on upper-triangular r.

    The loop walks a column pointer k from 1 upward: size-reduce the
    superdiagonal entry, test the adjacent-pair condition, swap and step
    back on failure, otherwise size-reduce the rest of the column and
    advance.  Output satisfies |rbar_ik| <= 0.5 rbar_ii for all i < k and
    the pair condition at every k for the given delta.

    The loop's steps are scalar, so it runs on the unit-scaled factor as
    Python-float columns, where numpy's per-call cost would outweigh each
    step; r_bar's bits then do not depend on the BLAS kernel, which q_bar's,
    accumulated in numpy, still do.
    """
    g = _gate(r)
    # unit scale: the pair test squares entries, the pivot floors compare them
    cols = g.unit.T.tolist()
    n = len(cols)
    # z is kept as sparse columns of Python ints and leaves through _transform
    z = [{j: 1} for j in range(n)]
    q = np.diag(g.signs)
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
        steps = size_reductions + swaps
        ck = cols[k]
        for i in range(k - 1, -1, -1):
            pivot = cols[i][i]
            # most steps skip, so that test is inline; the call refuses a pivot below the floor
            if abs(pivot) < SOLVE_DIAG_MIN or not abs(ck[i]) <= 0.5 * abs(pivot):
                size_reductions += _size_reduce_inplace(cols, z, i, k)
            # the pair condition, once the superdiagonal entry is size-reduced
            if i == k - 1 and not params.delta * (pivot * pivot) <= ck[i] * ck[i] + ck[k] * ck[k]:
                _swap_inplace(cols, z, q, k)
                swaps += 1
                k = max(k - 1, 1)
                break
        else:
            k += 1
        if size_reductions + swaps > steps:
            iterations += 1
    stats = ReductionStats(size_reductions=size_reductions, swaps=swaps,
                           iterations=iterations)
    r_bar = np.ldexp(np.reshape(cols, (n, n)).T, g.e)
    return _result(g.source, _gate(r_bar).own(), _transform(z), q, stats)


def is_lll_reduced(r, delta: float = DEFAULT_DELTA) -> LLLCheckReport:
    """Check the size-reduced and adjacent-pair conditions with a small
    boundary slack; reports the first violating index pair if any, size
    violations before pair ones, each in column-major order.  r goes
    through the input gate, so a pivot below the floor is refused, and
    delta through LLLParams, so a delta outside (0.25, 1.0] is too."""
    delta = LLLParams(delta=delta).delta
    r = _gate(r).unit
    d = np.diag(r)  # the gate's pivots are positive
    # |r_ik| against r_ii / 2 for i < k, held column-major as (k, i)
    size = np.argwhere(np.abs(np.triu(r, 1)).T > 0.5 * d + LLL_CHECK_SLACK * d)
    b, c = np.diag(r, 1), d[1:]
    lhs = delta * (d[:-1] * d[:-1])
    pair = np.flatnonzero(lhs > b * b + c * c + LLL_CHECK_SLACK * lhs)
    first = ((int(size[0, 1]), int(size[0, 0])) if size.size
             else (int(pair[0]), int(pair[0]) + 1) if pair.size else None)
    return LLLCheckReport(size_ok=not size.size, lovasz_ok=not pair.size, first_violation=first)


def _perm_result(g, perm) -> ReductionResult:
    """Permutation perm of the gated factor g; the gate's row flips are
    folded into q_bar, the contract is measured against g.source, and the
    QR's gated value for r_bar goes on the result."""
    n = g.r.shape[0]
    z = np.eye(n, dtype=np.int64)[:, perm]
    f = qr_factorize(g.r[:, perm])
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
    return _result(g.source, f.gated, z, g.signs[:, None] * f.q1, stats)


def _dual_basis(r) -> np.ndarray:
    """R^-T for a gated upper-triangular r: column c is row c of R^-1, whose
    norm is 1 / (the pivot column c gets when placed last).  Raises
    SingularMatrixError when an entry leaves the float range."""
    # the gate has checked that r is finite
    dual = _solve_upper(r, np.eye(r.shape[0])).T
    if not np.isfinite(dual).all():
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
    g = _gate(r)
    return _perm_result(g, _sorted_order(g.unit))


def vblast(r) -> ReductionResult:
    """Column reordering chosen last to first, each pick maximizing the
    pivot that position would get; z is the corresponding permutation.

    The column placed last gets pivot 1 / ||row c of R^-1||, so the picks
    are the sorted-QR picks on the dual basis R^-T, in reverse."""
    g = _gate(r)
    # unit scale, as the other entry points: R^-1 of a tiny R leaves the float range
    tail = _sorted_order(_dual_basis(g.unit))
    return _perm_result(g, tail[::-1])


def orthogonality_defect(r) -> float:
    """Product of column norms over |det|; 1 exactly when columns are
    orthogonal, larger otherwise."""
    # unit-scaled, so no squared entry overflows; the scale cancels in the ratio
    r = _gate(r).unit
    norms, e_norms = _frexp_product(np.linalg.norm(r, axis=0))
    det, e_det = _frexp_product(r.diagonal())
    with np.errstate(over="ignore"):
        defect = float(np.ldexp(norms / det, e_norms - e_det))
    return _in_range(defect, "orthogonality defect")
