"""Integer estimators for the triangular model y_tilde = R x + noise.

Three decoders: rounding of the unconstrained solution (ZF), last-to-first
decision feedback (SIC), and exhaustive search over a box (the optimality
oracle for small n).  Estimates live in whatever coordinates R uses; going
back through a reduction's Z is lift_estimate's job.
"""

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    NotUnimodularError,
)
from .linalg import (
    _Gated,
    _as_array,
    _gate,
    _solve_upper,
    check_sigma,
    int64_entries,
    int_determinant,
    integer_entries,
    round_nearest,
)

__all__ = [
    "ILSInstance",
    "DecodeResult",
    "zf_decode",
    "sic_decode",
    "lift_estimate",
    "ils_brute_force",
    "BRUTE_FORCE_MAX_DIM",
    "BOX_RADIUS",
]

BRUTE_FORCE_MAX_DIM = 6
BOX_RADIUS = 3


@dataclass(frozen=True, eq=False)
class ILSInstance:
    """One decoding problem: triangular matrix, observation and, optionally,
    the noise level it was drawn at, which no decoder reads.
    A negative-pivot row of R is flipped together with its entry of y_tilde,
    which leaves R^{-1} y_tilde and every residual unchanged; r is the
    gate's read-only factor, and gated the gate's value for it."""

    r: np.ndarray
    y_tilde: np.ndarray
    sigma: float | None = None
    gated: _Gated = field(init=False, repr=False)

    def __post_init__(self):
        if self.sigma is not None:
            check_sigma(self.sigma)
        g = _gate(self.r)
        y = _as_array(self.y_tilde, 1, "observation")
        if y.shape[0] != g.r.shape[0]:
            raise DimensionMismatchError(
                f"observation has length {y.shape[0]}, expected {g.r.shape[0]}")
        # a row flip of R and y_tilde is the same problem; + 0.0 as in the gate
        y = g.signs * y + 0.0
        object.__setattr__(self, "r", g.r)
        object.__setattr__(self, "y_tilde", y)
        object.__setattr__(self, "gated", g.own())

    @property
    def n(self) -> int:
        return self.r.shape[0]


@dataclass(frozen=True, eq=False)
class DecodeResult:
    estimate: np.ndarray
    residual: float


def _result(inst: ILSInstance, estimate: np.ndarray) -> DecodeResult:
    estimate = np.asarray(estimate, dtype=np.int64)
    residual = float(np.linalg.norm(inst.y_tilde - inst.r @ estimate))
    return DecodeResult(estimate=estimate, residual=residual)


def zf_decode(inst: ILSInstance) -> DecodeResult:
    """Round each coordinate of the unconstrained solution R^{-1} y_tilde."""
    # the instance's r and y_tilde already passed the input gate, flipped together
    real_solution = _solve_upper(inst.r, inst.y_tilde)
    return _result(inst, [round_nearest(v) for v in real_solution])


def sic_decode(inst: ILSInstance) -> DecodeResult:
    """Decide coordinates last to first, cancelling already-decided terms.

    x_k = round((y_k - sum_{j>k} r_kj x_j) / r_kk); equals zf_decode
    exactly when R is diagonal.
    """
    r = inst.r
    n = inst.n
    x = np.zeros(n, dtype=np.int64)
    for k in range(n - 1, -1, -1):
        cancelled = inst.y_tilde[k] - r[k, k + 1:] @ x[k + 1:]
        x[k] = round_nearest(cancelled / r[k, k])
    return _result(inst, x)


def lift_estimate(z, estimate_in_reduced) -> np.ndarray:
    """Map an estimate through the reduction transform: returns Z times it.

    Exact: the product is formed in Python ints and leaves through
    int64_entries, so an entry of magnitude 2**63 or more raises.  Z must
    be unimodular and the estimate must hold whole numbers.
    """
    z = np.asarray(z)
    det = int_determinant(z)
    if det not in (-1, 1):
        raise NotUnimodularError(f"det Z = {det}, expected +-1")
    est = np.asarray(estimate_in_reduced)
    if est.shape != (z.shape[0],):
        raise DimensionMismatchError(
            f"estimate has shape {est.shape}, expected ({z.shape[0]},)")
    x = integer_entries(est).tolist()
    lifted = [sum(a * b for a, b in zip(row, x)) for row in integer_entries(z).tolist()]
    return int64_entries(lifted, "lifted entry")


def ils_brute_force(inst: ILSInstance) -> DecodeResult:
    """Enumerate the integer box of half-width BOX_RADIUS around the ZF
    estimate and return the residual minimizer; ties go to the
    lexicographically smallest vector.

    Only an oracle for small problems: n above BRUTE_FORCE_MAX_DIM raises.
    """
    n = inst.n
    if n > BRUTE_FORCE_MAX_DIM:
        raise DimensionTooLargeError(
            f"brute force supports n <= {BRUTE_FORCE_MAX_DIM}, got {n}")
    center = zf_decode(inst).estimate
    offsets = range(-BOX_RADIUS, BOX_RADIUS + 1)
    # product() yields ascending lexicographic order, so keeping the first
    # strict minimum also settles ties toward the smallest vector
    grids = np.array(list(product(offsets, repeat=n)), dtype=np.int64)
    candidates = grids + center[None, :]
    residuals = np.linalg.norm(inst.y_tilde[None, :] - candidates @ inst.r.T, axis=1)
    best = int(np.argmin(residuals))
    return _result(inst, candidates[best])
