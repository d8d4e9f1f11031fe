"""Integer estimators for the triangular model y_tilde = R x + noise.

Three decoders: rounding of the unconstrained solution (ZF), last-to-first
decision feedback (SIC), and exhaustive search over a box (the optimality
oracle for small n).  Estimates live in whatever coordinates R uses; going
back through a reduction's Z is lift_estimate's job.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    NotUnimodularError,
    SingularDiagonalError,
)
from .linalg import (
    _as_vector,
    back_substitute,
    check_sigma,
    int_determinant,
    integer_entries,
    positive_triangular,
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


@dataclass(frozen=True)
class ILSInstance:
    """One decoding problem: triangular matrix, observation, noise level."""

    r: np.ndarray
    y_tilde: np.ndarray
    sigma: float

    def __post_init__(self):
        r, signs = positive_triangular(self.r)
        y = _as_vector(self.y_tilde, r.shape[0], "observation")
        # flipping a row of R would flip the matching entry of y_tilde too
        if np.any(signs < 0.0):
            raise SingularDiagonalError(
                "R must have a positive diagonal; renormalize signs first")
        check_sigma(self.sigma)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "y_tilde", y)

    @property
    def n(self) -> int:
        return self.r.shape[0]


@dataclass(frozen=True)
class DecodeResult:
    estimate: np.ndarray
    residual: float


def _result(inst: ILSInstance, estimate: np.ndarray) -> DecodeResult:
    estimate = np.asarray(estimate, dtype=np.int64)
    residual = float(np.linalg.norm(inst.y_tilde - inst.r @ estimate))
    return DecodeResult(estimate=estimate, residual=residual)


def zf_decode(inst: ILSInstance) -> DecodeResult:
    """Round each coordinate of the unconstrained solution R^{-1} y_tilde."""
    real_solution = back_substitute(inst.r, inst.y_tilde)
    return _result(inst, round_nearest(real_solution))


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

    Exact integer arithmetic; Z must be unimodular and the estimate must
    hold whole numbers.
    """
    z = np.asarray(z)
    det = int_determinant(z)
    if det not in (-1, 1):
        raise NotUnimodularError(f"det Z = {det}, expected +-1")
    zi = np.asarray(np.round(np.asarray(z, dtype=float)), dtype=np.int64)
    est = np.asarray(estimate_in_reduced)
    if est.shape != (z.shape[0],):
        raise DimensionMismatchError(
            f"estimate has shape {est.shape}, expected ({z.shape[0]},)")
    return zi @ integer_entries(est).astype(np.int64)


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
