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
from .linalg import back_substitute, int_determinant, positive_triangular, round_nearest

__all__ = [
    "ILSInstance",
    "DecodeResult",
    "zf_decode",
    "sic_decode",
    "lift_estimate",
    "ils_brute_force",
    "BRUTE_FORCE_MAX_DIM",
    "DEFAULT_BOX_RADIUS",
]

BRUTE_FORCE_MAX_DIM = 6
DEFAULT_BOX_RADIUS = 3


@dataclass(frozen=True)
class ILSInstance:
    """One decoding problem: triangular matrix, observation, noise level.

    x_true is optional ground truth for success counting.
    """

    r: np.ndarray
    y_tilde: np.ndarray
    sigma: float
    x_true: np.ndarray | None = None

    def __post_init__(self):
        r, signs = positive_triangular(self.r)
        n = r.shape[0]
        y = np.asarray(self.y_tilde, dtype=float)
        if y.shape != (n,):
            raise DimensionMismatchError(
                f"observation has shape {y.shape}, expected ({n},)")
        if not np.all(np.isfinite(y)):
            raise DimensionMismatchError("observation contains non-finite entries")
        # flipping a row of R would flip the matching entry of y_tilde too
        if np.any(signs < 0.0):
            raise SingularDiagonalError(
                "R must have a positive diagonal; renormalize signs first")
        if not (self.sigma > 0):
            raise ValueError(f"sigma must be positive, got {self.sigma!r}")
        x = self.x_true
        if x is not None:
            x = np.asarray(x)
            if x.shape != (n,):
                raise DimensionMismatchError(
                    f"x_true has shape {x.shape}, expected ({n},)")
            x = np.asarray(np.round(np.asarray(x, dtype=float)), dtype=np.int64)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "y_tilde", y)
        object.__setattr__(self, "x_true", x)

    @property
    def n(self) -> int:
        return self.r.shape[0]


@dataclass(frozen=True)
class DecodeResult:
    estimate: np.ndarray
    residual: float
    decoder: str


def _result(inst: ILSInstance, estimate: np.ndarray, decoder: str) -> DecodeResult:
    estimate = np.asarray(estimate, dtype=np.int64)
    residual = float(np.linalg.norm(inst.y_tilde - inst.r @ estimate))
    return DecodeResult(estimate=estimate, residual=residual, decoder=decoder)


def zf_decode(inst: ILSInstance) -> DecodeResult:
    """Round each coordinate of the unconstrained solution R^{-1} y_tilde."""
    real_solution = back_substitute(inst.r, inst.y_tilde)
    return _result(inst, round_nearest(real_solution), "ZF")


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
    return _result(inst, x, "SIC")


def lift_estimate(z, estimate_in_reduced) -> np.ndarray:
    """Map an estimate through the reduction transform: returns Z times it.

    Exact integer arithmetic; Z must be unimodular.
    """
    z = np.asarray(z)
    if z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise DimensionMismatchError(f"Z must be square, got shape {z.shape}")
    det = int_determinant(z)
    if det not in (-1, 1):
        raise NotUnimodularError(f"det Z = {det}, expected +-1")
    zi = np.asarray(np.round(np.asarray(z, dtype=float)), dtype=np.int64)
    est = np.asarray(estimate_in_reduced)
    if est.shape != (z.shape[0],):
        raise DimensionMismatchError(
            f"estimate has shape {est.shape}, expected ({z.shape[0]},)")
    est = np.asarray(np.round(np.asarray(est, dtype=float)), dtype=np.int64)
    return zi @ est


def ils_brute_force(inst: ILSInstance, box_radius: int = DEFAULT_BOX_RADIUS) -> DecodeResult:
    """Enumerate the integer box of half-width box_radius around the ZF
    estimate and return the residual minimizer; ties go to the
    lexicographically smallest vector.

    Only an oracle for small problems: n above BRUTE_FORCE_MAX_DIM raises.
    """
    n = inst.n
    if n > BRUTE_FORCE_MAX_DIM:
        raise DimensionTooLargeError(
            f"brute force supports n <= {BRUTE_FORCE_MAX_DIM}, got {n}")
    if box_radius < 1:
        raise ValueError("box_radius must be a positive integer")
    center = zf_decode(inst).estimate
    offsets = range(-box_radius, box_radius + 1)
    # product() yields ascending lexicographic order, so keeping the first
    # strict minimum also settles ties toward the smallest vector
    grids = np.array(list(product(offsets, repeat=n)), dtype=np.int64)
    candidates = grids + center[None, :]
    residuals = np.linalg.norm(inst.y_tilde[None, :] - candidates @ inst.r.T, axis=1)
    best = int(np.argmin(residuals))
    return _result(inst, candidates[best], "BruteForce")
