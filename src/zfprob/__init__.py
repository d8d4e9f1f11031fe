"""Lattice reductions, integer least-squares decoders, and estimators of
the zero-forcing decoder's success probability.

The library is organized around one pipeline: factorize a model matrix
(`qr_factorize`), optionally reduce its triangular factor (`lll_reduce`,
`sqrd`, `vblast`), decode an observation (`zf_decode`, `sic_decode`,
`ils_brute_force`), and measure how likely the rounding decoder is to
recover the truth (`pzf_diagonal`, `pzf_quadrature`, `pzf_monte_carlo`,
`pzf_empirical`).  All randomness flows through counter-based seeded
streams so every number is replayable.  The layer primitives (rounding,
the int64 boundary, the RNG blocks, the reduction steps) are imported from
their own modules.
"""

from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    InvalidGridError,
    IterationLimitExceededError,
    LatticeError,
    NoConvergenceError,
    NotDiagonalError,
    NotUnimodularError,
    ParseError,
    RankDeficientError,
    SingularDiagonalError,
    SingularMatrixError,
)
from .linalg import int_determinant, qr_factorize
from .rng import RngSpec
from .reduction import (
    LLLParams,
    ReductionResult,
    is_lll_reduced,
    lll_reduce,
    orthogonality_defect,
    size_reduce_entry,
    sqrd,
    vblast,
)
from .decode import (
    ILSInstance,
    ils_brute_force,
    lift_estimate,
    sic_decode,
    zf_decode,
)
from .probability import (
    ProbabilityEstimate,
    erf,
    pzf_diagonal,
    pzf_empirical,
    pzf_monte_carlo,
    pzf_quadrature,
)
__version__ = "0.1.0"

__all__ = [
    "DimensionMismatchError",
    "DimensionTooLargeError",
    "ILSInstance",
    "InvalidGridError",
    "IterationLimitExceededError",
    "LLLParams",
    "LatticeError",
    "NoConvergenceError",
    "NotDiagonalError",
    "NotUnimodularError",
    "ParseError",
    "ProbabilityEstimate",
    "RankDeficientError",
    "ReductionResult",
    "RngSpec",
    "SingularDiagonalError",
    "SingularMatrixError",
    "erf",
    "ils_brute_force",
    "int_determinant",
    "is_lll_reduced",
    "lift_estimate",
    "lll_reduce",
    "orthogonality_defect",
    "pzf_diagonal",
    "pzf_empirical",
    "pzf_monte_carlo",
    "pzf_quadrature",
    "qr_factorize",
    "sic_decode",
    "size_reduce_entry",
    "sqrd",
    "vblast",
    "zf_decode",
]
