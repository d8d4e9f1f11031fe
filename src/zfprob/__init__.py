"""Lattice reductions, integer least-squares decoders, and estimators of
the zero-forcing decoder's success probability.

The library is organized around one pipeline: factorize a model matrix
(`qr_factorize`), optionally reduce its triangular factor (`lll_reduce`,
`sqrd`, `vblast`), decode an observation (`zf_decode`, `sic_decode`,
`ils_brute_force`), and measure how likely the rounding decoder is to
recover the truth (`pzf_diagonal`, `pzf_quadrature`, `pzf_monte_carlo`,
`pzf_empirical`).  All randomness flows through counter-based seeded
streams so every number is replayable.
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
from .linalg import (
    QRFactorization,
    back_substitute,
    det_upper_triangular,
    int_determinant,
    qr_factorize,
    round_nearest,
)
from .rng import (
    ALGORITHM_ID,
    RngSpec,
    derive_seed,
    gaussian_block,
    uniform_block,
)
from .reduction import (
    LLLCheckReport,
    LLLParams,
    ReductionResult,
    ReductionStats,
    is_lll_reduced,
    lll_reduce,
    lovasz_holds,
    orthogonality_defect,
    size_reduce_entry,
    sqrd,
    swap_and_retriangularize,
    vblast,
)
from .decode import (
    DecodeResult,
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
    "ALGORITHM_ID",
    "DecodeResult",
    "DimensionMismatchError",
    "DimensionTooLargeError",
    "ILSInstance",
    "InvalidGridError",
    "IterationLimitExceededError",
    "LLLCheckReport",
    "LLLParams",
    "LatticeError",
    "NoConvergenceError",
    "NotDiagonalError",
    "NotUnimodularError",
    "ParseError",
    "ProbabilityEstimate",
    "QRFactorization",
    "RankDeficientError",
    "ReductionResult",
    "ReductionStats",
    "RngSpec",
    "SingularDiagonalError",
    "SingularMatrixError",
    "back_substitute",
    "derive_seed",
    "det_upper_triangular",
    "erf",
    "gaussian_block",
    "ils_brute_force",
    "int_determinant",
    "is_lll_reduced",
    "lift_estimate",
    "lll_reduce",
    "lovasz_holds",
    "orthogonality_defect",
    "pzf_diagonal",
    "pzf_empirical",
    "pzf_monte_carlo",
    "pzf_quadrature",
    "qr_factorize",
    "round_nearest",
    "sic_decode",
    "size_reduce_entry",
    "sqrd",
    "swap_and_retriangularize",
    "uniform_block",
    "vblast",
    "zf_decode",
]
