"""Named numeric tolerances and limits.

Every threshold used by the library lives here so tests and callers can
reference it by name instead of repeating magic numbers.
"""

# --- QR factorization contracts ---------------------------------------------
ORTHONORMALITY_TOL = 1e-10       # ||Q1^T Q1 - I||_F on a successful factorization
QR_RECONSTRUCTION_TOL = 1e-10    # ||Q1 R - A||_F / ||A||_F
RANK_TOL = 1e-12                 # pivot threshold, relative to largest column norm

# --- Triangular solves and diagonals ----------------------------------------
SOLVE_DIAG_MIN = 1e-14           # pivot floor, relative: applied to unit_scale(R)
UPPER_TRIANGULAR_TOL = 1e-10     # allowed below-diagonal magnitude, relative

# --- Reduction contracts -----------------------------------------------------
REDUCTION_RECONSTRUCTION_TOL = 1e-9  # ||Qbar^T R Z - Rbar|| / ||R||, Frobenius
DET_PRESERVATION_TOL = 1e-9          # relative |det| drift through a reduction
LLL_CHECK_SLACK = 1e-12              # boundary slack in reduced-form checks
ORDERING_TIE_TOL = 1e-12             # relative tie window in sqrd / vblast: a norm must
                                     # fall below best * (1 - tol) to win
DEFECT_INVARIANCE_TOL = 1e-9         # orthogonality-defect drift under permutations

# --- Probability estimators --------------------------------------------------
DIAGONAL_OFFDIAG_TOL = 1e-14     # off-diagonal magnitude tolerated by pzf_diagonal,
                                 # relative to the largest |r_ij|
ERF_ABS_ERROR = 1e-12            # absolute accuracy claimed for erf
QUADRATURE_TARGET = 1e-8         # absolute error pzf_quadrature converges to
QUADRATURE_NODES_PER_PANEL = 32  # Gauss-Legendre nodes per panel and direction
QUADRATURE_EVAL_CAP = 10_000_000  # hard cap on integrand evaluations
QUADRATURE_MAX_DIM = 4           # deterministic quadrature supports n <= 4

# --- Reduction loop defaults -------------------------------------------------
DEFAULT_DELTA = 0.75
MAX_ITERATIONS_PER_N2 = 10_000   # reduction-loop pass cap is this times n**2

# --- Reference worked examples ----------------------------------------------
REFERENCE_VALUE_TOL = 5e-4       # match window for 4-decimal reference values
