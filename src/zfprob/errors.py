"""Exception types raised across the package."""


class LatticeError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(LatticeError):
    """Inputs have incompatible shapes."""


class RankDeficientError(LatticeError):
    """A matrix that must have full column rank does not."""


class SingularMatrixError(LatticeError):
    """A matrix that must be invertible is singular to working precision."""


class SingularDiagonalError(SingularMatrixError):
    """A triangular matrix has a diagonal entry too close to zero."""


class IterationLimitExceededError(LatticeError):
    """An iterative procedure hit its iteration cap before finishing."""


class NotUnimodularError(LatticeError):
    """An integer matrix expected to have determinant +-1 does not."""


class NotDiagonalError(LatticeError):
    """A matrix required to be diagonal has significant off-diagonal mass."""


class DimensionTooLargeError(LatticeError):
    """The requested problem size exceeds what the routine supports."""


class NoConvergenceError(LatticeError):
    """A numerical estimate failed to reach the requested accuracy."""


class InvalidGridError(LatticeError):
    """A parameter grid is empty, unsorted, or out of range, or a run
    parameter (delta, a dimension, a worker count) is out of range."""


class ParseError(LatticeError):
    """A text input (CSV matrix or vector) could not be parsed.

    Carries the 1-based line number, and column when known, so command
    line tools can point at the offending spot.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
