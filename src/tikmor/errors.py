"""Exception types shared across the package."""


class TikmorError(Exception):
    """Base class for all package errors."""


class DimensionError(TikmorError):
    """Operand dimensions are incompatible."""


class MatrixMarketError(TikmorError):
    """Matrix Market file could not be parsed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnsupportedFormatError(MatrixMarketError):
    """Matrix Market field/format outside the supported real subset."""


class ConvergenceFailure(TikmorError):
    """A solve cannot start or reach its tolerance, e.g. A or b is not finite
    or its Tikhonov start system is not numerically positive definite."""


class DegenerateRhsError(TikmorError):
    """Right-hand side is zero where a nonzero vector is required."""


class InfeasibleDiscrepancyError(TikmorError):
    """No positive regularization parameter can match the requested discrepancy."""


class SingularJacobianError(TikmorError):
    """Newton system is numerically singular (safeguards should prevent this)."""


class ZeroSumError(TikmorError):
    """A row or column sum needed for scaling is zero."""

    def __init__(self, kind, index):
        super().__init__(f"zero {kind} sum at index {index}")
        self.kind = kind
        self.index = index
