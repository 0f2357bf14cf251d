"""Exception types shared across the package, and the integer check that raises them."""

import numbers


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
    """A Matrix Market field, or an array dtype, outside the supported real subset."""


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


def check_count(name, value, low, error=ValueError):
    """``value`` if it is an integer (numpy's too) of at least ``low``; else
    ``error`` naming ``name``. A float such as 2.0 or NaN fails, as does a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if not value >= low:
        raise error(f"{name} must be >= {low}, got {value}")
    return value
