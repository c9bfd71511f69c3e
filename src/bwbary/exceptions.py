"""Exception hierarchy.

Validation errors (bad inputs, malformed files) map to CLI exit code 1,
numerical errors (non-convergence, degenerate covariances) to exit code 2.
"""

import numpy as np


class BwError(Exception):
    """Base class for all library errors."""


class ValidationError(BwError):
    """Invalid input: wrong shapes, broken invariants, malformed files.

    A check over a stack of samples names the first failing one by its
    position `index`; `reason` is the message without that location.
    """

    def __init__(self, reason, index=None):
        super().__init__(reason if index is None else f"sample {index}: {reason}")
        self.reason = reason
        self.index = index


class NotHermitianError(ValidationError):
    """Matrix asymmetry exceeds the Hermitian tolerance."""


class NotPsdError(ValidationError):
    """An eigenvalue lies below the PSD tolerance."""


class SingularMatrixError(ValidationError):
    """A strictly positive matrix was required but the input is singular."""


class DimensionMismatchError(ValidationError):
    """Operands have incompatible dimensions or modes."""


class ParseError(ValidationError):
    """Malformed bundle or config file."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc += str(path)
        if line is not None:
            loc += f":{line}"
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path = path
        self.line = line


class DegenerateInputError(ValidationError):
    """Every sample is singular; the barycenter problem is ill-posed."""


class NumericalError(BwError):
    """A numerical procedure failed."""


def _finite(value, what: str):
    """value, a float or an array computed from finite inputs with overflow
    left silent; an inf in it means it overflowed."""
    if not np.isfinite(value).all():
        raise NumericalError(f"{what} overflows the float range")
    return value


class ConvergenceError(NumericalError):
    """Iteration budget exhausted before reaching the residual tolerance."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class PositivityLossError(NumericalError):
    """Step halving could not restore strict positivity of the iterate."""


class DegenerateCovarianceError(NumericalError):
    """A covariance operator is singular where an inverse is required."""


class ExperimentFailureError(NumericalError):
    """Too many replicate-level failures in a simulation run."""
