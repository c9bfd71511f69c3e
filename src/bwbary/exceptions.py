"""Exception hierarchy.

Validation errors (bad inputs, malformed files) map to CLI exit code 1,
numerical errors (non-convergence, degenerate covariances) to exit code 2.
The scalar, object and size rules for arguments live here, below every
other module.
"""

import math
import numbers
import os

import numpy as np


class BwError(Exception):
    """Base class for all library errors."""


class ValidationError(BwError):
    """Invalid input: wrong shapes, broken invariants, malformed files."""


class NotHermitianError(ValidationError):
    """Matrix asymmetry exceeds the Hermitian tolerance."""


class NotPsdError(ValidationError):
    """An eigenvalue lies below the PSD tolerance."""


class SingularMatrixError(ValidationError):
    """A strictly positive matrix was required but the input is singular."""


class DimensionMismatchError(ValidationError):
    """Operands have incompatible dimensions or modes."""


class ParseError(ValidationError):
    """Malformed bundle or config file, located as "path:line: " in the message."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc += str(path)
        if line is not None:
            loc += f":{line}"
        super().__init__(f"{loc}: {message}" if loc else message)


class DegenerateInputError(ValidationError):
    """Every sample is singular; the barycenter problem is ill-posed."""


class NumericalError(BwError):
    """A numerical procedure failed."""


def _is_number(value, kind=numbers.Real) -> bool:
    """isinstance(value, kind), with bool (JSON's true and false) excluded."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_count(name: str, value, low: int = 1) -> None:
    if not _is_number(value, numbers.Integral) or value < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")


def _as_float(name: str, value, positive: bool = False) -> float:
    """float(value) for a finite real number, and > 0 with positive=True; any
    other value, an integer beyond the float range (where float() raises
    OverflowError) included, is a ValidationError."""
    if not _is_number(value):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise ValidationError(f"{name} is beyond the float range") from None
    if not math.isfinite(x) or (positive and x <= 0):
        rule = "positive and finite" if positive else "finite"
        raise ValidationError(f"{name} must be {rule}, got {value!r}")
    return x


def _instance(name: str, value, cls):
    """value, an object argument read by its attributes, if it is a cls."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ValidationError(
            f"{name} must be {article} {cls.__name__}, got {type(value).__name__}")
    return value


try:  # the ceiling on one requested array
    MEMORY_BYTES = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
except (AttributeError, ValueError, OSError):  # no sysconf here: no ceiling
    MEMORY_BYTES = math.inf


def _check_size(what: str, entries: int, itemsize: int = 8) -> None:
    """Refuse, before it is allocated, an array of `entries` items of `itemsize`
    bytes that needs more than the physical memory, MEMORY_BYTES."""
    nbytes = entries * itemsize
    if nbytes > MEMORY_BYTES:
        e = int(math.log10(nbytes))
        raise ValidationError(f"{what} would need {nbytes / 10 ** e:.2f}e{e:+d} bytes, more "
                              f"than the {MEMORY_BYTES} bytes of physical memory")


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
