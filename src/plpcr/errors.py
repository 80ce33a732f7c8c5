"""Exception hierarchy shared by all plpcr modules, and the one number rule.

Every number that enters the package, whether a time, a shape, a count, a
level or a seed, passes `check_real` or `check_whole` where it enters: a
plain ``int`` or ``float`` that is not a ``bool`` and lies inside the stated
bounds.  NaN and the infinities fail the bounds.  numpy's ``float64`` is a
``float`` and passes; other numpy scalars, ``Fraction`` and ``Decimal`` are
refused, as are strings and ``None``.  A collection of values (the causes of
a system, the counts of a `CauseStats`, the records of a history) passes
`check_sequence`: a list or a tuple.  Each entry names the error class its
module raises, so a bad value ends in a typed `PlpcrError`.
"""
from __future__ import annotations

import math
import sys


class PlpcrError(Exception):
    """Base class for every error raised by this package."""


class DomainError(PlpcrError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class NumericError(PlpcrError, ArithmeticError):
    """An iterative numerical routine failed to converge."""


class ValidationError(PlpcrError, ValueError):
    """Input data violates a structural constraint (bad row, bad ordering)."""


class EstimationError(PlpcrError, ValueError):
    """An estimator's existence condition is not met by the data."""


class ImproperPosteriorError(EstimationError):
    """A requested posterior is improper for the observed counts."""


class UnsupportedModelError(EstimationError):
    """The requested prior/model combination has no closed-form posterior."""


class DiagnosticError(PlpcrError, ValueError):
    """A diagnostic cannot be computed for the given history."""


class StudyError(PlpcrError, RuntimeError):
    """A replication study produced no usable replications."""


def check_real(value, name: str, error: type[Exception] = DomainError, *,
               low: float = 0.0, high: float = math.inf, closed: bool = False):
    """`value` if it is an int or float, not a bool, with low < value < high
    (low <= value when `closed`); otherwise raise `error` naming `name`."""
    # A bool is a number to Python but never a time, a shape or a level; an
    # int beyond the float range is refused with the infinities.
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and (low <= value if closed else low < value) and value < high
            and abs(value) <= sys.float_info.max):
        return value
    wanted = ("a positive real" if (low, high, closed) == (0.0, math.inf, False)
              else f"a real in {'[' if closed else '('}{low}, {high})")
    raise error(f"{name} must be {wanted}, got {value!r}")


def check_whole(value, name: str, error: type[Exception] = DomainError, *,
                low: int = 1, high: int | None = None):
    """`value` if it is an int, not a bool, with low <= value (<= high when
    given); otherwise raise `error` naming `name`."""
    if (isinstance(value, int) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high)):
        return value
    wanted = ("a positive integer" if (low, high) == (1, None)
              else f"an integer >= {low}" if high is None else f"an integer in {low}..{high}")
    raise error(f"{name} must be {wanted}, got {value!r}")


def check_sequence(value, name: str, error: type[Exception] = DomainError):
    """`value` if it is a list or a tuple; otherwise raise `error` naming `name`
    and the type (not the value, which may be large)."""
    if isinstance(value, (list, tuple)):
        return value
    raise error(f"{name} must be a sequence (a list or tuple), got {type(value).__name__}")
