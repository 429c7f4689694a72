"""Exception types shared across the package, and the two rules for a number
taken from outside it: a count goes through :func:`as_integer` and a real
through :func:`as_real`, once, in the type or function that stores it.
"""

import operator
from math import inf, nan
from numbers import Real


class PlbfError(Exception):
    """Base class for every error this package raises on purpose."""


class ValidationError(PlbfError, ValueError):
    """Invalid parameters, records, or file contents."""


class InfeasibleError(PlbfError):
    """The requested constraints admit no plan."""


def as_integer(name: str, value) -> int:
    """``value`` as an int (numpy integers pass, ``50.0`` and ``"50"`` do not)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


def as_real(value) -> float:
    """A real number as a float, +-inf beyond float's range; anything else NaN."""
    try:
        return float(value) if isinstance(value, Real) else nan
    except OverflowError:  # an int or fraction too large for a float
        return inf if value > 0 else -inf
