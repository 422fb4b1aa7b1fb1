"""Semantic exceptions shared across the toolkit, and the scalar input checks.

Each check is written as ``not <comparison>``, so NaN fails every one, and
each message names the value it got.
"""

import math
import numbers


class DimensionError(ValueError):
    """Operands live on alphabets of incompatible sizes."""


class DomainError(ValueError):
    """A numeric argument is outside its admissible range."""


class CapacityError(ValueError):
    """A product construction would exceed the configured state cap."""


def at_least(name: str, value, lo) -> None:
    if not value >= lo:
        raise DomainError(f"{name} must be >= {lo}, got {value}")


def in_unit_interval(name: str, value) -> None:
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} must be in [0, 1], got {value}")


def finite_above(name: str, value, lo) -> None:
    if not value > lo:
        raise DomainError(f"{name} must be > {lo}, got {value}")
    if value == math.inf:
        raise DomainError(f"{name} must be finite, got inf")


def integer(name: str, value) -> int:
    """``value`` as a plain int, for a count that must be an integer: an int
    or any type registered as ``numbers.Integral``, which numpy's integer
    types are. A float (NaN too) or a bool is refused. Callers store the
    returned int, so a numpy-integer count does its arithmetic as the equal
    int and cannot wrap around in a fixed-width dtype."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)):
        raise DomainError(f"{name} must be an integer, got {value}")
    return int(value)
