"""Semantic exceptions shared across the toolkit, and the scalar input checks.

Each check is written as ``not <comparison>``, so NaN fails every one, and
each message names the value it got. Counts and indexes come back as ints.
Every size cap is one ``within_cap`` call, with one message form.
"""

import math
import numbers


class DimensionError(ValueError):
    """Operands live on alphabets of incompatible sizes."""


class DomainError(ValueError):
    """A numeric argument is outside its admissible range."""


class CapacityError(ValueError):
    """A size would exceed its cap: a grid, a mesh, a model, a sample or a product."""


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


def within_cap(name: str, size, cap) -> None:
    if not size <= cap:
        raise CapacityError(f"{name} = {size} is over the cap {cap}")


def _is_int(value) -> bool:
    # a plain int first, as the ABC check that admits numpy integers is slow
    return type(value) is int or (isinstance(value, numbers.Integral) and type(value) is not bool)


def count(name: str, value, lo: int) -> int:
    """``value`` as a plain int, for a count of at least ``lo``: the range is
    checked first, then a float or a bool is refused. A numpy integer passes
    and the caller stores the int, so its arithmetic cannot wrap around."""
    at_least(name, value, lo)
    if not _is_int(value):
        raise DomainError(f"{name} must be an integer, got {value}")
    return int(value)


def in_alphabet(what: str, value, size: int) -> int:
    """``value`` as a plain int, for a symbol index: an integer in [0, size)."""
    if not (_is_int(value) and 0 <= value < size):
        raise DomainError(f"{what} {value} outside alphabet of size {size}")
    return int(value)
