"""Immutable value types without `dataclasses`, whose import costs more than ours."""

import math
from itertools import repeat


class Record:
    """Mixin for a namedtuple subclass whose `__new__` checks its values.

    That `__new__` builds the tuple with `tuple.__new__(cls, values)`,
    which skips the namedtuple's generated one.  Every build path runs
    it: `_make` here calls the class, the namedtuple's own `_replace`
    builds through `_make`, and copy and pickle rebuild through
    `__new__` from the fields.  A subclass that declares no `__slots__`
    keeps an instance dict for `cached_property` values; assigning any
    attribute still raises.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}")


def as_record(cls, value):
    """`value` if it is already a `cls`, else `cls(*value)`, which runs its checks."""
    return value if isinstance(value, cls) else cls(*value)


def as_records(cls, values) -> tuple:
    """`values` as a tuple of `cls`, built only if some member is not one (a C-speed test)."""
    values = tuple(values)
    if all(map(isinstance, values, repeat(cls))):
        return values
    return tuple(as_record(cls, value) for value in values)


def check_finite(error, name: str, value) -> None:
    """Raise `error` unless `value` is finite; an int past the float range is not."""
    try:
        if math.isfinite(value):
            return
    except OverflowError:
        raise error(f"{name} must be finite, got an int past the float range") from None
    raise error(f"{name} must be finite, got {value}")
