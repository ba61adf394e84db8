"""Immutable value types without `dataclasses`, whose import costs more than ours."""


class Record:
    """Mixin for a namedtuple subclass whose `__new__` checks its values.

    `_make`, `_replace`, copy and pickle build through that `__new__`; a
    namedtuple's own `_make` and `_replace` skip it.  `_make` takes the
    constructor's arguments; `_derived` names fields the constructor computes.
    """

    __slots__ = ()
    _derived = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, **changes):
        return type(self)(**{**self._args(), **changes})

    def _args(self) -> dict:
        """The constructor arguments that rebuild this value, by name."""
        return {name: getattr(self, name) for name in self._fields if name not in self._derived}

    def __getnewargs__(self):
        return tuple(self._args().values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FrozenRecord(Record):
    """Immutable plain class with the fields `_fields`, which `__init__` sets
    through `_set`; eq, hash and repr go over them."""

    def _set(self, **fields):
        # As a frozen dataclass does: filling vars(self) instead slows every
        # later attribute read.
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._args() == other._args()
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self._args().values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self._args().items())
        return f"{type(self).__name__}({fields})"
