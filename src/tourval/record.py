"""``Record``, the frozen base of tourval's value records: they compare, hash
and print by class and field values, as frozen dataclasses do, but no code is
generated for them when their modules are imported, and an array field
compares by shape and elements, so ``==`` always gives a bool."""

import numpy as np


class FrozenInstanceError(AttributeError):
    """Assigning to or deleting a record's field (not ``dataclasses``' error)."""


def _same(a, b) -> bool:
    if a is b:
        return True
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return bool(a == b)


class Record:
    """A record's fields are its ``__slots__``, in order; its ``__init__``
    checks the arguments and stores them with ``_set``."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def _arguments(self) -> dict:
        # the leading fields, which ``__init__`` takes back
        code = type(self).__init__.__code__
        return {name: getattr(self, name) for name in code.co_varnames[1:code.co_argcount]}

    def replace(self, **changes):
        """A copy with ``changes``, built, and so checked, again by ``__init__``."""
        return type(self)(**{**self._arguments(), **changes})

    def __reduce__(self):
        return type(self), tuple(self._arguments().values())

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(map(_same, self._values(), other._values()))

    def __hash__(self):
        return hash((type(self), self._values()))

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"
