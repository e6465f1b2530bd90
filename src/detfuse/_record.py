"""Base class of the package's immutable value records.

``Box``, ``Detection``, ``ClusterSummary`` and ``GroundTruthRecord`` are
built hundreds of thousands of times per pipeline. As ``__slots__``
classes they take about half the construction time and two thirds of the
memory of frozen dataclasses, and this base gives them the behaviour a
frozen dataclass with the same fields has on Python 3.11: field-tuple
``==`` and ``hash``, ``Name(field=value, ...)`` ``repr`` and
``FrozenInstanceError`` on assignment.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from operator import attrgetter


class Record:
    """Immutable record whose fields are its class's ``__slots__``, in order.

    A subclass declares two or more slots and an ``__init__`` that
    validates its arguments, then stores them through the slot
    descriptors' ``__set__`` (``Cls.field.__set__(self, value)``), because
    ``__setattr__`` refuses every assignment. Instances are equal when
    they have the same class and equal field tuples; pickling and copying
    rebuild them through the constructor, so a copy is validated too.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        # attrgetter of two or more names returns a tuple
        cls._astuple = attrgetter(*cls.__slots__)

    @classmethod
    def _format(cls, *values: object) -> str:
        """The repr an instance holding ``values`` has."""
        fields = ", ".join(f"{name}={v!r}" for name, v in zip(cls.__slots__, values))
        return f"{cls.__qualname__}({fields})"

    def __repr__(self) -> str:
        return self._format(*self._astuple(self))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return (self.__class__, self._astuple(self))
