"""Pickling and copying of the frozen slotted records through their validating ``__init__``."""

from __future__ import annotations


class Record:
    __slots__ = ()

    def __reduce__(self) -> tuple:
        # the frozen dataclass default would restore slots through the
        # __setattr__ that refuses assignment
        return (self.__class__, tuple(getattr(self, name) for name in self.__slots__))
