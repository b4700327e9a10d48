"""The base of the package's plain records.

A record is a class with ``__slots__`` and a hand-written ``__init__``.
This base gives it, without generating or exec-ing code, what a
dataclass would: equality with records of the same class only, over the
compared fields; for a frozen record the hash of the tuple of those
fields, for a mutable one no hash; a repr over the compared fields; and
``_fields`` and ``_replace``.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Tuple


class Record:
    """Subclass as ``class R(Record, frozen=..., hidden=(...))``.

    The fields are the class's ``__slots__``, or its ``_fields`` where it
    declares slots beyond them (a cache, ``__weakref__``).  Each field is
    an ``__init__`` parameter of the same name.  ``hidden`` fields take no
    part in equality, hash or repr.  A frozen record is not guarded
    against assignment; it is hashed, so nothing assigns to it after
    ``__init__``.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = False, hidden: Tuple[str, ...] = ()):
        super().__init_subclass__()
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        compared = tuple(f for f in cls._fields if f not in hidden)
        get = attrgetter(*compared)
        key = get if len(compared) > 1 else lambda self: (get(self),)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __repr__(self):
            return f"{self.__class__.__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in compared)})"

        cls.__eq__ = __eq__
        cls.__hash__ = (lambda self: hash(key(self))) if frozen else None
        if "__repr__" not in cls.__dict__:
            cls.__repr__ = __repr__

    def _replace(self, **changes: Any):
        """A new record with the given fields changed and the rest kept."""
        return self.__class__(**{**{f: getattr(self, f) for f in self._fields}, **changes})
