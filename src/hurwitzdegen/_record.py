"""The immutable record base of the package's value classes.

A record is a ``__slots__`` class whose hand-written constructor sets each
field once through ``set_field``; afterwards assigning or deleting a field
raises ``AttributeError``, so a changed copy is a newly built record.  Its
repr is ``Name(field=value, ...)`` over ``_fields``, the slots unless the
class names fewer.  A class compares and hashes by those fields, and only
against its own class, unless it is declared with ``eq=False``, which keeps
identity or the class's own ``__eq__``.  A check that is patched on the class
by name (``Subgroup``, ``GenGraph``, ``GraphAction`` and ``Degeneration``:
the benchmark's tracer and the tests wrap it) stays a ``__post_init__``
method that the constructor calls through ``self``.

A slot filled on first use (a datum's canonical key, a class record's stored
centralizer) sits outside ``_fields``, so repr, equality and hash ignore it.
The constructor sets it to ``None``; the one function that fills it sets it
once, through ``set_field``, to a pure function of the fields, so every
reader sees the same value whichever call filled it.

Defining a record runs no generated code, unlike a dataclass, so importing
the package stays cheap; constructors are written out field by field, as a
generic loop over the fields would slow the records built per conjugate.
"""

from __future__ import annotations

from operator import attrgetter

set_field = object.__setattr__   # a constructor's one write of a field, past Record.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        if eq:
            cls._key = attrgetter(*cls._fields)   # not a descriptor: self._key(x) reads x
            cls.__eq__ = _eq
            cls.__hash__ = _hash

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _eq(self, other):
    if other.__class__ is self.__class__:
        return self._key(self) == self._key(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(self._key(self))
