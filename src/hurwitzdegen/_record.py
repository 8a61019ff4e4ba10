"""The immutable record base of the package's value classes.

A record is a ``__slots__`` class whose constructor sets each field once
through ``set_field``; afterwards assigning or deleting a field raises
``AttributeError``, so a changed copy is a newly built record.  Its repr is
``Name(field=value, ...)`` over ``_fields``, the slots unless the class names
fewer.  A class compares and hashes by those fields, and only against its
own class, unless it is declared with ``eq=False``, which keeps identity or
the class's own ``__eq__``.  Defining a record runs no generated code,
unlike a dataclass, so importing the package stays cheap.

``Record.__init__(*args)`` sets the slots from values in slot order, the one
way to build a record, raising ``TypeError`` that names the class and its
fields when their count is wrong, then calls ``self.__post_init__()``: a
no-op here, or the record's own invariant check, as on ``MarkedPoint`` and
``MarkedComponent``.  Every record keeps the hook, which the benchmark's
tracer and the tests patch on the class by name.  A record
writes its own constructor only to build its fields from other input (a
tuple's points from its entries) or to set a slot filled on first use.  A
slot that repr, equality and hash should ignore sits outside ``_fields``: a
class record's stored centralizer pairs, which the base constructor sets
with the other fields, and the one slot filled on first use, a datum's
canonical key.

A datum's own constructor sets that key to ``None``; ``canonical_form``,
the one function that fills it, sets it once, through ``set_field``, to a
pure function of the fields, so every reader sees the same value whichever
call filled it.  It, and any record a group caches, holds ids or stored
elements, never the group: a group that its own cache pointed back to would
live on in a reference cycle until the cyclic garbage collector found it.
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

    def __init__(self, *args):
        names = self.__slots__
        if len(args) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields "
                            f"({', '.join(names)}), got {len(args)}")
        for name, value in zip(names, args):
            set_field(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

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
