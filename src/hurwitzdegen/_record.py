"""The immutable record base of the package's value classes.

A record is a ``__slots__`` class whose constructor sets each field once
through ``set_field``; afterwards assigning or deleting a field raises
``AttributeError``, so a changed copy is a newly built record.  Its repr is
``Name(field=value, ...)`` over ``_fields``, the slots unless the class names
fewer.  A class compares and hashes by those fields, and only against its
own class, unless it is declared with ``eq=False``, which keeps identity or
the class's own ``__eq__``.  Defining a record runs no generated code,
unlike a dataclass, so importing the package stays cheap.

``Record.__init__`` sets every slot from values in slot order or by name,
raising ``TypeError`` on a missing, extra, unknown or repeated field (a call
that gives every field by position skips the name check), then calls
``self.__post_init__()``: a no-op here, or the check that
``GraphAction`` alone defines.  Every record keeps the hook, which the
benchmark's tracer and the tests patch on the class by name.  A
record writes its own constructor only to give defaults, run a check, build
its fields from other input (a tuple's points from its entries), or set a
slot filled on first use.  A slot that repr, equality and hash
should ignore sits outside ``_fields``: a class record's stored centralizer
pairs, which the base constructor sets with the other fields, and the one
slot filled on first use, a datum's canonical key.

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

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):  # not every field by position: check the names
            if len(args) > len(names) or kwargs.keys() != set(names[len(args):]):
                wrong = sorted(set(names[len(args):]).symmetric_difference(kwargs))
                raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got "
                                f"{len(args)} by position; missing, unknown or repeated: {wrong}")
            args += tuple(map(kwargs.__getitem__, names[len(args):]))
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
