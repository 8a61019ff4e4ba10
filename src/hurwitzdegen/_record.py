"""The immutable record base of the package's value classes.

A record is a ``__slots__`` class whose constructor sets each field once,
past ``__setattr__``; afterwards assigning or deleting a field raises
``AttributeError``, so a changed copy is a newly built record.  Its repr is
``Name(field=value, ...)`` over ``_fields``, the slots unless the class names
fewer.  A class compares and hashes by those fields, and only against its
own class, unless it is declared with ``eq=False``, which keeps identity or
the class's own ``__eq__``.

A record that writes no constructor is given one when its class is
defined: ``__init__(*args)`` sets the slots from values in slot order, by
position only, raising ``TypeError`` that names the class and its fields
when their count is wrong, then calls ``self.__post_init__()``: a no-op
here, or the record's own invariant check, as on ``MarkedPoint`` and
``MarkedComponent``.  The hook is looked up on the instance, so the
benchmark's tracer and the tests can patch it on the class by name.  The
constructor is straight-line code, one call of a slot descriptor's
``__set__`` a slot, made by a factory that is compiled once per field count
and closes over the class's slot names and setters.  The package's 13
records without a constructor of their own have six field counts, so
importing the package runs six small ``exec`` calls, not 13: 1.0-1.8 ms of
a 30-48 ms ``import hurwitzdegen.cli`` on a 2-core x86 host.  A record
writes its own constructor only to build its fields from other input (a
tuple's points from its entries) or to set a slot filled on first use; the
two that do, ``BoundaryDatum`` and ``HurwitzTuple``, write their slots
through the same descriptor setters.  A slot that repr, equality and hash
should ignore sits outside ``_fields``: a class record's stored centralizer
pairs, which its constructor sets with the other fields, and the one slot
filled on first use, a datum's canonical key.

A datum's own constructor sets that key to ``None``; ``canonical_form``,
the one function that fills it, sets it once, through the slot's setter, to
a pure function of the fields, so every reader sees the same value whichever
call filled it.  It, and any record a group caches, holds ids or stored
elements, never the group: a group that its own cache pointed back to would
live on in a reference cycle until the cyclic garbage collector found it.

Records copy and pickle: their state, the slots, is restored through
``set_field``, which nothing else uses, so a datum's key travels with the
fields it is a function of.  A group pickles with its caches; a class
record sends its read-only conjugator map as a plain dict and wraps it
again on load.
"""

from __future__ import annotations

from functools import cache
from operator import attrgetter

set_field = object.__setattr__   # a restored slot's write, past Record.__setattr__


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
        if "__init__" not in cls.__dict__:
            names = cls.__slots__
            cls.__init__ = _factory(len(names))(names, *(getattr(cls, n).__set__ for n in names))
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"  # named in call errors

    def __post_init__(self):
        pass

    def __setstate__(self, state):
        """Restore a copied or unpickled record's slots, ``state[1]``, through
        ``set_field``: the default restore assigns them, which a record refuses."""
        for name, value in state[1].items():
            set_field(self, name, value)

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


_FACTORY = """\
def factory(names, {setters}):
    def __init__(self, *args):
        try:
            ({args}) = args
        except ValueError:
            raise _wrong_count(self, names, args) from None
{sets}        self.__post_init__()
    return __init__
"""


@cache
def _factory(n: int):
    """The constructor factory for records of ``n`` fields, compiled once.

    It takes the slot names and each slot descriptor's ``__set__``, which
    writes the slot past ``Record.__setattr__`` without the attribute lookup
    that ``set_field`` makes, and returns an ``__init__(self, *args)`` that
    calls them in straight-line code and then ``self.__post_init__()``."""
    namespace = {"__name__": __name__, "_wrong_count": _wrong_count}
    exec(_FACTORY.format(setters="".join(f"s{i}, " for i in range(n)),
                         args="".join(f"a{i}, " for i in range(n)),
                         sets="".join(f"        s{i}(self, a{i})\n" for i in range(n))), namespace)
    return namespace["factory"]


def _wrong_count(record, names, args) -> TypeError:
    return TypeError(f"{type(record).__name__} takes {len(names)} fields "
                     f"({', '.join(names)}), got {len(args)}")
