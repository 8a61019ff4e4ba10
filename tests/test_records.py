"""The package's record classes: immutable, with value or identity equality,
a ``Name(field=value, ...)`` repr, fields given by position, and the
``__post_init__`` hook that holds a record's own checks and that every record
keeps for the benchmark's tracer to patch on the class."""

from __future__ import annotations

import copy
import importlib
import json
import pickle
import pkgutil
import re
from types import MappingProxyType

import pytest

import hurwitzdegen
from hurwitzdegen import (BoundaryDatum, ClassRecord, CosetTable, CoverCurve,
                          Degeneration, DevissageReport, GenGraph, GraphAction, HurwitzTuple,
                          MarkedComponent, MarkedPoint, PermGroup, Subgroup, Violation,
                          canonical_form, datum_from_jsonable, datum_to_jsonable, degen,
                          tuple_from_jsonable, tuple_to_jsonable, validate)
from hurwitzdegen._record import Record
from hurwitzdegen.audit import AuditCheck
from hurwitzdegen.boundary import DualGraphOfGroups

from conftest import a5_smoothed_tuple

VALUE, IDENTITY = "value", "identity"


def stable_datum(G) -> BoundaryDatum:
    return HurwitzTuple(G, (0, 0, 0))


def trivial_action(G) -> GraphAction:
    return GraphAction(GenGraph(1, (), ()), G, ((0,),) * G.order, ((),) * G.order)


# (class, equality, builder): each call builds a new record from equal fields
RECORDS = [
    (MarkedPoint, VALUE, lambda G: MarkedPoint.dihedral(1, 2)),
    (MarkedComponent, VALUE, lambda G: MarkedComponent(0, (), (MarkedPoint.cyclic(1),))),
    (Violation, VALUE, lambda G: Violation("NodePairing", "node 0", "unpaired")),
    (BoundaryDatum, IDENTITY, lambda G: BoundaryDatum(G, ())),
    (HurwitzTuple, IDENTITY, lambda G: HurwitzTuple(G, (1, G.inv(1)))),
    (DualGraphOfGroups, VALUE, lambda G: DualGraphOfGroups(
        None, GenGraph(1, (), ()), (G.full_subgroup(),), (), (), (0,), (G.full_subgroup(),), True)),
    (CoverCurve, VALUE, lambda G: CoverCurve(None, (0,), (0,), (), (), (), GenGraph(1, (), ()))),
    (Subgroup, VALUE, lambda G: Subgroup((0, 1))),
    (ClassRecord, IDENTITY, lambda G: ClassRecord(0, {0: 0}, ())),
    (CosetTable, VALUE, lambda G: CosetTable(((0, 1),), (0, 0))),
    (GenGraph, VALUE, lambda G: GenGraph.from_unoriented(2, [(0, 1)], self_opposite=[1])),
    (GraphAction, VALUE, trivial_action),
    (Degeneration, IDENTITY, lambda G: Degeneration("split", stable_datum(G), 0, 2)),
    (DevissageReport, IDENTITY, lambda G: DevissageReport((2, 0, -1), (2, 0, 2), (0, 0, 1), None)),
    (AuditCheck, VALUE, lambda G: AuditCheck("name", "PASS", "detail")),
]


def package_records() -> set[type]:
    """Every ``Record`` subclass defined in the package, after importing each
    of its modules (``__main__`` aside, which runs the CLI)."""
    for info in pkgutil.iter_modules(hurwitzdegen.__path__):
        if info.name != "__main__":
            importlib.import_module(f"hurwitzdegen.{info.name}")
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("hurwitzdegen.") and sub not in found:
                found.add(sub)
                todo.append(sub)
    return found


def test_the_table_covers_every_record():
    table = [cls for cls, _, _ in RECORDS]
    assert len(set(table)) == len(table)
    assert set(table) == package_records()


def base_built(cls: type) -> bool:
    """Whether ``cls`` takes the constructor ``Record`` compiles for its field count."""
    return cls.__init__.__module__ == Record.__module__


# the records that take the base constructor: all but a datum, with its
# cache slot, and a tuple, whose points are built from its entries
BASE_BUILT = [row for row in RECORDS if base_built(row[0])]


def test_plain_records_take_the_base_constructor():
    own = {cls.__name__ for cls, _, _ in RECORDS if not base_built(cls)}
    assert own == {"BoundaryDatum", "HurwitzTuple"}
    assert len(BASE_BUILT) == 13


@pytest.mark.parametrize("cls,equality,build", BASE_BUILT,
                         ids=[c.__name__ for c, _, _ in BASE_BUILT])
def test_base_constructor_by_position_or_name(cls, equality, build, s3):
    """Fields go by position; a call by name, or with a wrong field count,
    raises ``TypeError`` naming the class, the latter also its fields."""
    record = build(s3)
    names = cls.__slots__
    values = [getattr(record, name) for name in names]
    built = cls(*values)
    same = repr if equality == IDENTITY else (lambda r: r)   # identity records compare by repr
    assert same(built) == same(record)
    assert all(getattr(built, name) is value for name, value in zip(names, values))
    fields = re.escape(f"{cls.__name__} takes {len(names)} fields ({', '.join(names)})")
    for call in (lambda: cls(*values[:-1]), lambda: cls(*values, values[0])):
        with pytest.raises(TypeError, match=fields):
            call()
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__init__\(\) got an unexpected keyword"):
        cls(*values[:-1], **{names[-1]: values[-1]})


@pytest.mark.parametrize("cls,equality,build", RECORDS, ids=[c.__name__ for c, _, _ in RECORDS])
def test_record_semantics(cls, equality, build, s3):
    a, b = build(s3), build(s3)
    assert type(a) is cls
    for name in dict.fromkeys((*cls._fields, *cls.__slots__)):   # a subclass may add no slot
        value = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is value
    with pytest.raises(AttributeError):
        a.unknown_field = 0
    assert a == a
    if equality == VALUE:
        assert a == b and hash(a) == hash(b)
    else:
        assert a != b and len({a, b}) == 2
    text = repr(a)
    assert text.startswith(f"{cls.__name__}(") and text.endswith(")")


def test_repr_names_every_field_in_order():
    assert repr(MarkedPoint.dihedral(1, 2)) == \
        "MarkedPoint(kind='dihedral', m=1, s=2, node_id=None)"
    assert repr(CosetTable(((0,),), (0,))) == "CosetTable(cells=((0,),), index_of=(0,))"


def test_value_records_differ_when_a_field_does():
    assert MarkedPoint.cyclic(1) != MarkedPoint.cyclic(2)
    assert Violation("a", "b", "c") != AuditCheck("a", "b", "c")   # another class never equals


def test_cache_slots_stay_out_of_repr_and_equality(s3):
    G = PermGroup(s3.generators, degree=s3.degree)  # fresh: no record is cached
    datum = HurwitzTuple(G, (1, 2, G.inv(G.mul(1, 2))))
    before = (repr(datum), hash(datum))
    assert datum._canonical is None
    canonical_form(datum)   # fills the datum's key
    assert datum._canonical is not None
    assert (repr(datum), hash(datum)) == before and "_canonical" not in before[0]
    assert datum == datum and datum != BoundaryDatum(G, datum.components)
    # a class record is built whole; its stored pairs are a field that repr leaves out
    rec = G.class_record(1)
    assert rec.pairs and "pairs" not in repr(rec)
    assert rec == rec and rec != ClassRecord(rec.rep, rec.conjugators, rec.pairs)


@pytest.mark.parametrize("build,error", [
    (lambda G: MarkedPoint("bogus", 0, None, None), ValueError),
    (lambda G: MarkedPoint("cyclic", 0, 1, None), ValueError),
    (lambda G: MarkedPoint("cyclic", 0, None, 0), ValueError),
    (lambda G: MarkedComponent(-1, (), ()), ValueError),
    (lambda G: MarkedComponent(1, (), ()), ValueError),
], ids=["point-kind", "point-s", "point-node", "genus", "handles"])
def test_constructor_checks_still_raise(build, error, s3):
    with pytest.raises(error):
        build(s3)


def test_tuple_constructor_trusts_its_entries(s3):
    # a product other than e is the component's surface relation, which
    # validate reports; the loader rejects such entries on input
    t = HurwitzTuple(s3, (1,))
    assert t.entries == (1,)
    assert [(v.kind, v.location) for v in validate(t)] == [("SurfaceRelation", "component 0")]


@pytest.mark.parametrize("cls,build", [
    (MarkedPoint, lambda G: MarkedPoint.cyclic(1)),
    (MarkedComponent, lambda G: MarkedComponent(0, (), ())),
    (Subgroup, lambda G: Subgroup((0,))),
    (GenGraph, lambda G: GenGraph(1, (), ())),
    (GraphAction, trivial_action),
    (Degeneration, lambda G: Degeneration("split", stable_datum(G), 0, 2)),
    (CosetTable, lambda G: CosetTable(((0,),), (0,))),
], ids=["MarkedPoint", "MarkedComponent", "Subgroup", "GenGraph", "GraphAction", "Degeneration",
        "CosetTable"])
def test_patched_post_init_takes_effect(cls, build, s3, monkeypatch):
    seen = []
    check = cls.__post_init__
    monkeypatch.setattr(cls, "__post_init__", lambda self: (check(self), seen.append(self)))
    record = build(s3)
    assert len(seen) == 1 and seen[0] is record


def opened(x):
    """``x`` with every record, group and read-only map in it opened into
    plain values, so that two copies compare equal exactly when their fields do."""
    if isinstance(x, Record):
        slots = [n for c in type(x).__mro__ for n in vars(c).get("__slots__", ())]
        return type(x), {n: opened(getattr(x, n)) for n in slots}
    if isinstance(x, PermGroup):
        return PermGroup, x.degree, opened(x.generators), opened(x.elements)
    if isinstance(x, (dict, MappingProxyType)):
        return {k: opened(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return tuple(map(opened, x))
    return x


COPIES = [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))]


@pytest.mark.parametrize("how", COPIES, ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("cls,equality,build", RECORDS, ids=[c.__name__ for c, _, _ in RECORDS])
def test_records_copy_and_pickle(cls, equality, build, how, s3):
    """A copy has the record's class and equal fields, and stays immutable; a
    datum's canonical key travels with it and is the key of its fields."""
    G = PermGroup(s3.generators, degree=s3.degree)  # fresh, so a deep copy copies its own group
    record = build(G)
    if isinstance(record, BoundaryDatum):
        canonical_form(record)
    copied = how(record)
    assert type(copied) is cls and opened(copied) == opened(record)
    with pytest.raises(AttributeError):
        setattr(copied, cls._fields[0], None)
    if isinstance(record, BoundaryDatum):
        assert copied._canonical == record._canonical
        assert copied._canonical == canonical_form(BoundaryDatum(copied.group, copied.components))


@pytest.mark.parametrize("fixture", ["a5", "s4_on_257"])
def test_a_group_pickles_with_its_class_records(fixture, request):
    """Every class record and every canonical key survives a round trip, and
    the records stay read-only and shared by the members of their class."""
    G = request.getfixturevalue(fixture)
    G = PermGroup(G.generators, degree=G.degree)  # fresh: only this test builds its caches
    data = [HurwitzTuple(G, (x, y, G.inv(G.mul(x, y))))
            for x in range(1, G.order, 5) for y in range(1, G.order, 7)]
    keys = list(map(canonical_form, data))
    records = list(map(G.class_record, range(G.order)))
    H, copied = pickle.loads(pickle.dumps((G, data)))
    assert len(H._records) == len(G._records) > 0
    assert opened(list(map(H.class_record, range(H.order)))) == opened(records)
    for x in range(H.order):
        rec = H.class_record(x)
        if rec is not None:
            assert type(rec.conjugators) is MappingProxyType
            assert H.class_record(rec.rep) is rec
            with pytest.raises(TypeError):
                rec.conjugators[x] = 0
    assert all(d.group is H for d in copied)
    assert [d._canonical for d in copied] == keys
    assert [canonical_form(BoundaryDatum(H, d.components)) for d in copied] == keys


# every way the package builds a datum, from the A5 tuple t of branch orders
# (2, 2, 2, 3): its constructor, both loaders and every degen move
DATUM_BUILDS = {
    "HurwitzTuple": lambda t: HurwitzTuple(t.group, t.entries),
    "datum_from_jsonable": lambda t: datum_from_jsonable(datum_to_jsonable(degen.split(
        degen.dihedral(t, 0, 3)[0], 0, 2))),
    "datum_from_jsonable-tuple": lambda t: datum_from_jsonable(tuple_to_jsonable(t)),
    "tuple_from_jsonable": lambda t: tuple_from_jsonable(tuple_to_jsonable(t)),
    "split": lambda t: degen.split(t, 0, 2),
    "dihedral": lambda t: degen.dihedral(t, 0, 3)[-1],
    "collide": lambda t: degen.collide(t, 0, 0),
    "smooth": lambda t: degen.smooth(degen.collide(t, 0, 0), 0, 0),
}


@pytest.mark.parametrize("build", DATUM_BUILDS.values(), ids=DATUM_BUILDS)
def test_a_built_datum_starts_unkeyed_and_keys_as_its_json(build, a5):
    """A new datum has no key yet; its key is that of the datum its own JSON
    loads to, and copies and pickles keep its fields before and after keying."""
    datum = build(a5_smoothed_tuple(a5))
    assert datum._canonical is None
    for how in COPIES:
        assert opened(how(datum)) == opened(datum)
    reloaded = [datum_from_jsonable(json.loads(json.dumps(datum_to_jsonable(datum))))]
    if isinstance(datum, HurwitzTuple):
        reloaded.append(tuple_from_jsonable(json.loads(json.dumps(tuple_to_jsonable(datum)))))
    for other in reloaded:
        assert other.group is not datum.group and canonical_form(other) == canonical_form(datum)
    for how in COPIES:
        assert opened(how(datum)) == opened(datum)
