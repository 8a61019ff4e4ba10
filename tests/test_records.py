"""The package's record classes: immutable, with value or identity equality,
a ``Name(field=value, ...)`` repr, checking constructors, and the
``__post_init__`` checks that the benchmark's tracer patches on the class."""

from __future__ import annotations

import pytest

from hurwitzdegen import (BoundaryDatum, ClassFunction, ClassRecord, CosetTable, CoverCurve,
                          Degeneration, DevissageReport, GenGraph, GraphAction, HurwitzTuple,
                          MarkedComponent, MarkedPoint, Subgroup, Violation, hurwitz_to_datum)
from hurwitzdegen.audit import AuditCheck
from hurwitzdegen.boundary import DualGraphOfGroups
from hurwitzdegen.covers import CoverBranch, CoverComponent, CoverNode
from hurwitzdegen.errors import InvalidDatum, ProductNotOne

VALUE, IDENTITY, OWN_EQ = "value", "identity", "own __eq__"


def stable_datum(G) -> BoundaryDatum:
    return hurwitz_to_datum(HurwitzTuple(G, (0, 0, 0)))


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
        GenGraph(1, (), ()), (G.full_subgroup(),), (), (), ())),
    (CoverComponent, VALUE, lambda G: CoverComponent(0, 1, 2)),
    (CoverBranch, VALUE, lambda G: CoverBranch((0, 1), 2, 3)),
    (CoverNode, VALUE, lambda G: CoverNode(0, CoverBranch((0, 1), 2, 3),
                                           CoverBranch((0, 2), 1, 3))),
    (CoverCurve, VALUE, lambda G: CoverCurve(None, None, (), (0,), (), (), (),
                                             GenGraph(1, (), ()))),
    (Subgroup, VALUE, lambda G: Subgroup(G, (0, 1))),
    (ClassRecord, IDENTITY, lambda G: ClassRecord(0, {0: 0}, G.full_subgroup())),
    (CosetTable, VALUE, lambda G: CosetTable(((0, 1),), (0, 0))),
    (ClassFunction, OWN_EQ, lambda G: ClassFunction.trivial(G)),
    (GenGraph, VALUE, lambda G: GenGraph.from_unoriented(2, [(0, 1)], self_opposite=[1])),
    (GraphAction, VALUE, trivial_action),
    (Degeneration, IDENTITY, lambda G: Degeneration("split", stable_datum(G), split_at=2)),
    (DevissageReport, IDENTITY, lambda G: DevissageReport(
        ClassFunction.trivial(G), ClassFunction.trivial(G), ClassFunction.trivial(G), None)),
    (AuditCheck, VALUE, lambda G: AuditCheck("name", "PASS", "detail")),
]


def test_the_table_covers_every_record():
    assert len({cls for cls, _, _ in RECORDS}) == 19


@pytest.mark.parametrize("cls,equality,build", RECORDS, ids=[c.__name__ for c, _, _ in RECORDS])
def test_record_semantics(cls, equality, build, s3):
    a, b = build(s3), build(s3)
    assert type(a) is cls
    for name in cls.__slots__:
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
    elif equality == IDENTITY:
        assert a != b and len({a, b}) == 2
    else:
        assert a == b
        with pytest.raises(TypeError):
            hash(a)
    text = repr(a)
    assert text.startswith(f"{cls.__name__}(") and text.endswith(")")


def test_repr_names_every_field_in_order():
    assert repr(MarkedPoint.dihedral(1, 2)) == \
        "MarkedPoint(kind='dihedral', m=1, s=2, node_id=None)"
    assert repr(CosetTable(((0,),), (0,))) == "CosetTable(cells=((0,),), index_of=(0,))"


def test_value_records_differ_when_a_field_does():
    assert MarkedPoint.cyclic(1) != MarkedPoint.cyclic(2)
    assert CoverComponent(0, 1, 2) != CoverBranch(0, 1, 2)   # another class never equals


def test_subgroup_ignores_its_generators(s3):
    built, bare = s3.full_subgroup(), Subgroup(s3, tuple(range(s3.order)))
    assert built.gens is not None and bare.gens is None
    assert built == bare and hash(built) == hash(bare)
    assert "gens" not in repr(built)
    assert built.generators() == list(built.gens)


@pytest.mark.parametrize("build,error", [
    (lambda G: MarkedPoint("bogus", 0), ValueError),
    (lambda G: MarkedPoint("cyclic", 0, s=1), ValueError),
    (lambda G: MarkedComponent(-1, (), ()), ValueError),
    (lambda G: MarkedComponent(1, (), ()), ValueError),
    (lambda G: HurwitzTuple(G, (1,)), ProductNotOne),
    (lambda G: Subgroup(G, (1, 2)), ValueError),
    (lambda G: GenGraph(2, ((0, 1), (0, 1)), (1, 0)), AssertionError),
    (lambda G: Degeneration("split", BoundaryDatum(G, (MarkedComponent(0, (), ()),))),
     InvalidDatum),
], ids=["point-kind", "point-s", "genus", "handles", "product", "identity", "opposite",
        "stability"])
def test_constructor_checks_still_raise(build, error, s3):
    with pytest.raises(error):
        build(s3)


@pytest.mark.parametrize("cls,build", [
    (Subgroup, lambda G: Subgroup(G, (0,))),
    (GenGraph, lambda G: GenGraph(1, (), ())),
    (GraphAction, trivial_action),
    (Degeneration, lambda G: Degeneration("split", stable_datum(G), split_at=2)),
], ids=["Subgroup", "GenGraph", "GraphAction", "Degeneration"])
def test_patched_post_init_takes_effect(cls, build, s3, monkeypatch):
    seen = []
    check = cls.__post_init__
    monkeypatch.setattr(cls, "__post_init__", lambda self: (check(self), seen.append(self)))
    record = build(s3)
    assert len(seen) == 1 and seen[0] is record
