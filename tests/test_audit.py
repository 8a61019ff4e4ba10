from __future__ import annotations

from hurwitzdegen import PermGroup, audit

from conftest import a5_smoothed_tuple


def test_builders_are_deterministic(a5, psl27):
    # the tuples are image lists, so they do not depend on how the group's
    # generators are listed, which numbers its elements
    for step in (1, -1):
        _check_builders(PermGroup(a5.generators[::step]), PermGroup(psl27.generators[::step]))


def _check_builders(a5, psl27):
    t3 = audit.a5_tuple(a5)
    assert [a5.perm(g) for g in t3.entries] == [
        (1, 2, 3, 4, 0),      # the 5-cycle
        (0, 2, 1, 4, 3),      # first completing involution in element order
        (3, 0, 2, 1, 4),
    ]
    assert tuple(map(a5.element_order, t3.entries)) == (5, 2, 3)

    degs = audit.a5_dihedral_degenerations(a5)
    assert a5.perm(degs[0].datum.point(0, 0).s) == (0, 4, 3, 2, 1)

    t4 = a5_smoothed_tuple(a5)
    assert [a5.perm(g) for g in t4.entries] == [
        (0, 4, 3, 2, 1), (4, 3, 2, 1, 0), (0, 2, 1, 4, 3), (3, 0, 2, 1, 4)]

    tp = audit.psl27_tuple(psl27)
    assert [psl27.perm(g) for g in tp.entries] == [
        (1, 2, 3, 4, 5, 6, 0, 7),
        (1, 0, 3, 2, 6, 7, 4, 5),
        (4, 1, 0, 3, 2, 6, 7, 5),
    ]
    assert tuple(map(psl27.element_order, tp.entries)) == (7, 2, 3)


def test_audit_passes_with_expected_warnings():
    checks = audit.run_audit()
    assert audit.audit_passed(checks)
    by_name = {c.name: c for c in checks}
    assert by_name["a5-arithmetic-genus"].status == audit.PASS
    assert by_name["a5-genus-consistency"].status == audit.WARN
    assert by_name["psl27-realizability"].status == audit.WARN
    assert "order 21" in by_name["psl27-realizability"].detail
    assert "order 14" in by_name["psl27-realizability"].detail
    assert by_name["klein-boundary-arithmetic"].status == audit.PASS
    assert by_name["a5-round-trip"].status == audit.PASS


def test_audit_is_deterministic():
    first = audit.run_audit()
    second = audit.run_audit()
    assert [(c.name, c.status, c.detail) for c in first] == \
        [(c.name, c.status, c.detail) for c in second]
