from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from hurwitzdegen import (BoundaryDatum, HurwitzTuple, MarkedComponent, MarkedPoint, PermGroup,
                          build_cover, class_labels, datum_from_jsonable, de_rham_character,
                          dual_graph_of_groups, induced_character, induced_sign,
                          inner, inverting_involutions, perm_from_cycles,
                          render_character_table, tuple_from_jsonable)
from hurwitzdegen import audit, cohomology, groups

from conftest import (a5_split_datum, characters, induced_by_kernel, inverting_pairs, normalizer,
                      quotient_report, random_valid_datum, subcover)


ROOT = Path(__file__).resolve().parents[1]
DATA_FILES = sorted(str(p.relative_to(ROOT)) for d in ("docs/examples", "tests/golden/data")
                    for p in (ROOT / d).glob("*.json"))


def test_trivial_group_line():
    G = PermGroup([], degree=1)
    rep = characters(BoundaryDatum(G, (MarkedComponent(0, (), ()),)))
    assert rep.chi_dR == (2,)  # one class; the degree is the first value
    assert rep.h1_character == (0,)


@pytest.mark.parametrize("path", DATA_FILES)
def test_characters_are_int_tuples_in_class_order(path):
    # a class function is the tuple of its int values, one per class
    obj = json.loads((ROOT / path).read_text(encoding="utf-8"))
    datum = (tuple_from_jsonable(obj) if "entries" in obj
             else datum_from_jsonable(obj))
    G = datum.group
    n = len(G.conjugacy_classes())

    def is_character(values) -> bool:
        return type(values) is tuple and len(values) == n and all(type(v) is int for v in values)

    for pt in (pt for comp in datum.components for pt in comp.points):
        C = G.cyclic_subgroup(pt.m)
        assert is_character(induced_sign(G, pt.m, G.identity))
        assert is_character(induced_character(G, C))
        if pt.s is not None:
            assert is_character(induced_sign(G, pt.m, pt.s))
            assert is_character(induced_by_kernel(G, G.generated_subgroup([pt.m, pt.s]), C))
    rep = characters(datum)
    assert all(is_character(chi) for chi in (rep.chi_dR, rep.chi_normalization,
                                             rep.edge_induction_sum))
    if path.endswith("s5_disconnected_datum.json"):
        assert rep.h1_character is None
    else:
        assert is_character(rep.h1_character)


def test_a5_dihedral_characters(a5):
    datum = audit.a5_dihedral_degenerations(a5)[0].datum
    rep = characters(datum)
    genus = quotient_report(datum)["arithmetic_genus"]
    C5 = a5.cyclic_subgroup(a5.id_of(perm_from_cycles(5, (0, 1, 2, 3, 4))))
    D10 = normalizer(a5, C5)
    ind_sgn = induced_by_kernel(a5, D10, C5)

    assert rep.chi_dR == tuple(2 - 2 * v for v in ind_sgn)  # 2 triv - 2 Ind sgn
    assert rep.chi_dR == (-10, 6, 2, 0, 0)
    assert rep.chi_dR[0] == 2 - 2 * genus == -10
    # devissage identity as implemented
    assert rep.chi_dR == tuple(a - 2 * b for a, b in zip(
        rep.chi_normalization, rep.edge_induction_sum, strict=True))

    h1 = rep.h1_character
    assert h1 == tuple(2 * v for v in ind_sgn)
    assert h1[0] == 12 == 2 * genus


def test_a5_split_characters_and_constancy(a5):
    rep = characters(a5_split_datum(a5))
    assert rep.chi_normalization[0] == 2 * 7
    assert rep.edge_induction_sum[0] == 12
    assert rep.chi_dR[0] == -10
    assert rep.h1_character == characters(audit.a5_dihedral_degenerations(a5)[0].datum).h1_character


def self_node_datum(G):
    m, g = G.id_of(perm_from_cycles(5, (0, 1, 2, 3, 4))), G.id_of(perm_from_cycles(5, (0, 1, 2)))
    return BoundaryDatum(G, (MarkedComponent(0, (), (
        MarkedPoint.node_end(m, 0), MarkedPoint.node_end(G.inv(m), 0),
        MarkedPoint.cyclic(g), MarkedPoint.cyclic(G.inv(g)))),))


def trivial_m_datum(G):
    s, g = G.id_of(perm_from_cycles(5, (0, 1), (2, 3))), G.id_of(perm_from_cycles(5, (0, 1, 2)))
    return BoundaryDatum(G, (MarkedComponent(0, (), (
        MarkedPoint.dihedral(G.identity, s), MarkedPoint.cyclic(g),
        MarkedPoint.cyclic(G.inv(g)))),))


@pytest.mark.parametrize("build", [a5_split_datum, self_node_datum,
                                   lambda G: audit.a5_dihedral_degenerations(G)[0].datum,
                                   trivial_m_datum],
                         ids=["split", "self-node", "dihedral", "trivial-m"])
def test_de_rham_closes_no_subgroup(a5, monkeypatch, build):
    # every point, node and dihedral point is one closure-free induced_sign:
    # no subgroup is closed and no induction runs over a closed subgroup
    datum = build(a5)
    gog = dual_graph_of_groups(datum)
    expected = de_rham_character(gog).chi_dR

    def fail(*args):
        raise AssertionError("de_rham_character closed a subgroup")

    monkeypatch.setattr(a5, "cyclic_subgroup", fail)
    monkeypatch.setattr(a5, "generated_subgroup", fail)
    monkeypatch.setattr(groups, "induced_character", fail)
    assert not hasattr(cohomology, "induced_character")
    assert de_rham_character(gog).chi_dR == expected


@pytest.mark.parametrize("fixture", ["s4", "a5", "psl27", "c300"])
def test_induced_sign_against_closure(fixture, request):
    # Ind_<m> 1 (s = e) and, at every inverting pair, Ind_<m, s> sgn against
    # induction over the closed <m> and <m, s>
    G = (PermGroup([tuple((x + 1) % 300 for x in range(300))]) if fixture == "c300"  # tuple path
         else request.getfixturevalue(fixture))
    for m in range(G.order):
        C = G.cyclic_subgroup(m)
        assert induced_sign(G, m, G.identity) == induced_character(G, C)
        for s in inverting_involutions(G, m):
            assert induced_sign(G, m, s) == induced_by_kernel(G, G.generated_subgroup([m, s]), C)


def test_two_component_trivial_group_h1_vanishes():
    G = PermGroup([], degree=1)
    e = G.identity
    comps = tuple(MarkedComponent(0, (), (
        MarkedPoint.node_end(e, 0), MarkedPoint.cyclic(e), MarkedPoint.cyclic(e)))
        for _ in range(2))
    datum = BoundaryDatum(G, comps)
    assert quotient_report(datum)["arithmetic_genus"] == 0
    h1 = characters(datum).h1_character
    assert h1 == (0,)


def test_positive_genus_full_character(psl27):
    datum = audit.psl27_tuple(psl27)
    assert quotient_report(datum)["components"][0]["genus"] == 3
    rep = characters(datum)
    assert rep.chi_dR[0] == 2 - 2 * 3
    # Klein quartic: H^1 is the sum of the two conjugate 3-dimensional
    # irreducibles, so it has no invariants and is rational-valued on 7a/7b
    h1 = rep.h1_character
    assert h1 == (6, -2, 0, 2, -1, -1)
    assert inner(psl27, h1, (1,) * len(h1)) == 0
    assert inner(psl27, h1, h1) == 2


@pytest.mark.parametrize("fixture,seed", [("s4", 111), ("a5", 112), ("psl27", 113),
                                          ("s5", 114)])
def test_h1_against_subcover_genera(fixture, seed, request):
    # on a smooth connected cover C, Frobenius reciprocity gives
    # <h1, Ind_K 1> = dim H^1(C)^K = 2 g(C/K); subcover counts g(C/K) by
    # Riemann-Hurwitz on K-cosets, with no character theory
    G = request.getfixturevalue(fixture)
    rng = random.Random(seed)
    cyclic = {G.cyclic_subgroup(g).members: G.cyclic_subgroup(g) for g in range(G.order)}
    inductions = [(K, induced_character(G, K)) for K in cyclic.values()]
    covers = 0
    while covers < 3:
        entries = [rng.randrange(G.order) for _ in range(rng.randrange(2, 4))]
        entries.append(G.inv(G.product(entries)))
        if G.generated_subgroup(entries).order != G.order:
            continue
        datum = HurwitzTuple(G, tuple(entries))
        cover = build_cover(datum)
        h1 = characters(datum).h1_character
        assert h1[0] == 2 * cover.genera[0]
        for K, ind in inductions:
            assert inner(G, h1, ind) == 2 * sum(c.genus for c in subcover(cover, K).components)
        covers += 1


def test_disconnected_cover_has_no_h1(s3):
    t = s3.id_of(perm_from_cycles(3, (0, 1)))
    datum = BoundaryDatum(s3, (MarkedComponent(0, (), (
        MarkedPoint.cyclic(t), MarkedPoint.cyclic(t),
        MarkedPoint.cyclic(s3.identity))),))
    assert not quotient_report(datum)["connected"]
    rep = characters(datum)
    assert rep.chi_dR is not None and rep.h1_character is None


@pytest.mark.parametrize("fixture,seed", [("s3", 101), ("s4", 102), ("d5", 103)])
def test_degree_identity_on_random_covers(fixture, seed, request):
    from hurwitzdegen import dihedral_degenerations

    from conftest import random_rational_generating_tuples

    G = request.getfixturevalue(fixture)
    rng = random.Random(seed)
    pairs = inverting_pairs(G)

    def check(datum):
        rep, cover = characters(datum), quotient_report(datum)
        V, E = cover["component_count"], cover["node_count"]
        assert rep.chi_dR[0] == 2 * (V - E - sum(c["genus"] for c in cover["components"]))
        assert (rep.h1_character is None) == (not cover["connected"])
        if rep.h1_character is None:
            return 0
        assert rep.chi_dR[0] == 2 - 2 * cover["arithmetic_genus"]
        assert rep.h1_character[0] == 2 * cover["arithmetic_genus"]
        assert all(isinstance(v, int) for v in rep.chi_dR)
        return 1

    checked = 0
    for _ in range(40):
        checked += check(random_valid_datum(G, rng, pairs))
    # nodal connected rational covers: dihedral degenerations of rational
    # generating triangles
    for t in random_rational_generating_tuples(G, rng, 6):
        checked += check(t)
        for i in range(len(t)):
            for deg in dihedral_degenerations(t, i)[:2]:
                checked += check(deg.datum)
    assert checked > 10


def test_class_labels_past_26_classes_of_one_order():
    # C300 has phi(300) = 80 classes of order 300: a..z, a1..z1, a2..z2, a3..b3
    G = PermGroup([tuple((x + 1) % 300 for x in range(300))])
    labels = class_labels(G)
    assert len(set(labels)) == len(labels) == 300
    assert all(label.isascii() and label.isalnum() for label in labels)
    top = [label for label in labels if label.startswith("300")]
    assert len(top) == 80
    assert top[25:28] == ["300z", "300a1", "300b1"]
    assert top[-1] == "300b3"


def test_class_labels_and_table(a5):
    assert class_labels(a5) == ["1a", "2a", "3a", "5a", "5b"]
    rep = characters(audit.a5_dihedral_degenerations(a5)[0].datum)
    table = render_character_table(a5, {"chi_dR": rep.chi_dR, "h1": rep.h1_character})
    lines = table.splitlines()
    assert lines[0].split() == ["class", "order", "size", "chi_dR", "h1"]
    assert len(lines) == 2 + 5 + 1  # header, rule, 5 classes, degree line
    assert "deg chi_dR = -10" in lines[-1]
