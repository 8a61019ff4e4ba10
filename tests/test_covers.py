from __future__ import annotations

import inspect
import json
import random

import pytest

from hurwitzdegen import (BoundaryDatum, CoverCurve, HurwitzTuple, MarkedComponent, MarkedPoint,
                          PermGroup, Subgroup, build_cover, cover_report, cover_to_dot,
                          datum_from_jsonable, de_rham_character, dihedral_degenerations,
                          dual_graph_of_groups, left_cosets, perm_from_cycles,
                          rh_genus, split_degenerations)
from hurwitzdegen import audit, covers, groups
from hurwitzdegen.boundary import CYCLIC, DualGraphOfGroups, unstable_components
from hurwitzdegen.covers import node_class_summary
from hurwitzdegen.errors import InvalidDatum, NegativeGenus, NonIntegralGenus

from conftest import (PIECE_DATA, a5_smoothed_tuple, a5_split_datum, assert_closed,
                      assert_opposite_edges, branch_counts, conj, deck_action, disjoint_union,
                      explicit_cover_report, inverting_pairs, lefschetz_counts, load_datum,
                      quotient_report, random_rational_generating_tuples, random_valid_datum,
                      subcover)
from test_golden import ROOT, golden_argvs


def test_rh_genus_worked_values():
    assert rh_genus(60, 0, [5, 2, 3]) == 0
    assert rh_genus(168, 0, [7, 2, 3]) == 3
    assert rh_genus(168, 0, [2, 2, 2, 3]) == 15
    assert rh_genus(10, 0, [2, 2, 5]) == 0
    assert rh_genus(60, 0, [2, 2, 2, 3]) == 6
    assert rh_genus(1, 0, []) == 0


def test_rh_genus_errors():
    with pytest.raises(NonIntegralGenus):
        rh_genus(2, 0, [2])
    with pytest.raises(NegativeGenus):
        rh_genus(2, 0, [])
    with pytest.raises(ValueError):
        rh_genus(6, 0, [4])


def test_trivial_cover():
    G = PermGroup([], degree=1)
    datum = BoundaryDatum(G, (MarkedComponent(0, (), ()),))
    cover = build_cover(datum)
    assert cover.graph.vertex_count == 1 and cover.genera == [0]
    assert len(cover.nodes) == 0
    report = quotient_report(datum)
    assert report["connected"] and report["arithmetic_genus"] == 0
    assert not report["stable"]
    assert report == explicit_cover_report(cover)


def test_a5_dihedral_cover(a5):
    datum = audit.a5_dihedral_degenerations(a5)[0].datum
    cover = build_cover(datum)
    assert cover.graph.vertex_count == 1 and cover.genera == [0]
    assert len(cover.nodes) == 6
    assert branch_counts(cover) == [12]
    report = quotient_report(datum)
    assert report["arithmetic_genus"] == 6
    assert report["stable"]
    assert report["node_classes"] == [
        {"kind": "dihedral", "stabilizer_order": 10, "count": 6}]
    assert report == explicit_cover_report(cover)


def test_a5_split_cover(a5):
    datum = a5_split_datum(a5)
    cover = build_cover(datum)
    assert cover.graph.vertex_count == 7 and cover.genera == [0, 0]
    assert len(cover.nodes) == 12
    report = quotient_report(datum)
    assert report["arithmetic_genus"] == 0 * 7 + 12 - 7 + 1 == 6
    # semistable only: the 6 outer components carry 2 branches each; this is
    # the blow-up picture whose contraction is the 6-node dihedral cover
    assert not report["stable"]
    assert sorted(branch_counts(cover)) == [2] * 6 + [12]
    assert report["node_classes"] == node_class_summary(cover.gog) == [
        {"kind": "cyclic", "stabilizer_order": 5, "count": 12}]
    assert report == explicit_cover_report(cover)


def test_dihedral_branch_pair_well_defined(a5):
    # the two branches of a dihedral node are exactly the two <m>-cosets
    # inside its <m, s>-coset, independent of the chosen representative
    cover = build_cover(audit.a5_dihedral_degenerations(a5)[0].datum)
    ((ci, pi),) = cover.gog.edge_ends[0]
    pt = cover.gog.datum.point(ci, pi)
    dcos = left_cosets(a5, a5.generated_subgroup([pt.m, pt.s]))
    mcos = cover.edge_mcosets[0]
    assert {e for e, _, _ in cover.nodes} == {0}
    for _, a, b in cover.nodes:
        dcell = dcos.cells[dcos.index_of[mcos.cells[a][0]]]
        inside = {mcos.index_of[x] for x in dcell}
        assert inside == {a, b} and a < b


def assert_branches_in_component_cosets(cover) -> None:
    """Each branch's <m>-cell lies inside the coset of the component that
    its oriented edge ends at."""
    for k, (e, a, b) in enumerate(cover.nodes):
        ends = cover.gog.edge_ends[e]
        for side, cell, (ci, _) in ((0, a, ends[0]), (1, b, ends[-1])):
            c = cover.graph.edges[2 * k + side][1] - cover.offsets[ci]
            assert 0 <= c < len(cover.comp_cosets[ci])
            assert set(cover.edge_mcosets[e].cells[cell]) <= set(cover.comp_cosets[ci].cells[c])


def test_branch_contained_in_component_coset(a5):
    assert_branches_in_component_cosets(build_cover(a5_split_datum(a5)))


def test_build_cover_builds_one_coset_table_per_component_and_edge(a5, monkeypatch):
    # the two ends of a node share <m_a> = <m_b>, so one <m>-coset table
    # serves both: 2 component tables and 1 edge table
    built = []

    def counted(G, H):
        built.append(H.order)
        return groups.left_cosets(G, H)

    monkeypatch.setattr(covers, "left_cosets", counted)
    cover = build_cover(a5_split_datum(a5))
    assert sorted(built) == [5, 10, 60]
    assert len(cover.nodes) == 12


def test_disconnected_cover(s3):
    t = s3.id_of(perm_from_cycles(3, (0, 1)))
    datum = BoundaryDatum(s3, (MarkedComponent(0, (), (
        MarkedPoint.cyclic(t), MarkedPoint.cyclic(t),
        MarkedPoint.cyclic(s3.identity))),))
    report = quotient_report(datum)
    assert report["component_count"] == 3  # cosets of the order-2 image
    assert not report["connected"] and report["arithmetic_genus"] is None
    assert report["component_arithmetic_genera"] == [0, 0, 0]
    assert not report["stable"]
    assert report == explicit_cover_report(build_cover(datum))


def test_build_cover_requires_valid_datum(s3):
    t = s3.id_of(perm_from_cycles(3, (0, 1)))
    bad = BoundaryDatum(s3, (MarkedComponent(0, (), (MarkedPoint.cyclic(t),)),))
    with pytest.raises(InvalidDatum):
        build_cover(bad)
    with pytest.raises(InvalidDatum):
        dual_graph_of_groups(bad)


def test_trivial_group_two_component_node():
    G = PermGroup([], degree=1)
    e = G.identity
    comp_a = MarkedComponent(0, (), (
        MarkedPoint.node_end(e, 0), MarkedPoint.cyclic(e), MarkedPoint.cyclic(e)))
    comp_b = MarkedComponent(0, (), (
        MarkedPoint.node_end(e, 0), MarkedPoint.cyclic(e), MarkedPoint.cyclic(e)))
    report = quotient_report(BoundaryDatum(G, (comp_a, comp_b)))
    assert report["component_count"] == 2
    assert report["node_count"] == 1
    assert report["connected"]
    assert report["arithmetic_genus"] == 0
    assert report["node_classes"] == [{"kind": "cyclic", "stabilizer_order": 1, "count": 1}]


def test_self_node_gives_loop():
    # both ends of one node on a single component: the nodal-cubic picture
    G = PermGroup([], degree=1)
    e = G.identity
    datum = BoundaryDatum(G, (MarkedComponent(0, (), (
        MarkedPoint.node_end(e, 0), MarkedPoint.node_end(e, 0),
        MarkedPoint.cyclic(e))),))
    cover = build_cover(datum)
    assert cover.graph.vertex_count == 1 and cover.nodes == [(0, 0, 0)]
    assert cover.graph.edges == ((0, 0), (0, 0))
    report = quotient_report(datum)
    assert report["connected"]
    assert report["arithmetic_genus"] == 1
    assert not report["stable"]  # rational component with only 2 branches
    assert report["node_classes"][0]["kind"] == "cyclic"
    assert report == explicit_cover_report(cover)


def test_self_node_on_nontrivial_group(s3):
    r = s3.id_of(perm_from_cycles(3, (0, 1, 2)))
    datum = BoundaryDatum(s3, (MarkedComponent(0, (), (
        MarkedPoint.node_end(r, 0), MarkedPoint.node_end(s3.inv(r), 0),
        MarkedPoint.cyclic(s3.identity))),))
    report = quotient_report(datum)
    # image subgroup C3: two cover components, each with one loop node
    assert report["component_count"] == 2 and report["node_count"] == 2
    assert not report["connected"]
    assert report["component_arithmetic_genera"] == [1, 1]
    assert report["node_classes"] == [{"kind": "cyclic", "stabilizer_order": 3, "count": 2}]
    assert report == explicit_cover_report(build_cover(datum))


def with_self_node(datum: BoundaryDatum, rng: random.Random) -> BoundaryDatum:
    """``datum`` with a non-separating node on its component 0: the ends m
    and m^-1, side by side at a random place, so the relation still holds."""
    G, (first, *rest) = datum.group, datum.components
    m = rng.randrange(G.order)
    node_id = 1 + max((pt.node_id for comp in datum.components for pt in comp.points
                       if pt.node_id is not None), default=-1)
    at = rng.randrange(len(first.points) + 1)
    points = (first.points[:at] + (MarkedPoint.node_end(m, node_id),
                                   MarkedPoint.node_end(G.inv(m), node_id)) + first.points[at:])
    return BoundaryDatum(G, (MarkedComponent(first.genus, first.handles, points), *rest))


@pytest.mark.parametrize("fixture,seed", [("s4", 61), ("a5", 62), ("psl27", 63)])
def test_non_separating_nodes_against_the_explicit_cover(fixture, seed, request):
    # both ends of a node on one component, next to dihedral points and
    # separating nodes: the report, the deck action's branch keys and each
    # branch's place in its component are checked on the explicit cover
    G = request.getfixturevalue(fixture)
    rng = random.Random(seed)
    pairs = inverting_pairs(G)
    dihedral = separating = 0
    for _ in range(40):
        datum = with_self_node(random_valid_datum(G, rng, pairs), rng)
        dihedral += bool(datum.dihedral_points())
        separating += len(datum.components) == 2
        cover = build_cover(datum)
        assert quotient_report(datum) == explicit_cover_report(cover)
        deck_action(cover)
        assert_branches_in_component_cosets(cover)
    assert dihedral and separating


@pytest.mark.parametrize("genus", [0, 1, 2, 3])
@pytest.mark.parametrize("points", [0, 1, 2, 3, 4])
def test_stability_is_2g_minus_2_plus_n_positive(genus, points):
    # both readers of the one rule, over the trivial group, whose cover is the
    # quotient: a component with n marked points, and a component with n
    # branches, each a node to its own stable genus-2 tail
    G = PermGroup([], degree=1)
    e = G.identity
    handles = ((e, e),) * genus
    lone = BoundaryDatum(G, (MarkedComponent(genus, handles, (MarkedPoint.cyclic(e),) * points),))
    assert (not unstable_components(lone)) == (2 * genus - 2 + points > 0)
    core = MarkedComponent(genus, handles, tuple(MarkedPoint.node_end(e, k) for k in range(points)))
    tails = tuple(MarkedComponent(2, ((e, e),) * 2, (MarkedPoint.node_end(e, k),))
                  for k in range(points))
    report = quotient_report(BoundaryDatum(G, (core,) + tails))
    assert report["connected"] and report["arithmetic_genus"] == genus + 2 * points
    assert report["stable"] == (2 * genus - 2 + points > 0)


def test_subcover_by_whole_group(a5):
    cover = build_cover(audit.a5_dihedral_degenerations(a5)[0].datum)
    rep = subcover(cover, a5.full_subgroup())
    assert rep.degree == 1
    assert len(rep.components) == 1
    comp = rep.components[0]
    assert comp.degree == 1 and comp.genus == 0
    assert all(cyc == (1,) for cyc in comp.point_cycles)
    assert len(rep.node_orbits) == 1
    orbit = rep.node_orbits[0]
    assert orbit.size == 6
    assert orbit.swapped_within_orbit  # dihedral stabilizer swaps branches


def test_subcover_by_trivial_subgroup(a5):
    cover = build_cover(audit.a5_dihedral_degenerations(a5)[0].datum)
    rep = subcover(cover, a5.subgroup([a5.identity]))
    assert rep.degree == 60
    assert len(rep.components) == 1
    comp = rep.components[0]
    assert comp.degree == 60 and comp.genus == 0
    # cycle type of each monodromy on the full fiber: |G|/ord cycles of length ord
    orders = (5, 2, 3)
    for cyc, d in zip(comp.point_cycles, orders):
        assert cyc == tuple([d] * (60 // d))
    assert len(rep.node_orbits) == 6
    assert all(o.size == 1 and not o.swapped_within_orbit for o in rep.node_orbits)


def test_subcover_point_stabilizer_admissible_picture(a5):
    # quotient of the smooth order-(2,2,2,3) cover by a point stabilizer of
    # the natural degree-5 action: the degree-5 admissible-cover picture
    t4 = a5_smoothed_tuple(a5)
    cover = build_cover(t4)
    K = a5.subgroup([g for g in range(a5.order) if a5.perm(g)[4] == 4])
    assert K.order == 12
    rep = subcover(cover, K)
    assert rep.degree == 5
    assert len(rep.components) == 1
    comp = rep.components[0]
    assert comp.degree == 5
    assert comp.point_cycles == ((2, 2, 1), (2, 2, 1), (2, 2, 1), (3, 1, 1))
    assert comp.genus == 0
    assert [parts for _, parts in rep.point_cycle_types] == \
        [(2, 2, 1), (2, 2, 1), (2, 2, 1), (3, 1, 1)]


def test_subcover_of_split_cover_by_whole_group(a5):
    cover = build_cover(a5_split_datum(a5))
    rep = subcover(cover, a5.full_subgroup())
    assert [c.quotient_component for c in rep.components] == [0, 1]
    assert all(c.degree == 1 and c.genus == 0 for c in rep.components)
    assert len(rep.node_orbits) == 1
    orbit = rep.node_orbits[0]
    assert orbit.size == 12
    assert not orbit.swapped_within_orbit   # ordinary nodes keep their sides
    assert (orbit.component_a, orbit.component_b) == (0, 1)


def test_subcover_genus_integral_on_random_data(s4):
    rng = random.Random(7)
    pairs = inverting_pairs(s4)
    subs = [s4.full_subgroup(), s4.subgroup([s4.identity]),
            s4.generated_subgroup([s4.id_of(perm_from_cycles(4, (0, 1, 2)))])]
    for _ in range(15):
        datum = random_valid_datum(s4, rng, pairs)
        cover = build_cover(datum)
        for K in subs:
            rep = subcover(cover, K)
            assert all(c.genus >= 0 for c in rep.components)
            assert sum(c.degree for c in rep.components
                       if c.quotient_component == 0) == rep.degree


def cycle_type_on_right_cosets(G: PermGroup, K: Subgroup, m: int) -> tuple[int, ...]:
    """Cycle type of Kx -> Kxm on K\\G, from the cosets as sets of elements."""
    coset_of: dict[int, int] = {}
    reps = []
    for x in range(G.order):
        if x not in coset_of:
            for y in {G.mul(k, x) for k in K.members}:
                coset_of[y] = len(reps)
            reps.append(x)
    seen: set[int] = set()
    lengths = []
    for x in reps:
        length = 0
        while coset_of[x] not in seen:
            seen.add(coset_of[x])
            length += 1
            x = G.mul(x, m)
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def test_subcover_point_types_on_all_cosets(s4):
    rng = random.Random(11)
    pairs = inverting_pairs(s4)
    subs = [s4.subgroup([s4.identity]),
            s4.generated_subgroup([s4.id_of(perm_from_cycles(4, (0, 1)))]),
            s4.generated_subgroup([s4.id_of(perm_from_cycles(4, (0, 1, 2)))]),
            s4.generated_subgroup([s4.id_of(perm_from_cycles(4, (0, 1, 2, 3)))])]
    several_double_cosets = 0
    for _ in range(12):
        datum = random_valid_datum(s4, rng, pairs)
        cover = build_cover(datum)
        for K in subs:
            rep = subcover(cover, K)
            several_double_cosets += len(rep.components) > len(datum.components)
            assert rep.point_cycle_types == tuple(
                ((ci, pi), cycle_type_on_right_cosets(s4, K, pt.m))
                for ci, comp in enumerate(datum.components) for pi, pt in enumerate(comp.points))
    assert several_double_cosets  # a component's type is then a union over double cosets


def test_rh_genus_never_errors_on_valid_data(s3, s4, d5):
    for G, seed in ((s3, 31), (s4, 32), (d5, 33)):
        rng = random.Random(seed)
        pairs = inverting_pairs(G)
        for _ in range(40):
            datum = random_valid_datum(G, rng, pairs)
            report = quotient_report(datum)  # raises on non-integral/negative genus
            assert all(c["genus"] >= 0 for c in report["components"])


def test_node_class_matches_origin_on_random_data(s4, d5):
    # nodes above quotient nodes stay cyclic with stabilizer <m>, above
    # dihedral points dihedral with stabilizer <m, s> of order 2 ord(m)
    for G, seed in ((s4, 34), (d5, 35)):
        rng = random.Random(seed)
        pairs = inverting_pairs(G)
        for _ in range(25):
            datum = random_valid_datum(G, rng, pairs)
            cover = build_cover(datum)
            buckets: dict = {}
            for e, _, _ in cover.nodes:
                ends = cover.gog.edge_ends[e]
                order = G.element_order(datum.point(*ends[0]).m)
                key = ("dihedral", 2 * order) if len(ends) == 1 else ("cyclic", order)
                buckets[key] = buckets.get(key, 0) + 1
            assert quotient_report(datum)["node_classes"] == [
                {"kind": kind, "stabilizer_order": order, "count": count}
                for (kind, order), count in sorted(buckets.items())]


def test_tuple_storage_builds_the_same_cover(s4, s4_on_257):
    # S4 on 4 and on 257 points sorts its elements alike, so their ids agree
    # and one datum of ids builds its cosets through bytes or tuple products
    assert [s4_on_257.perm(i)[:4] for i in range(24)] == [s4.perm(i) for i in range(24)]
    rng = random.Random(58)
    pairs = inverting_pairs(s4)
    nodes = dihedral = 0
    for _ in range(30):
        datum = random_valid_datum(s4, rng, pairs)
        wide = BoundaryDatum(s4_on_257, datum.components)
        nodes += bool(datum.nodes())
        dihedral += bool(datum.dihedral_points())
        narrow_cover, wide_cover = build_cover(datum), build_cover(wide)
        assert wide_cover.comp_cosets == narrow_cover.comp_cosets
        assert wide_cover.edge_mcosets == narrow_cover.edge_mcosets
        assert cover_to_dot(wide_cover) == cover_to_dot(narrow_cover)
        assert cover_report(wide_cover.gog) == cover_report(narrow_cover.gog)
    assert nodes and dihedral


def test_quotient_readers_take_the_graph_of_groups_alone(a5):
    # the graph of groups holds its datum, and so the group: no reader takes
    # either again, and neither a cover nor a subgroup keeps a second copy
    datum = audit.a5_dihedral_degenerations(a5)[0].datum
    gog = dual_graph_of_groups(datum)
    assert gog.datum is datum and gog.connected is True
    assert build_cover(datum).gog.datum is datum
    assert "datum" not in CoverCurve.__slots__ and Subgroup.__slots__ == ("members",)
    for reader in (cover_report, de_rham_character, node_class_summary,
                   covers._component_genera):
        assert list(inspect.signature(reader).parameters) == ["gog"]
    for method in (DualGraphOfGroups.edge_orders, DualGraphOfGroups.to_dot):
        assert list(inspect.signature(method).parameters) == ["self"]


def test_cover_dot_and_report(a5):
    datum = audit.a5_dihedral_degenerations(a5)[0].datum
    cover = build_cover(datum)
    dot = cover_to_dot(cover)
    assert 'label="g=0 |H|=60"' in dot
    assert dot.count('v0 -- v0 [label="10"]') == 6
    report = cover_report(dual_graph_of_groups(datum))
    assert report["component_count"] == 1
    assert report["node_count"] == 6
    assert report["arithmetic_genus"] == 6
    assert report["node_classes"] == [
        {"kind": "dihedral", "stabilizer_order": 10, "count": 6}]


@pytest.mark.parametrize("fixture,seed", [("s3", 36), ("s4", 37), ("d5", 38), ("a5", 39)])
def test_quotient_formulas_match_explicit_action(fixture, seed, request):
    # node classes and chi_dR come from the graph of groups; the deck action
    # tables are the independent oracle
    G = request.getfixturevalue(fixture)
    rng = random.Random(seed)
    pairs = inverting_pairs(G)
    data = [random_valid_datum(G, rng, pairs) for _ in range(30)]
    # dihedral degenerations of rational triangles: nodal all-rational covers
    for t in random_rational_generating_tuples(G, rng, 2):
        data += [deg.datum for i in range(len(t)) for deg in dihedral_degenerations(t, i)[:1]]
    # and a dihedral point with m = e, where K_e is trivial and E_e = <s>
    s, g = next(s for m, s in pairs if m == G.identity), rng.randrange(G.order)
    data.append(BoundaryDatum(G, (MarkedComponent(0, (), (
        MarkedPoint.dihedral(G.identity, s), MarkedPoint.cyclic(g),
        MarkedPoint.cyclic(G.inv(g)))),)))
    rational = trivial_m = 0
    for datum in data:
        cover = build_cover(datum)
        gog, action = cover.gog, deck_action(cover)
        edge_groups = [G.generated_subgroup(label) for label in gog.edge_labels]  # <m, s>
        trivial_m += any(m == G.identity != s for m, s in gog.edge_labels)
        buckets: dict = {}
        for k, (e, a, _) in enumerate(cover.nodes):
            images = [action.edge_images[g][2 * k] for g in range(G.order)]
            stab = tuple(g for g, image in enumerate(images) if image // 2 == k)
            kind = "dihedral" if 2 * k + 1 in images else "cyclic"
            # the stabilizer is r E_e r^-1, r representing branch a's coset r<m>
            r = cover.edge_mcosets[e].cells[a][0]
            assert kind == ("dihedral" if len(gog.edge_ends[e]) == 1 else "cyclic")
            assert stab == tuple(sorted(conj(G, r, h) for h in edge_groups[e].members))
            buckets[kind, len(stab)] = buckets.get((kind, len(stab)), 0) + 1
        assert node_class_summary(gog) == [
            {"kind": kind, "stabilizer_order": order, "count": count}
            for (kind, order), count in sorted(buckets.items())]
        report = cover_report(gog)
        assert report == explicit_cover_report(cover)
        rep = de_rham_character(gog)
        fixed, signed = lefschetz_counts(action)
        assert rep.edge_induction_sum == signed
        if not any(cover.genera):
            assert rep.chi_normalization == tuple(2 * f for f in fixed)
            assert rep.chi_dR == tuple(2 * (f - e) for f, e in zip(fixed, signed))
            rational += 1
    assert rational >= 5
    assert trivial_m


@pytest.mark.parametrize("fixture,seed", [("s3", 41), ("s4", 42), ("s5", 43)])
def test_pipeline_subgroups_are_closed(fixture, seed, request, monkeypatch):
    # Subgroup trusts its callers; record every one the pipeline builds
    # (component images, <m>, <m, s>, and the K_P of the quotient graph's
    # pieces) and check closure here instead.  A piece needs a K_P beyond its
    # one H_Y when it has more than one component or a dihedral point; each
    # K_P contains the vertex groups of its piece
    G = request.getfixturevalue(fixture)
    built: list[Subgroup] = []
    check = Subgroup.__post_init__
    monkeypatch.setattr(Subgroup, "__post_init__", lambda self: (check(self), built.append(self)))
    rng = random.Random(seed)
    pairs = inverting_pairs(G)
    dihedral = pieces = 0
    for _ in range(12):
        datum = random_valid_datum(G, rng, pairs)
        if rng.random() < 0.3:
            datum = disjoint_union(datum, random_valid_datum(G, rng, pairs))
        dihedral += len(datum.dihedral_points())
        gog = dual_graph_of_groups(datum)
        on_dihedral = {gog.piece_of[ci] for ci, _ in datum.dihedral_points()}
        for P, K in enumerate(gog.piece_groups):
            comps = [ci for ci, piece in enumerate(gog.piece_of) if piece == P]
            pieces += len(comps) > 1 or P in on_dihedral
            assert all(set(K.members).issuperset(gog.vertex_groups[ci].members) for ci in comps)
        cover_report(gog)
        de_rham_character(gog)
    assert dihedral > 0 and pieces > 0
    for H in {H.members: H for H in built}.values():
        assert_closed(G, H)


@pytest.mark.parametrize("path", PIECE_DATA)
def test_report_and_characters_close_no_subgroup(path, monkeypatch):
    # every closure on the analyze path is taken by the graph of groups: the
    # cover block and the characters only read it, K_P and connectivity included
    datum = load_datum(path)
    gog = dual_graph_of_groups(datum)

    def fail(*_):
        raise AssertionError("a subgroup was closed outside the graph of groups")

    monkeypatch.setattr(datum.group, "generated_subgroup", fail)
    monkeypatch.setattr(datum.group, "cyclic_subgroup", fail)
    report = cover_report(gog)
    assert (de_rham_character(gog).h1_character is None) == (not report["connected"])


def random_generating_tuples(G: PermGroup, rng: random.Random, want: int) -> list[HurwitzTuple]:
    """Product-one tuples of 3 or 4 non-identity entries that generate G."""
    out = []
    while len(out) < want:
        entries = [rng.randrange(1, G.order) for _ in range(rng.randrange(2, 4))]
        entries.append(G.inv(G.product(entries)))
        if entries[-1] != G.identity and G.generated_subgroup(entries).order == G.order:
            out.append(HurwitzTuple(G, tuple(entries)))
    return out


@pytest.mark.parametrize("fixture,seed", [("s4", 51), ("d5", 52), ("a5", 53), ("psl27", 54)])
def test_cover_over_a_dihedral_point_depends_on_the_coset_of_s(fixture, seed, request):
    # the inverting involutions of m fall into cosets s<m>, and the explicit
    # cover is the same for each s in one coset; the DOT text alone does not
    # tell the cosets apart, so no count of distinct texts is asserted
    G = request.getfixturevalue(fixture)
    rng = random.Random(seed)
    indices = 0
    for t in random_generating_tuples(G, rng, 6):
        for i, m in enumerate(t.entries):
            dots = {d.datum.point(0, i).s: cover_to_dot(build_cover(d.datum))
                    for d in dihedral_degenerations(t, i)}
            assert {G.mul(s, m) for s in dots} == dots.keys()
            # s*m^j for every j, by stepping s -> s*m through the coset
            assert all(dots[G.mul(s, m)] == dot for s, dot in dots.items())
            indices += bool(dots)
    assert indices >= 6


def golden_inputs() -> list[tuple[str, BoundaryDatum]]:
    """Every valid datum the golden cases read: each input file outside
    ``tests/golden/invalid``, tuple or datum, with all of its split and
    dihedral degenerations."""
    out, seen = [], set()
    for argv in golden_argvs().values():
        if len(argv) < 2 or argv[1] in seen or argv[1].startswith("tests/golden/invalid/"):
            continue
        seen.add(argv[1])
        d = datum_from_jsonable(json.loads((ROOT / argv[1]).read_text(encoding="utf-8")))
        out.append((argv[1], d))
        degs = split_degenerations(d) + [
            deg for ci, comp in enumerate(d.components) for pi, pt in enumerate(comp.points)
            if pt.kind == CYCLIC for deg in dihedral_degenerations(d, pi, ci)]
        out += [(f"{argv[1]} {deg.kind} at {deg.component}:{deg.index}", deg.datum)
                for deg in degs]
    return out


def test_cover_report_matches_explicit_cover_on_golden_inputs():
    data = golden_inputs()
    for name, datum in data:
        assert quotient_report(datum) == explicit_cover_report(build_cover(datum)), name
    # the pinned multi-piece and disconnected cases are among them
    assert sum(not quotient_report(d)["connected"] for _, d in data) >= 1
    assert len(data) >= 30


def test_built_graphs_pair_each_edge_with_its_reverse_on_golden_inputs():
    # GenGraph checks nothing, so both graphs the package builds are checked
    # here: the quotient's loops are its dihedral points, and the cover has none
    for _, datum in golden_inputs():
        gog = dual_graph_of_groups(datum)
        assert_opposite_edges(gog.graph, [ends[0][0] for ends in gog.edge_ends if len(ends) == 1])
        assert_opposite_edges(build_cover(datum).graph, [])
