from __future__ import annotations

import random

import pytest

from hurwitzdegen import (BoundaryDatum, HurwitzTuple, MarkedComponent, MarkedPoint,
                          PermGroup, canonical_form, datum_from_jsonable, datum_to_jsonable,
                          dual_graph_of_groups, equivalent, is_inverting_involution,
                          perm_from_cycles, tuple_from_jsonable, tuple_to_jsonable, validate)
from hurwitzdegen import audit, groups
from hurwitzdegen.boundary import datum_warnings, unstable_components
from hurwitzdegen.errors import InvalidDatum, SchemaError

from conftest import (PIECE_DATA, a5_smoothed_tuple, a5_split_datum, canonical_form_by_scan,
                      closure_by_bfs, conjugate_datum, datum_ids, exact_key, generator_ids,
                      inverting_pairs, load_datum, random_valid_datum)


def test_marked_point_shape_guards():
    with pytest.raises(ValueError):
        MarkedPoint("cyclic", 0, 1, None)
    with pytest.raises(ValueError):
        MarkedPoint("dihedral", 0, None, None)
    with pytest.raises(ValueError):
        MarkedPoint("node", 0, None, None)
    with pytest.raises(ValueError):
        MarkedPoint("weird", 0, None, None)


def test_bare_quotient_validates_but_is_unstable():
    G = PermGroup([], degree=1)
    datum = BoundaryDatum(G, (MarkedComponent(0, (), ()),))
    assert validate(datum) == []
    assert unstable_components(datum) == [0]


def test_a5_dihedral_datum_validates(a5):
    datum = audit.a5_dihedral_degenerations(a5)[0].datum
    assert validate(datum) == []
    assert unstable_components(datum) == []
    m = datum.components[0].points[0].m
    g1 = datum.components[0].points[1].m
    g2 = datum.components[0].points[2].m
    assert (a5.element_order(m), a5.element_order(g1), a5.element_order(g2)) == (5, 2, 3)
    assert a5.generated_subgroup([m, g1, g2]).order == 60


def test_dihedral_violation_when_s_in_cyclic_part(a5):
    good = audit.a5_dihedral_degenerations(a5)[0].datum
    comp = good.components[0]
    pts = list(comp.points)
    pts[0] = MarkedPoint.dihedral(pts[0].m, a5.identity)
    bad = BoundaryDatum(a5, (MarkedComponent(0, (), tuple(pts)),))
    kinds = [v.kind for v in validate(bad)]
    assert kinds == ["DihedralInvolution"]


def test_surface_relation_violation(s3):
    t = s3.id_of(perm_from_cycles(3, (0, 1)))
    datum = BoundaryDatum(s3, (MarkedComponent(0, (), (
        MarkedPoint.cyclic(t), MarkedPoint.cyclic(t), MarkedPoint.cyclic(t))),))
    kinds = [v.kind for v in validate(datum)]
    assert kinds == ["SurfaceRelation"]


def test_surface_relation_through_a_handle(s3):
    # the points multiply to e, so only the handle's commutator [a, b] breaks the relation
    t = s3.id_of(perm_from_cycles(3, (0, 1)))
    r = s3.id_of(perm_from_cycles(3, (0, 1, 2)))
    comm = s3.product((t, r, s3.inv(t), s3.inv(r)))
    assert comm != s3.identity
    points = (MarkedPoint.cyclic(t), MarkedPoint.cyclic(t))
    datum = BoundaryDatum(s3, (MarkedComponent(1, ((t, r),), points),))
    assert [(v.kind, v.location) for v in validate(datum)] == [("SurfaceRelation", "component 0")]
    closed = (*points, MarkedPoint.cyclic(s3.inv(comm)))
    assert validate(BoundaryDatum(s3, (MarkedComponent(1, ((t, r),), closed),))) == []


def test_node_pairing_violations(s3):
    t = s3.id_of(perm_from_cycles(3, (0, 1)))
    r = s3.id_of(perm_from_cycles(3, (0, 1, 2)))
    # ends with non-inverse monodromies
    comp_a = MarkedComponent(0, (), (
        MarkedPoint.node_end(r, 0), MarkedPoint.cyclic(s3.inv(r)),
        MarkedPoint.cyclic(s3.identity)))
    comp_b = MarkedComponent(0, (), (
        MarkedPoint.node_end(t, 0), MarkedPoint.cyclic(t),
        MarkedPoint.cyclic(s3.identity)))
    datum = BoundaryDatum(s3, (comp_a, comp_b))
    assert [v.kind for v in validate(datum)] == ["NodePairing"]
    # dangling node id
    dangling = BoundaryDatum(s3, (comp_a,))
    assert [v.kind for v in validate(dangling)] == ["NodePairing"]


def test_tuple_is_a_one_component_datum(a5, psl27):
    g = a5.id_of(perm_from_cycles(5, (0, 1, 2)))
    two = HurwitzTuple(a5, (g, a5.inv(g)))
    assert isinstance(two, BoundaryDatum) and validate(two) == []
    (comp,) = two.components
    assert (comp.genus, comp.handles) == (0, ())
    assert comp.points == (MarkedPoint.cyclic(g), MarkedPoint.cyclic(a5.inv(g)))
    assert two.entries == (g, a5.inv(g)) and len(two) == 2
    assert repr(two) == f"HurwitzTuple(group={a5!r}, components={two.components!r})"

    t3 = audit.a5_tuple(a5)
    assert tuple(map(a5.element_order, t3.entries)) == (5, 2, 3)
    assert validate(t3) == []

    tp = audit.psl27_tuple(psl27)
    assert tuple(map(psl27.element_order, tp.entries)) == (7, 2, 3)
    assert validate(tp) == []


def test_product_not_one(s3):
    # the loader does not check the product: validate reports it as the
    # surface relation of component 0, on the tuple as on its datum form
    t = s3.id_of(perm_from_cycles(3, (0, 1)))
    loaded = tuple_from_jsonable(tuple_to_jsonable(HurwitzTuple(s3, (t, s3.identity))))
    assert isinstance(loaded, HurwitzTuple) and loaded.entries == (t, s3.identity)
    violations = validate(loaded)
    assert [(v.kind, v.location) for v in violations] == [("SurfaceRelation", "component 0")]
    assert validate(datum_from_jsonable(datum_to_jsonable(loaded))) == violations


def test_identity_monodromy_warning(s3):
    datum = BoundaryDatum(s3, (MarkedComponent(0, (), (
        MarkedPoint.cyclic(s3.identity), MarkedPoint.cyclic(s3.identity),
        MarkedPoint.cyclic(s3.identity))),))
    assert validate(datum) == []
    assert len(datum_warnings(datum)) == 3


def test_dual_graph_shapes(a5):
    G = PermGroup([], degree=1)
    bare = BoundaryDatum(G, (MarkedComponent(0, (), ()),))
    dg = dual_graph_of_groups(bare)
    assert dg.graph.vertex_count == 1 and len(dg.graph.edges) == 0

    dihedral = dual_graph_of_groups(audit.a5_dihedral_degenerations(a5)[0].datum)
    assert dihedral.graph.vertex_count == 1
    assert dihedral.graph.unoriented_reps() == (0,)
    assert dihedral.graph.opp == (0,)            # self-opposite edge
    assert [H.order for H in dihedral.vertex_groups] == [60]
    (m, s), = dihedral.edge_labels
    assert s != a5.identity and a5.element_order(m) == 5      # E_e = <m, s>, K_e = <m>
    assert dihedral.edge_orders() == [10]

    split = dual_graph_of_groups(a5_split_datum(a5))
    assert split.graph.vertex_count == 2
    assert split.graph.opp == (1, 0)
    assert len(split.graph.unoriented_reps()) == 1
    assert [H.order for H in split.vertex_groups] == [10, 60]
    (m, s), = split.edge_labels
    assert s == a5.identity and a5.element_order(m) == 5      # E_e = K_e = <m> at a node
    assert split.edge_orders() == [5]


@pytest.mark.parametrize("fixture,seed", [("s3", 61), ("s4", 62), ("d5", 63), ("a5", 64)])
def test_graph_of_groups_against_plain_closure(fixture, seed, request):
    # H_Y = <handles, point monodromies>; the label (m, s) gives |E_e| = |<m, s>|
    # and |K_e| = |<m>|, each against a breadth-first closure that never stops early
    G = request.getfixturevalue(fixture)
    rng = random.Random(seed)
    pairs = inverting_pairs(G)
    kinds = set()
    for _ in range(30):
        datum = random_valid_datum(G, rng, pairs)
        gog = dual_graph_of_groups(datum)
        for ci, comp in enumerate(datum.components):
            gens = [x for a, b in comp.handles for x in (a, b)] + [pt.m for pt in comp.points]
            assert frozenset(gog.vertex_groups[ci].members) == closure_by_bfs(G, gens)
        assert gog.edge_ends == tuple(datum.nodes()) + tuple(
            (point,) for point in datum.dihedral_points())
        for ends, (m, s), order in zip(gog.edge_ends, gog.edge_labels, gog.edge_orders()):
            first = datum.point(*ends[0])
            assert m == first.m
            if len(ends) == 2:  # a node: <m_a> = <m_b>
                assert s == G.identity
                assert closure_by_bfs(G, [m]) == closure_by_bfs(G, [datum.point(*ends[1]).m])
            else:
                assert s == first.s != G.identity
            assert order == len(closure_by_bfs(G, [m, s]))
            assert G.element_order(m) == len(closure_by_bfs(G, [m]))
            kinds.add(len(ends))
        for P, K in enumerate(gog.piece_groups):  # K_P = <P's generators and dihedral s's>
            comps = [ci for ci, piece in enumerate(gog.piece_of) if piece == P]
            gens = [x for ci in comps for a, b in datum.components[ci].handles for x in (a, b)]
            gens += [x for ci in comps for pt in datum.components[ci].points
                     for x in (pt.m, pt.s) if x is not None]
            assert frozenset(K.members) == closure_by_bfs(G, gens)
    assert kinds == {1, 2}


def test_piece_group_read_off_its_largest_vertex_group(s4, monkeypatch):
    # Y0 = <a, b> = A4 holds Y1's monodromies, so K_P is H_Y0, not closed again
    G = s4
    a, b, d = (G.id_of(perm_from_cycles(4, *cyc)) for cyc in
               [[(0, 1, 2)], [(1, 2, 3)], [(0, 1), (2, 3)]])
    c = G.inv(G.mul(a, b))
    C, N = MarkedPoint.cyclic, MarkedPoint.node_end
    datum = BoundaryDatum(G, (MarkedComponent(0, (), (C(a), C(b), N(c, 0))),
                              MarkedComponent(0, (), (N(G.inv(c), 0), C(d),
                                                      C(G.mul(G.inv(d), c))))))
    closed = []
    monkeypatch.setattr(G, "generated_subgroup",
                        lambda gen_ids: closed.append(gen_ids)
                        or PermGroup.generated_subgroup(G, gen_ids))
    gog = dual_graph_of_groups(datum)
    assert len(closed) == 2  # the two vertex groups only
    H0, H1 = gog.vertex_groups
    assert H0.order == 12 and set(H1.members) < set(H0.members)
    assert gog.piece_groups == (H0,) and not gog.connected
    assert frozenset(H0.members) == closure_by_bfs(G, [a, b, c, d])


def test_dual_graph_closes_vertex_and_piece_groups(monkeypatch):
    # one closure per quotient component and one per piece P whose K_P is not
    # a vertex group; an edge is its label, never a subgroup
    def fail(*_):
        raise AssertionError("an edge subgroup was closed")

    for path, closures in PIECE_DATA.items():
        datum = load_datum(path)
        G, closed = datum.group, []

        def count(gen_ids, G=G):
            closed.append(gen_ids)
            return PermGroup.generated_subgroup(G, gen_ids)

        monkeypatch.setattr(G, "generated_subgroup", count)
        monkeypatch.setattr(G, "cyclic_subgroup", fail)
        gog = dual_graph_of_groups(datum)
        assert len(closed) == closures, path
        assert len(gog.vertex_groups) == len(datum.components) == gog.graph.vertex_count


def test_dual_graph_requires_valid_datum(s3):
    t = s3.id_of(perm_from_cycles(3, (0, 1)))
    bad = BoundaryDatum(s3, (MarkedComponent(0, (), (
        MarkedPoint.cyclic(t),)),))
    with pytest.raises(InvalidDatum):
        dual_graph_of_groups(bad)


def test_quotient_stability_cases(a5):
    datum = audit.a5_dihedral_degenerations(a5)[0].datum
    assert unstable_components(datum) == []  # 1 dihedral + 2 cyclic
    g = a5.id_of(perm_from_cycles(5, (0, 1, 2)))
    two_points = HurwitzTuple(a5, (g, a5.inv(g)))
    assert unstable_components(two_points) == [0]
    assert unstable_components(a5_split_datum(a5)) == []  # node + 2 cyclic on each side


def test_canonical_form_properties(s4):
    rng = random.Random(4)
    pairs = inverting_pairs(s4)
    for _ in range(20):
        datum = random_valid_datum(s4, rng, pairs)
        cf = canonical_form(datum)
        assert cf == canonical_form_by_scan(datum)  # the shape and the least conjugate ids
        g = rng.randrange(s4.order)
        assert equivalent(datum, conjugate_datum(datum, g))
        assert canonical_form(conjugate_datum(datum, g)) == cf


def abelian_datum(G: PermGroup, rng: random.Random) -> BoundaryDatum:
    """A valid datum whose ids lie in an abelian subgroup <x, y>.

    Its centralizer contains <x, y>, so many conjugators tie on every id.
    """
    x = rng.randrange(G.order)
    y = rng.choice([g for g in range(G.order) if G.mul(g, x) == G.mul(x, g)])
    A = G.generated_subgroup([x, y]).members
    genus = rng.randrange(2)
    handles = tuple((rng.choice(A), rng.choice(A)) for _ in range(genus))  # commutators are e
    pts = [MarkedPoint.cyclic(rng.choice(A)) for _ in range(rng.randrange(1, 4))]
    pairs = [(m, s) for m in A for s in A if is_inverting_involution(G, m, s)]
    if pairs:
        pts.append(MarkedPoint.dihedral(*rng.choice(pairs)))
    pts.append(MarkedPoint.cyclic(G.inv(G.product(pt.m for pt in pts))))
    return BoundaryDatum(G, (MarkedComponent(genus, handles, tuple(pts)),))


def central_first_datum(G: PermGroup, rng: random.Random, z: int,
                        pairs: list[tuple[int, int]]) -> BoundaryDatum:
    """A valid datum whose first id is z, central in G.

    Then C_G(z) = G and every element of G is a first candidate.
    """
    genus = rng.randrange(2)
    handles = tuple((z, rng.randrange(G.order)) for _ in range(genus))  # [z, b] = e
    pts = [] if handles else [MarkedPoint.cyclic(z)]
    pts += [MarkedPoint.cyclic(rng.randrange(G.order)) for _ in range(rng.randrange(1, 4))]
    if pairs and rng.random() < 0.5:
        pts.append(MarkedPoint.dihedral(*rng.choice(pairs)))
    pts.append(MarkedPoint.cyclic(G.inv(G.product(pt.m for pt in pts))))
    return BoundaryDatum(G, (MarkedComponent(genus, handles, tuple(pts)),))


@pytest.mark.parametrize("fixture", ["s3", "d4", "s4", "d5", "a5", "s5", "psl27", "s4_on_257"])
def test_canonical_form_matches_scan(fixture, request, monkeypatch):
    shared = request.getfixturevalue(fixture)
    G = PermGroup(shared.generators, degree=shared.degree)  # fresh: no class record is cached
    rng = random.Random(G.order)
    pairs = inverting_pairs(G)
    data = [random_valid_datum(G, rng, pairs) for _ in range(24)]
    # the oracle only means something if the inputs reach every id kind
    assert any(comp.handles for d in data for comp in d.components)
    assert any(d.dihedral_points() for d in data)
    assert any(len(d.components) == 2 for d in data)
    data += [abelian_datum(G, rng) for _ in range(12)]
    centre = [z for z in range(G.order)
              if all(G.mul(z, g) == G.mul(g, z) for g in generator_ids(G))]
    assert len(centre) == (2 if fixture == "d4" else 1)  # D4's centre is {e, r^2}
    data += [central_first_datum(G, rng, z, pairs) for z in centre for _ in range(6)]
    built, build = [], groups._class_record
    monkeypatch.setattr(groups, "_class_record",
                        lambda group, x: built.append(x) or build(group, x))
    scans = [canonical_form_by_scan(d) for d in data]
    for d, scan in zip(data, scans):
        assert canonical_form(d) == scan
    # a leading central id is its own least conjugate: its record (C_G = G) is never built
    assert built and not set(built) & set(centre)
    # again in a fresh group whose non-central records are all built first,
    # so a cached record, not a centrality test, answers for every other id
    H = PermGroup(G.generators, degree=G.degree)
    for c in H.conjugacy_classes():
        if c[0] not in centre:
            H.class_record(c[0])
    assert set(H._records) == set(range(H.order)) - set(centre)
    tested, is_central = [], groups._is_central
    monkeypatch.setattr(groups, "_is_central",
                        lambda group, x: tested.append(x) or is_central(group, x))
    for d, scan in zip(data, scans):
        assert canonical_form(BoundaryDatum(H, d.components)) == scan
    # only the central ids, which have no record, are tested for centrality
    assert tested and set(tested) <= set(centre)
    assert not set(H._records) & set(centre)


def test_non_conjugate_data_distinguished(a5):
    degs = audit.a5_dihedral_degenerations(a5)
    base = degs[0].datum
    comp = base.components[0]
    # swap the two cyclic points: monodromies now (5, 3, 2) order pattern
    other = BoundaryDatum(a5, (MarkedComponent(0, (), (
        comp.points[0],
        MarkedPoint.cyclic(a5.mul(comp.points[1].m, a5.mul(
            comp.points[2].m, a5.inv(comp.points[1].m)))),
        comp.points[1])),))
    assert validate(other) == []
    assert not equivalent(base, other)


def test_keys_separate_shapes_whose_ids_coincide(s4):
    # each pair lists the same ids in the same order, so only the shape tells
    # them apart; validity does not matter to the key
    G = s4
    a, b, c, d = (G.id_of(perm_from_cycles(4, *cyc)) for cyc in
                  [[(0, 1)], [(0, 1, 2)], [(1, 2, 3)], [(0, 2), (1, 3)]])
    m = G.id_of(perm_from_cycles(4, (0, 1, 2, 3)))
    s = G.id_of(perm_from_cycles(4, (1, 3)))
    assert is_inverting_involution(G, m, s)
    C, D, N = MarkedPoint.cyclic, MarkedPoint.dihedral, MarkedPoint.node_end

    def datum(*comps) -> BoundaryDatum:  # each component: its handles, then its points
        return BoundaryDatum(G, tuple(MarkedComponent(len(h), h, pts) for h, pts in comps))

    pairs = {
        "cyclic m, node end m": (datum(((), (C(m), C(G.inv(m))))),
                                 datum(((), (N(m, 0), N(G.inv(m), 0))))),
        # as many points on each side, so the kinds alone tell them apart
        "dihedral (m, s), cyclic m then s": (datum(((), (D(m, s), C(c), C(d)))),
                                             datum(((), (C(m), C(s), D(c, d))))),
        "genus-1 handle (a, b), cyclic a, b": (datum((((a, b),), (C(c),))),
                                               datum(((), (C(a), C(b), C(c))))),
        # the same points on each component, so the genera alone tell them apart
        "a handle on either component": (datum((((a, b),), (C(c),)), ((), (C(d),))),
                                         datum(((), (C(a),)), (((b, c),), (C(d),)))),
        "node id": (datum(((), (C(a), N(b, 0))), ((), (N(G.inv(b), 0), C(c)))),
                    datum(((), (C(a), N(b, 1))), ((), (N(G.inv(b), 1), C(c))))),
    }
    for name, (x, y) in pairs.items():
        assert datum_ids(x) == datum_ids(y), name
        kx, ky = canonical_form(x), canonical_form(y)
        assert kx[1] == ky[1] and kx != ky, name
        assert not equivalent(x, y), name


def test_canonical_form_accepts_invalid_datum(s3):
    # conjugation needs no validity: an inadmissible datum gets its least
    # conjugate, which is just as inadmissible
    t = s3.id_of(perm_from_cycles(3, (1, 2)))
    c = s3.id_of(perm_from_cycles(3, (0, 1, 2)))
    bad = BoundaryDatum(s3, (MarkedComponent(0, (), (
        MarkedPoint.cyclic(t), MarkedPoint.dihedral(t, t), MarkedPoint.node_end(c, 5))),))
    assert {v.kind for v in validate(bad)} == {"SurfaceRelation", "NodePairing",
                                                "DihedralInvolution"}
    conjugates = [conjugate_datum(bad, g) for g in range(s3.order)]
    for conj in conjugates:
        assert canonical_form(conj) == canonical_form_by_scan(bad)
    least = next(c for c in conjugates if exact_key(c) == canonical_form(bad))
    assert validate(least) == validate(bad)


def test_equivalent_needs_matching_groups(a5, s4):
    e5 = HurwitzTuple(a5, (a5.identity, a5.identity))
    e4 = HurwitzTuple(s4, (s4.identity, s4.identity))
    assert not equivalent(e5, e4)


def test_dual_graph_edge_ends(a5):
    split = a5_split_datum(a5)
    assert split.nodes() == [((0, 2), (1, 0))]
    assert dual_graph_of_groups(split).edge_ends == (((0, 2), (1, 0)),)
    dihedral = dual_graph_of_groups(audit.a5_dihedral_degenerations(a5)[0].datum)
    assert dihedral.edge_ends == (((0, 0),),)


def test_datum_json_round_trip(a5):
    datum = a5_split_datum(a5)
    clone = datum_from_jsonable(datum_to_jsonable(datum))
    assert exact_key(clone) == exact_key(datum)
    assert clone.group.elements == a5.elements


def test_tuple_json_round_trip(a5):
    t = a5_smoothed_tuple(a5)
    clone = tuple_from_jsonable(tuple_to_jsonable(t))
    assert clone.entries == t.entries


@pytest.mark.parametrize("mutate,path_part", [
    (lambda obj: obj.pop("group"), "$.group"),
    (lambda obj: obj.pop("components"), "$.components"),
    (lambda obj: obj["components"][0]["points"][0].pop("m"), "points[0]"),
    (lambda obj: obj["components"][0]["points"][0].update(kind="odd"), "kind"),
    (lambda obj: obj["components"][0]["points"][0].update(m=[1, 0, 2, 3, 4]),
     "points[0].m"),  # odd permutation, not a member
    (lambda obj: obj["components"][0]["points"][2].pop("node"), "node"),
    # JSON booleans and strings are not integers
    (lambda obj: obj["components"][0].update(genus=False), "components[0].genus"),
    (lambda obj: obj["components"][0]["points"][2].update(node=True), "points[2].node"),
    (lambda obj: obj["components"][0]["points"][1].update(m=[False, True, 2, 3, 4]),
     "points[1].m"),
    (lambda obj: obj["group"].update(degree="5"), "$.group.degree"),
    (lambda obj: obj["group"]["generators"][0].__setitem__(0, True), "$.group.generators"),
    # wrong shapes for handles and points, handle count against genus
    pytest.param(lambda obj: obj["components"][0].update(handles=5),
                 "$.components[0].handles", id="handles-not-a-list"),
    pytest.param(lambda obj: obj["components"][0].update(points=5),
                 "$.components[0].points", id="points-not-a-list"),
    pytest.param(lambda obj: obj["components"][0].update(genus=1, handles=[]),
                 "$.components[0].handles", id="handles-short-of-genus"),
    pytest.param(lambda obj: obj["group"].update(degree=-1, generators=[]),
                 "$.group.degree", id="negative-degree"),
    pytest.param(lambda obj: obj.update(components=[]),
                 "$.components: expected a non-empty list", id="empty-components"),
    pytest.param(lambda obj: obj["components"][0]["points"][0].update(s=[0, 1, 2, 3, 4]),
                 "$.components[0].points[0].s", id="s-on-cyclic-point"),
    pytest.param(lambda obj: obj["components"][1]["points"][0].update(s=[0, 1, 2, 3, 4]),
                 "$.components[1].points[0].s", id="s-on-node-end"),
    pytest.param(lambda obj: obj["components"][0]["points"][1].update(node=0),
                 "$.components[0].points[1].node", id="node-on-cyclic-point"),
    pytest.param(lambda obj: obj["components"][0]["points"][0].update(
        kind="dihedral", s=[0, 1, 2, 3, 4], node=0),
                 "$.components[0].points[0].node", id="node-on-dihedral-point"),
])
def test_datum_schema_errors(a5, mutate, path_part):
    datum = a5_split_datum(a5)
    obj = datum_to_jsonable(datum)
    mutate(obj)
    with pytest.raises(SchemaError) as err:
        datum_from_jsonable(obj)
    assert path_part in str(err.value)


def test_tuple_schema_errors(a5):
    t = audit.a5_tuple(a5)
    obj = tuple_to_jsonable(t)
    # a product other than e is a validation failure (test_product_not_one), not a schema one
    obj["entries"] = obj["entries"][:2] + [[0, 1]]
    with pytest.raises(SchemaError, match=r"\$\.entries\[2\]: "):
        tuple_from_jsonable(obj)
    obj["entries"] = []
    with pytest.raises(SchemaError, match=r"\$\.entries: expected a non-empty list"):
        tuple_from_jsonable(obj)


def test_validate_on_random_product_one_tuples(s4):
    rng = random.Random(44)
    for _ in range(50):
        entries = [rng.randrange(s4.order) for _ in range(rng.randrange(2, 6))]
        entries.append(s4.inv(s4.product(entries)))
        t = HurwitzTuple(s4, tuple(entries))
        assert validate(t) == []


def test_canonical_form_of_datum_without_ids(s3):
    # no handles and no points: nothing for conjugation to move
    d = BoundaryDatum(s3, (MarkedComponent(0, (), ()),))
    assert canonical_form(d) == exact_key(d) == canonical_form_by_scan(d)
