from __future__ import annotations

import pytest

from hurwitzdegen import GenGraph, GraphAction, PermGroup, build_cover, gengraph_to_dot, inner
from hurwitzdegen import audit

from conftest import (a5_split_datum, characters, check_action, deck_action, generator_ids,
                      lefschetz_counts, quotient_report)


def test_gengraph_invariants():
    g = GenGraph.from_unoriented(2, [(0, 1)])
    assert g.opp == (1, 0)
    assert g.unoriented_reps() == (0,)
    loop = GenGraph.from_unoriented(1, [], self_opposite=[0])
    assert loop.opp == (0,)
    assert loop.unoriented_reps() == (0,)


def test_worked_cover_graphs(a5):
    degs = audit.a5_dihedral_degenerations(a5)
    cover = build_cover(degs[0].datum)
    # one vertex carrying 6 loop edge pairs
    assert cover.graph.vertex_count == 1
    assert len(cover.graph.unoriented_reps()) == 6
    assert cover.graph.connected_component_ids() == [0]
    assert quotient_report(degs[0].datum)["arithmetic_genus"] == 6
    split = build_cover(a5_split_datum(a5))
    # 7 vertices, 12 edges, connected
    assert split.graph.vertex_count == 7
    assert len(split.graph.unoriented_reps()) == 12
    assert split.graph.connected_component_ids() == [0] * 7
    assert quotient_report(a5_split_datum(a5))["arithmetic_genus"] == 6


def test_a5_dihedral_cover_orbit(a5):
    datum = audit.a5_dihedral_degenerations(a5)[0].datum
    assert quotient_report(datum)["node_classes"] == [
        {"kind": "dihedral", "stabilizer_order": 10, "count": 6}]
    fixed, signed = lefschetz_counts(deck_action(build_cover(datum)))
    # triv - Ind_{D10}(signum), V - E at the identity
    chi = tuple(f - e for f, e in zip(fixed, signed))
    assert chi == (1 - 6, 1 + 2, 1, 1 - 1, 1 - 1)
    assert characters(datum).chi_dR == tuple(2 * x for x in chi)


def test_a5_split_cover_orbit(a5):
    datum = a5_split_datum(a5)
    assert quotient_report(datum)["node_classes"] == [
        {"kind": "cyclic", "stabilizer_order": 5, "count": 12}]
    fixed, signed = lefschetz_counts(deck_action(build_cover(datum)))
    assert (fixed[0], signed[0]) == (7, 12)
    assert characters(datum).chi_dR[0] == 2 * (7 - 12)


@pytest.mark.parametrize("table", ["vertex_images", "edge_images"])
def test_action_rejects_broken_non_generator_row(a5, table):
    # only the identity and generator rows are checked directly; the
    # homomorphism check must still catch a fault in any other row
    action = deck_action(build_cover(a5_split_datum(a5)))
    g = next(g for g in range(1, a5.order) if g not in generator_ids(a5))
    rows = [list(row) for row in getattr(action, table)]
    rows[g][0], rows[g][1] = rows[g][1], rows[g][0]
    tables = {"vertex_images": action.vertex_images, "edge_images": action.edge_images,
              table: tuple(map(tuple, rows))}
    with pytest.raises(AssertionError):
        check_action(GraphAction(action.graph, a5, tables["vertex_images"], tables["edge_images"]))


def cayley_graph_action(G: PermGroup, gen_ids: list[int]) -> GraphAction:
    """Left multiplication on the Cayley graph of the given connection set."""
    edges = []
    opp = []
    key_to_id = {}
    for g in range(G.order):
        for s in gen_ids:
            key_to_id[(g, s)] = len(edges)
            edges.append((g, G.mul(g, s)))
            opp.append(-1)
    for (g, s), e in key_to_id.items():
        opp[e] = key_to_id[(G.mul(g, s), G.inv(s))]
    graph = GenGraph(G.order, tuple(edges), tuple(opp))
    vertex_images = tuple(tuple(G.mul(x, v) for v in range(G.order))
                          for x in range(G.order))
    edge_images = []
    for x in range(G.order):
        ei = [0] * len(edges)
        for (g, s), e in key_to_id.items():
            ei[e] = key_to_id[(G.mul(x, g), s)]
        edge_images.append(tuple(ei))
    return check_action(GraphAction(graph, G, vertex_images, tuple(edge_images)))


@pytest.mark.parametrize("fixture", ["s3", "s4"])
def test_cayley_graph_character_degree(fixture, request):
    G = request.getfixturevalue(fixture)
    connection = sorted({g for g in generator_ids(G)} | {G.inv(g) for g in generator_ids(G)})
    action = cayley_graph_action(G, connection)
    fixed, signed = lefschetz_counts(action)
    V = action.graph.vertex_count
    E = len(action.graph.unoriented_reps())
    assert (fixed[0], signed[0]) == (V, E)
    # the vertex action is free and transitive; the edge orbits are the
    # pairs {s, s^-1} of the connection set, orientable unless s is an involution
    assert fixed[1:] == (0,) * (len(fixed) - 1)
    trivial = (1,) * len(fixed)
    assert inner(G, fixed, trivial) == 1
    pairs = {frozenset((s, G.inv(s))) for s in connection}
    assert inner(G, signed, trivial) == sum(1 for p in pairs if len(p) == 2)


def test_dot_output():
    graph = GenGraph.from_unoriented(2, [(0, 1)], self_opposite=[1])
    dot = gengraph_to_dot(graph, "G", ["x", "y"], ["a", "b"])
    assert dot == ('graph G {\n'
                   '  v0 [shape=circle, label="x"];\n'
                   '  v1 [shape=circle, label="y"];\n'
                   '  v0 -- v1 [label="a"];\n'
                   '  v1 -- v1 [label="b", style=dashed];\n'
                   '}\n')
