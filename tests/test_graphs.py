from __future__ import annotations

import random

import pytest

from hurwitzdegen import (GenGraph, GraphAction, PermGroup, betti, build_cover,
                          edge_orbit_data, gengraph_to_dot, graph_virtual_character)
from hurwitzdegen import audit
from hurwitzdegen.errors import NotStrict

from conftest import inverting_pairs, random_valid_datum


def test_gengraph_invariants():
    g = GenGraph.from_unoriented(2, [(0, 1)])
    assert g.is_strict
    assert g.unoriented_reps() == (0,)
    with pytest.raises(AssertionError):
        GenGraph(2, ((0, 1), (0, 1)), (1, 0))  # opposite must reverse ends
    loop = GenGraph.from_unoriented(1, [], self_opposite=[0])
    assert not loop.is_strict
    assert loop.unoriented_reps() == (0,)


def test_betti_single_vertex():
    assert betti(GenGraph(1, (), ())) == (1, 0)


def test_betti_rejects_self_opposite():
    loop = GenGraph.from_unoriented(1, [], self_opposite=[0])
    with pytest.raises(NotStrict):
        betti(loop)


def test_betti_on_worked_cover_graphs(a5):
    degs = audit.a5_dihedral_degenerations(a5)
    cover = build_cover(degs[0].datum)
    # one vertex carrying 6 loop edge pairs
    assert cover.graph.vertex_count == 1
    assert betti(cover.graph) == (1, 6)
    split = build_cover(audit.a5_split_datum(a5))
    # 7 vertices, 12 edges, connected
    assert split.graph.vertex_count == 7
    assert len(split.graph.unoriented_reps()) == 12
    assert betti(split.graph) == (1, 6)


def test_trivial_action_orbits_orientable():
    G = PermGroup([], degree=1)
    graph = GenGraph.from_unoriented(3, [(0, 1), (1, 2), (2, 0)])
    action = GraphAction.trivial(graph, G)
    orbits = edge_orbit_data(action)
    assert len(orbits) == 3
    assert all(o.orientable for o in orbits)
    chi = graph_virtual_character(action)
    b0, b1 = betti(graph)
    assert chi.degree == 3 - 3  # V - E
    assert chi.degree == b0 - b1


def test_a5_dihedral_cover_orbit(a5):
    cover = build_cover(audit.a5_dihedral_degenerations(a5)[0].datum)
    orbits = edge_orbit_data(cover.action)
    assert len(orbits) == 1
    orbit = orbits[0]
    assert len(orbit.members) == 6
    assert orbit.stabilizer.order == 10
    assert not orbit.orientable
    chi = graph_virtual_character(cover.action)
    assert chi.degree == 1 - 6 == cover.graph.vertex_count - len(orbit.members)
    # triv - Ind_{D10}(signum)
    assert chi.values == (1 - 6, 1 + 2, 1, 1 - 1, 1 - 1)


def test_a5_split_cover_orbit(a5):
    cover = build_cover(audit.a5_split_datum(a5))
    orbits = edge_orbit_data(cover.action)
    assert len(orbits) == 1
    orbit = orbits[0]
    assert len(orbit.members) == 12
    assert orbit.stabilizer.order == 5
    assert orbit.orientable
    chi = graph_virtual_character(cover.action)
    assert chi.degree == 7 - 12


@pytest.mark.parametrize("table", ["vertex_images", "edge_images"])
def test_action_rejects_broken_non_generator_row(a5, table):
    # only the identity and generator rows are checked directly; the
    # homomorphism check must still catch a fault in any other row
    action = build_cover(audit.a5_split_datum(a5)).action
    g = next(g for g in range(1, a5.order) if g not in a5.generator_ids)
    rows = [list(row) for row in getattr(action, table)]
    rows[g][0], rows[g][1] = rows[g][1], rows[g][0]
    tables = {"vertex_images": action.vertex_images, "edge_images": action.edge_images,
              table: tuple(map(tuple, rows))}
    with pytest.raises(AssertionError):
        GraphAction(action.graph, a5, **tables)


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
    return GraphAction(graph, G, vertex_images, tuple(edge_images))


@pytest.mark.parametrize("fixture", ["s3", "s4"])
def test_cayley_graph_character_degree(fixture, request):
    G = request.getfixturevalue(fixture)
    connection = sorted({g for g in G.generator_ids} | {G.inv(g) for g in G.generator_ids})
    action = cayley_graph_action(G, connection)
    if not action.graph.is_strict:
        pytest.skip("needs a strict connection set")
    chi = graph_virtual_character(action)
    V = action.graph.vertex_count
    E = len(action.graph.unoriented_reps())
    assert chi.degree == V - E
    # free vertex action: an involution generator gives an unorientable orbit
    for orbit in edge_orbit_data(action):
        size_times_stab = len(orbit.members) * orbit.stabilizer.order
        assert size_times_stab == G.order


@pytest.mark.parametrize("fixture,seed", [("s3", 11), ("s4", 12)])
def test_character_degree_on_random_cover_actions(fixture, seed, request):
    G = request.getfixturevalue(fixture)
    rng = random.Random(seed)
    pairs = inverting_pairs(G)
    for _ in range(25):
        datum = random_valid_datum(G, rng, pairs)
        cover = build_cover(datum)
        chi = graph_virtual_character(cover.action)
        V = cover.graph.vertex_count
        E = len(cover.graph.unoriented_reps())
        assert chi.degree == V - E
        for orbit in edge_orbit_data(cover.action):
            assert len(orbit.members) * orbit.stabilizer.order == G.order


def test_dot_output():
    graph = GenGraph.from_unoriented(2, [(0, 1)], self_opposite=[1])
    dot = gengraph_to_dot(graph, vertex_labels=None, edge_labels=["a", "b"])
    assert 'v0 [shape=circle, label="v0"];' in dot
    assert 'v0 -- v1 [label="a"];' in dot
    assert 'v1 -- v1 [label="b", style=dashed];' in dot
    assert dot == gengraph_to_dot(graph, edge_labels=["a", "b"])
