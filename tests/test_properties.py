"""Property tests of the canonical form and the inverting involutions under
conjugation, of a Hurwitz tuple as the datum its JSON describes, of the
point a degeneration's index names, of ``GenGraph.from_unoriented``'s
opposite edges, and of the report writer against ``json.dumps``."""

from __future__ import annotations

import contextlib
import io
import json
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from hurwitzdegen import (BoundaryDatum, Degeneration, GenGraph, HurwitzTuple, build_cover,
                          canonical_form, collide, collide_pair, cover_report, datum_from_jsonable,
                          datum_to_jsonable, de_rham_character, dihedral_degenerations,
                          equivalent, inverting_involutions, smooth_dihedral, split_degenerations)
from hurwitzdegen.boundary import CYCLIC, DIHEDRAL, NODE_END, is_stable_curve
from hurwitzdegen.cli import analyze_datum, json_dump

from conftest import (assert_opposite_edges, component_cells, conj, conjugate_datum, disjoint_union,
                      explicit_cover_report, inverting_pairs, random_valid_datum)

GROUPS = ["s3", "d4", "s4", "d5", "a5", "s5", "psl27"]


@pytest.fixture(scope="module")
def groups(request):
    """name -> (group, its inverting pairs)."""
    out = {}
    for name in GROUPS:
        G = request.getfixturevalue(name)
        out[name] = (G, inverting_pairs(G))
    return out


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(GROUPS), seed=st.integers(0, 2**32 - 1),
       g=st.integers(0, 10**6))
def test_canonical_form_is_a_conjugation_invariant(groups, name, seed, g):
    G, pairs = groups[name]
    datum = random_valid_datum(G, random.Random(seed), pairs)
    conj = conjugate_datum(datum, g % G.order)
    assert canonical_form(conj) == canonical_form(datum)
    assert equivalent(datum, conj)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(GROUPS), m=st.integers(0, 10**6), g=st.integers(0, 10**6))
def test_inverting_involutions_are_conjugation_equivariant(groups, name, m, g):
    G, _ = groups[name]
    m, g = m % G.order, g % G.order
    conjugated = sorted((conj(G, g, s) for s in inverting_involutions(G, m)),
                        key=G.elements.__getitem__)
    assert inverting_involutions(G, conj(G, g, m)) == conjugated


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(GROUPS), seed=st.integers(0, 2**32 - 1), pieces=st.integers(1, 3))
def test_cover_report_matches_explicit_cover(groups, name, seed, pieces):
    # the quotient-level report and each piece's K_P against union-find on
    # the explicit cover, on data whose quotient graph has up to three pieces
    G, pairs = groups[name]
    rng = random.Random(seed)
    datum = random_valid_datum(G, rng, pairs)
    for _ in range(pieces - 1):
        datum = disjoint_union(datum, random_valid_datum(G, rng, pairs))
    cover = build_cover(datum)
    gog, comp_ids = cover.gog, cover.graph.connected_component_ids()
    report = cover_report(gog)
    assert report == explicit_cover_report(cover)
    over = [set() for _ in gog.piece_groups]  # the connected cover components over P
    for v, (ci, _) in enumerate(component_cells(cover)):
        over[gog.piece_of[ci]].add(comp_ids[v])
    assert [len(c) for c in over] == [G.order // K_P.order for K_P in gog.piece_groups]
    assert sum(map(len, over)) == max(comp_ids) + 1
    h1 = de_rham_character(gog).h1_character
    assert gog.connected == report["connected"] == (h1 is not None)


TUPLE_GROUPS = ["s4", "d5", "a5", "psl27"]


def random_tuple(G, rng: random.Random) -> HurwitzTuple:
    """A product-one tuple of 2 to 6 random entries; the last closes the product."""
    entries = [rng.randrange(G.order) for _ in range(rng.randrange(1, 6))]
    return HurwitzTuple(G, (*entries, G.inv(G.product(entries))))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(TUPLE_GROUPS), seed=st.integers(0, 2**32 - 1))
def test_a_tuple_analyzes_as_its_datum_json(groups, name, seed):
    t = random_tuple(groups[name][0], random.Random(seed))
    loaded = datum_from_jsonable(datum_to_jsonable(t))
    assert isinstance(t, BoundaryDatum) and type(loaded) is BoundaryDatum
    assert analyze_datum(t) == analyze_datum(loaded)
    assert canonical_form(t) == canonical_form(loaded)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(TUPLE_GROUPS), seed=st.integers(0, 2**32 - 1),
       g=st.integers(0, 10**6))
def test_a_tuple_key_is_its_nielsen_class_mod_inn(groups, name, seed, g):
    G = groups[name][0]
    t = random_tuple(G, random.Random(seed))
    conj = conjugate_datum(t, g % G.order)
    assert canonical_form(conj) == canonical_form(t)
    assert equivalent(t, conj)


def degenerations_name_their_points(d: BoundaryDatum) -> list[Degeneration]:
    """Every split, dihedral and collide degeneration of ``d`` and of the
    smoothings of its dihedral ones, after checking that
    ``datum.point(component, index)`` of each is the point its move made, and
    that ``smooth_dihedral`` undoes the collide and ``collide`` the smoothing."""
    G = d.group
    cyclic = [(ci, pi) for ci, comp in enumerate(d.components)
              for pi, pt in enumerate(comp.points) if pt.kind == CYCLIC]
    dihedral = [deg for ci, pi in cyclic for deg in dihedral_degenerations(d, pi, ci)]
    collided = []
    # each smoothing has an involution pair where its dihedral point was
    for u in (d, *map(smooth_dihedral, dihedral)):
        for ci, comp in enumerate(u.components):
            ms = [pt.m if pt.kind == CYCLIC else G.identity for pt in comp.points]
            for pi in range(len(ms) - 1):
                if (is_stable_curve(comp.genus, len(ms) - 1)
                        and all(G.element_order(x) == 2 for x in ms[pi:pi + 2])):
                    collided.append(collide_pair(u, pi) if ci == 0 else
                                    Degeneration(DIHEDRAL, collide(u, ci, pi), ci, pi))
                    assert smooth_dihedral(collided[-1]).components == u.components
    for deg in dihedral:
        back = collide(smooth_dihedral(deg), deg.component, deg.index)
        assert back.components == deg.datum.components
    splits = split_degenerations(d)
    for kind, degs in ((NODE_END, splits), (DIHEDRAL, dihedral + collided)):
        assert all(deg.datum.point(deg.component, deg.index).kind == kind for deg in degs)
    assert [(deg.component, deg.index) for deg in splits] == sorted(
        (deg.component, deg.index) for deg in splits)
    return splits + dihedral + collided


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(TUPLE_GROUPS), seed=st.integers(0, 2**32 - 1))
def test_a_degeneration_index_names_the_point_its_move_made(groups, name, seed):
    G = groups[name][0]
    t = random_tuple(G, random.Random(seed))
    assert {deg.component for deg in degenerations_name_their_points(t)} <= {0}


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(GROUPS), seed=st.integers(0, 2**32 - 1))
def test_a_degeneration_index_names_the_point_its_move_made_on_any_datum(groups, name, seed):
    # two random data side by side, in both orders, so that every move that
    # one of them has is also made on a component past 0
    G, pairs = groups[name]
    rng = random.Random(seed)
    a, b = random_valid_datum(G, rng, pairs), random_valid_datum(G, rng, pairs)
    degs = [deg for d in (disjoint_union(a, b), disjoint_union(b, a))
            for deg in degenerations_name_their_points(d)]
    assert not degs or any(deg.component > 0 for deg in degs)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 6))
def test_from_unoriented_pairs_each_edge_with_its_reverse(data, n):
    # GenGraph checks nothing and trusts this, its one builder
    vertex = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=8))
    loops = data.draw(st.lists(vertex, max_size=4))
    assert_opposite_edges(GenGraph.from_unoriented(n, pairs, self_opposite=loops), loops)


TEXT = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2603\U0001f600'))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64)
    | st.integers(max_value=-2**64) | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=40)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(value=JSON_VALUES)
def test_json_dump_prints_what_json_dumps_prints(value):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        json_dump(value)
    assert out.getvalue() == json.dumps(value, indent=2) + "\n"
