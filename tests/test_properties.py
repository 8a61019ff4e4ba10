"""Property tests of the canonical form and the inverting involutions under
conjugation, of ``GenGraph.from_unoriented``'s opposite edges, and of the
report writer against ``json.dumps``."""

from __future__ import annotations

import contextlib
import io
import json
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from hurwitzdegen import (GenGraph, build_cover, canonical_form, equivalent,
                          inverting_involutions)
from hurwitzdegen.cli import json_dump

from conftest import (assert_opposite_edges, conjugate_datum, disjoint_union,
                      explicit_cover_report, inverting_pairs, quotient_report,
                      random_valid_datum)

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
    conjugated = sorted(G.conj(g, s) for s in inverting_involutions(G, m))
    assert inverting_involutions(G, G.conj(g, m)) == conjugated


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(GROUPS), seed=st.integers(0, 2**32 - 1), pieces=st.integers(1, 3))
def test_cover_report_matches_explicit_cover(groups, name, seed, pieces):
    # the quotient-level report against union-find on the explicit cover,
    # on data whose quotient graph has up to three pieces
    G, pairs = groups[name]
    rng = random.Random(seed)
    datum = random_valid_datum(G, rng, pairs)
    for _ in range(pieces - 1):
        datum = disjoint_union(datum, random_valid_datum(G, rng, pairs))
    assert quotient_report(datum) == explicit_cover_report(build_cover(datum))


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
