"""Property tests of the canonical form and the inverting involutions under
conjugation."""

from __future__ import annotations

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from hurwitzdegen import canonical_form, equivalent, inverting_involutions
from hurwitzdegen.boundary import conjugate_datum, serialize

from conftest import inverting_pairs, random_valid_datum

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
    cf = canonical_form(datum)
    assert serialize(canonical_form(cf)) == serialize(cf)
    assert serialize(canonical_form(conj)) == serialize(cf)
    assert equivalent(datum, conj)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(GROUPS), m=st.integers(0, 10**6), g=st.integers(0, 10**6))
def test_inverting_involutions_are_conjugation_equivariant(groups, name, m, g):
    G, _ = groups[name]
    m, g = m % G.order, g % G.order
    conjugated = sorted(G.conj(g, s) for s in inverting_involutions(G, m))
    assert inverting_involutions(G, G.conj(g, m)) == conjugated
