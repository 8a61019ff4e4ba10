"""``canonical_form`` against a full scan on groups of order in the thousands.

S7 (5,040), M11 (7,920) and PSL(2,19) (3,420) with fixed points added up to
degree 300, so that its elements are stored as image tuples.  Random valid
data take their dihedral points from ``sampled_inverting_pairs``, since the
O(|G|^2) ``inverting_pairs`` is too slow here.
"""

from __future__ import annotations

import random

import pytest

from hurwitzdegen import PermGroup, canonical_form, is_inverting_involution, perm_from_cycles

from conftest import (canonical_form_by_scan, conjugate_datum, mathieu_generators,
                      psl2_generators, random_valid_datum, sampled_inverting_pairs)


# name: (the group, its order, a seed and a number of random data); each
# seed's few data reach handles, dihedral points and two components, and few
# keep the |G|-fold scans within a few seconds
GROUPS = {
    "S7": (lambda: PermGroup([perm_from_cycles(7, tuple(range(7))),
                              perm_from_cycles(7, (0, 1))]), 5040, 2, 6),
    "M11": (lambda: PermGroup(mathieu_generators(11)), 7920, 2, 4),
    "PSL(2,19) on 300 points": (lambda: PermGroup(psl2_generators(19, 300)), 3420, 19, 3),
}


@pytest.mark.parametrize("name", GROUPS)
def test_canonical_form_matches_scan_at_scale(name):
    build, order, seed, count = GROUPS[name]
    G = build()
    assert G.order == order and isinstance(G.elements[0], tuple) == (G.degree > 256)
    rng = random.Random(seed)
    pairs = sampled_inverting_pairs(G, rng)
    assert pairs and all(is_inverting_involution(G, m, s) for m, s in pairs)
    data = [random_valid_datum(G, rng, pairs) for _ in range(count)]
    # the oracle only means something if the inputs reach every id kind
    assert any(comp.handles for d in data for comp in d.components)
    assert any(d.dihedral_points() for d in data)
    assert any(len(d.components) == 2 for d in data)
    for d in data:
        key = canonical_form(d)
        assert key == canonical_form_by_scan(d)
        assert canonical_form(conjugate_datum(d, rng.randrange(order))) == key
