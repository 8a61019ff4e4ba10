from __future__ import annotations

import random
from collections import Counter

import pytest

from hurwitzdegen import (HurwitzTuple, PermGroup, arithmetic_genus, build_cover, canonical_form,
                          collide_pair, dedup, dihedral_degenerations, equivalent,
                          local_model_fixpoint_orbits, local_model_orbit_sizes, predicted_fixpoint_orbits,
                          perm_from_cycles, quotient_stability, rh_genus, smooth_dihedral,
                          split_degenerations, validate)
from hurwitzdegen import audit
from hurwitzdegen.boundary import conjugate_datum, serialize
from hurwitzdegen.errors import InvalidDatum, OddOrder, TooFewPoints


def test_split_index_range(a5, s4):
    t4 = audit.a5_smoothed_tuple(a5)
    assert [d.split_at for d in split_degenerations(t4)] == [2]
    assert split_degenerations(audit.a5_tuple(a5)) == []
    g = s4.id_of(perm_from_cycles(4, (0, 1, 2, 3)))
    t5 = HurwitzTuple(s4, (g, g, g, g, s4.inv(s4.product([g] * 4))))
    assert [d.split_at for d in split_degenerations(t5)] == [2, 3]
    with pytest.raises(TooFewPoints):
        split_degenerations(HurwitzTuple(s4, (g, s4.inv(g))))


def test_a5_split_matches_worked_grouping(a5):
    t4 = audit.a5_smoothed_tuple(a5)
    s, t = t4.entries[0], t4.entries[1]
    g0 = a5.mul(s, t)
    datum = split_degenerations(t4)[0].datum
    left, right = datum.components
    assert [p.m for p in left.points] == [s, t, a5.inv(g0)]
    assert [p.m for p in right.points] == [g0, t4.entries[2], t4.entries[3]]
    assert left.points[2].kind == "node" and right.points[0].kind == "node"


def random_product_one_tuples(G, rng, count):
    """Product-one tuples of length 4 to 6, half their free entries involutions."""
    involutions = [g for g in range(G.order) if G.element_order(g) == 2]
    out = []
    for _ in range(count):
        entries = [rng.choice(involutions) if rng.random() < 0.5 else rng.randrange(G.order)
                   for _ in range(rng.randrange(3, 6))]
        entries.append(G.inv(G.product(entries)))
        out.append(HurwitzTuple(G, tuple(entries)))
    return out


def test_every_emitted_degeneration_is_valid_and_stable(a5, s4, d5, psl27):
    # Degeneration trusts its constructors with admissibility; this is the
    # oracle for that trust
    rng = random.Random(20)
    tuples = [audit.a5_smoothed_tuple(a5)]
    for G in (s4, d5, a5, psl27):
        tuples += random_product_one_tuples(G, rng, 10)
    kinds = Counter()
    for t in tuples:
        G = t.group
        degs = split_degenerations(t)
        for i in range(len(t)):
            degs += dihedral_degenerations(t, i)
        for i in range(len(t) - 1):
            if G.element_order(t.entries[i]) == 2 == G.element_order(t.entries[i + 1]):
                degs.append(collide_pair(t, i))
                kinds["collide"] += 1
        for deg in degs:
            kinds[deg.kind] += 1
            assert validate(deg.datum) == []
            assert quotient_stability(deg.datum)
    assert kinds["split"] and kinds["dihedral"] and kinds["collide"] >= 10


def test_collide_pair_of_a_three_entry_tuple_is_unstable():
    # the one check Degeneration keeps: the Klein four-group tuple (a, b, ab)
    # collides to two points
    v4 = PermGroup([perm_from_cycles(4, (0, 1), (2, 3)), perm_from_cycles(4, (0, 2), (1, 3))])
    a, b = v4.generator_ids
    with pytest.raises(InvalidDatum) as exc:
        collide_pair(HurwitzTuple(v4, (a, b, v4.mul(a, b))), 0)
    assert [v.kind for v in exc.value.violations] == ["Stability"]


def test_dihedral_count_a5(a5):
    degs = dihedral_degenerations(audit.a5_tuple(a5), 0)
    assert len(degs) == 5
    invs = sorted(d.involution for d in degs)
    m = audit.a5_tuple(a5).entries[0]
    from hurwitzdegen import is_inverting_involution, normalizer
    N = normalizer(a5, a5.cyclic_subgroup(m))
    assert invs == [s for s in N.members if a5.element_order(s) == 2]
    assert all(is_inverting_involution(a5, m, s) for s in invs)


def test_dihedral_empty_for_order7_point(psl27):
    assert dihedral_degenerations(audit.psl27_tuple(psl27), 0) == []


def test_dihedral_identity_monodromy_accepts_all_involutions(s3):
    t = s3.id_of(perm_from_cycles(3, (0, 1)))
    tup = HurwitzTuple(s3, (s3.identity, t, t))
    degs = dihedral_degenerations(tup, 0)
    involutions = [s for s in range(s3.order) if s3.element_order(s) == 2]
    assert [d.involution for d in degs] == involutions


def test_too_few_points_for_dihedral(s3):
    t = s3.id_of(perm_from_cycles(3, (0, 1)))
    with pytest.raises(TooFewPoints):
        dihedral_degenerations(HurwitzTuple(s3, (t, t)), 0)


def test_smooth_dihedral_entries(a5):
    degs = dihedral_degenerations(audit.a5_tuple(a5), 0)
    d = degs[0]
    t4 = smooth_dihedral(d)
    m = audit.a5_tuple(a5).entries[0]
    s = d.involution
    assert t4.entries[0] == s
    assert t4.entries[1] == a5.mul(s, m)
    assert t4.entries[2:] == audit.a5_tuple(a5).entries[1:]
    assert t4.orders() == (2, 2, 2, 3)


def test_smooth_dihedral_order2_monodromy(d4):
    # m and s commuting involutions with s outside <m>: both smoothed
    # entries are involutions
    m = d4.id_of(perm_from_cycles(4, (0, 2)))
    s = d4.id_of(perm_from_cycles(4, (1, 3)))
    x = d4.id_of(perm_from_cycles(4, (0, 1, 2, 3)))
    tup = HurwitzTuple(d4, (m, x, d4.inv(d4.mul(m, x))))
    degs = [d for d in dihedral_degenerations(tup, 0) if d.involution == s]
    assert len(degs) == 1
    t = smooth_dihedral(degs[0])
    assert d4.element_order(t.entries[0]) == 2
    assert d4.element_order(t.entries[1]) == 2


def test_collide_pair_round_trip(a5):
    degs = dihedral_degenerations(audit.a5_tuple(a5), 0)
    for d in degs:
        t4 = smooth_dihedral(d)
        back = collide_pair(t4, 0)
        assert serialize(back.datum) == serialize(d.datum)  # exact, not just conjugate
        assert equivalent(back.datum, d.datum)


def test_collide_pair_needs_involutions(a5):
    with pytest.raises(ValueError):
        collide_pair(audit.a5_tuple(a5), 0)  # entry 0 has order 5


def test_split_genus_matches_interior(a5):
    t4 = audit.a5_smoothed_tuple(a5)
    interior_genus = rh_genus(60, 0, [2, 2, 2, 3])
    for deg in split_degenerations(t4):
        assert arithmetic_genus(build_cover(deg.datum)) == interior_genus == 6


def test_smooth_dihedral_genus_constancy(a5):
    for d in dihedral_degenerations(audit.a5_tuple(a5), 0):
        boundary_genus = arithmetic_genus(build_cover(d.datum))
        t = smooth_dihedral(d)
        smooth_genus = rh_genus(a5.order, 0,
                                [a5.element_order(g) for g in t.entries])
        assert boundary_genus == smooth_genus == 6


def test_predicted_fixpoint_orbits():
    assert predicted_fixpoint_orbits(10) == 2
    assert predicted_fixpoint_orbits(4) == 4
    assert predicted_fixpoint_orbits(2) == 2
    with pytest.raises(OddOrder):
        predicted_fixpoint_orbits(5)


def test_local_model_small_values():
    assert local_model_fixpoint_orbits(1) == 2
    assert local_model_fixpoint_orbits(5) == 2
    # even case: the local model merges the two fixpoints of each involution
    # through the central rotation, so the oracle stays at 2 where the
    # involution-class count predicts 4
    assert local_model_fixpoint_orbits(2) == 2
    assert predicted_fixpoint_orbits(4) == 4


@pytest.mark.parametrize("N", range(1, 16))
def test_local_model_orbit_sizes_partition(N):
    sizes = local_model_orbit_sizes(N)
    assert sum(sizes) == 2 * N
    if N % 2 == 1:
        assert len(sizes) == predicted_fixpoint_orbits(2 * N) == 2


def test_dedup(a5, s4):
    degs = dihedral_degenerations(audit.a5_tuple(a5), 0)
    # the five involution choices are mutually non-conjugate relative to the
    # fixed cyclic points (the centralizer of a generating set is trivial)
    assert len(dedup(degs)) == 5
    assert dedup([]) == []
    d = degs[0]
    twin = dihedral_degenerations(audit.a5_tuple(a5), 0)[0]
    conj = conjugate_datum(d.datum, 7)
    assert equivalent(conj, twin.datum)
    from hurwitzdegen.degen import Degeneration
    conj_deg = Degeneration("dihedral", conj, index=0,
                            involution=a5.conj(7, d.involution))
    assert len(dedup([d, conj_deg, twin])) == 1


def test_canonical_form_fixes_conjugates(a5):
    d = dihedral_degenerations(audit.a5_tuple(a5), 0)[0].datum
    for g in (3, 17, 42):
        assert serialize(canonical_form(conjugate_datum(d, g))) == \
            serialize(canonical_form(d))
