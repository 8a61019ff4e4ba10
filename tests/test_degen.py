from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from hurwitzdegen import (BoundaryDatum, HurwitzTuple, MarkedComponent, MarkedPoint, PermGroup,
                          canonical_form, collide, collide_pair, cover_report, de_rham_character,
                          dedup, dihedral, dihedral_degenerations, dual_graph_of_groups,
                          equivalent, left_cosets, perm_from_cycles, rh_genus, smooth,
                          smooth_dihedral, split, split_degenerations, validate)
from hurwitzdegen import audit
from hurwitzdegen.boundary import CYCLIC, is_stable_curve, serialize, unstable_components
from hurwitzdegen.degen import Degeneration
from hurwitzdegen.errors import InvalidDatum

from conftest import (a5_smoothed_tuple, canonical_form_by_scan, conjugate_datum, entries,
                      generator_ids, inverting_pairs, local_model_orbit_sizes, normalizer, orbits,
                      quotient_report, random_valid_datum, smooth_node)


def test_split_index_range(a5, s4):
    t4 = a5_smoothed_tuple(a5)
    assert [d.index for d in split_degenerations(t4)] == [2]
    assert split_degenerations(audit.a5_tuple(a5)) == []
    g = s4.id_of(perm_from_cycles(4, (0, 1, 2, 3)))
    t5 = HurwitzTuple(s4, (g, g, g, g, s4.inv(s4.product([g] * 4))))
    assert [d.index for d in split_degenerations(t5)] == [2, 3]
    # below 3 entries there is no stable stratum
    assert split_degenerations(HurwitzTuple(s4, (g, s4.inv(g)))) == []


def test_a5_split_matches_worked_grouping(a5):
    t4 = a5_smoothed_tuple(a5)
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
    tuples = [a5_smoothed_tuple(a5)]
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
            assert unstable_components(deg.datum) == []
    assert kinds["split"] and kinds["dihedral"] and kinds["collide"] >= 10


def test_collide_pair_of_a_three_entry_tuple_is_unstable():
    # collide checks is_stable_curve on the component it shrinks: the Klein
    # four-group tuple (a, b, ab) collides to two points
    v4 = PermGroup([perm_from_cycles(4, (0, 1), (2, 3)), perm_from_cycles(4, (0, 2), (1, 3))])
    a, b = generator_ids(v4)
    with pytest.raises(InvalidDatum) as exc:
        collide_pair(HurwitzTuple(v4, (a, b, v4.mul(a, b))), 0)
    assert [v.kind for v in exc.value.violations] == ["Stability"]


def test_dihedral_count_a5(a5):
    degs = dihedral_degenerations(audit.a5_tuple(a5), 0)
    assert len(degs) == 5
    invs = sorted(d.datum.point(0, 0).s for d in degs)
    m = audit.a5_tuple(a5).entries[0]
    from hurwitzdegen import is_inverting_involution
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
    assert [d.datum.point(0, 0).s for d in degs] == involutions


def test_too_few_points_for_dihedral(s3):
    # a 3-cycle has inverting involutions, yet a dihedral point with one
    # cyclic point beside it is not stable
    c = s3.id_of(perm_from_cycles(3, (0, 1, 2)))
    assert dihedral_degenerations(HurwitzTuple(s3, (c, s3.inv(c), s3.identity)), 0)
    short = HurwitzTuple(s3, (c, s3.inv(c)))
    assert [dihedral_degenerations(short, i) for i in range(2)] == [[], []]


@pytest.mark.parametrize("index", [-1, 3])
def test_dihedral_index_out_of_range(a5, index):
    with pytest.raises(ValueError):
        dihedral_degenerations(audit.a5_tuple(a5), index)


def test_smooth_dihedral_entries(a5):
    degs = dihedral_degenerations(audit.a5_tuple(a5), 0)
    d = degs[0]
    t4 = entries(smooth_dihedral(d))
    m = audit.a5_tuple(a5).entries[0]
    s = d.datum.point(0, 0).s
    assert t4[0] == s
    assert t4[1] == a5.mul(s, m)
    assert t4[2:] == audit.a5_tuple(a5).entries[1:]
    assert tuple(map(a5.element_order, t4)) == (2, 2, 2, 3)


def test_smooth_dihedral_order2_monodromy(d4):
    # m and s commuting involutions with s outside <m>: both smoothed
    # entries are involutions
    m = d4.id_of(perm_from_cycles(4, (0, 2)))
    s = d4.id_of(perm_from_cycles(4, (1, 3)))
    x = d4.id_of(perm_from_cycles(4, (0, 1, 2, 3)))
    tup = HurwitzTuple(d4, (m, x, d4.inv(d4.mul(m, x))))
    degs = [d for d in dihedral_degenerations(tup, 0) if d.datum.point(0, 0).s == s]
    assert len(degs) == 1
    t = entries(smooth_dihedral(degs[0]))
    assert d4.element_order(t[0]) == 2
    assert d4.element_order(t[1]) == 2


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
    with pytest.raises(ValueError, match="point 3 is not an involution"):
        collide_pair(a5_smoothed_tuple(a5), 2)  # orders (2, 2, 2, 3): entry 3 has order 3


def test_collide_pair_needs_two_adjacent_entries(a5):
    t4 = a5_smoothed_tuple(a5)
    with pytest.raises(ValueError, match="component 0 has no point 4"):
        collide_pair(t4, len(t4) - 1)


def test_smooth_dihedral_rejects_a_split(a5):
    split = split_degenerations(a5_smoothed_tuple(a5))[0]
    with pytest.raises(ValueError, match="point 2 is node, not dihedral"):
        smooth_dihedral(split)


def test_split_genus_matches_interior(a5):
    t4 = a5_smoothed_tuple(a5)
    interior_genus = rh_genus(60, 0, [2, 2, 2, 3])
    for deg in split_degenerations(t4):
        assert quotient_report(deg.datum)["arithmetic_genus"] == interior_genus == 6


def test_smooth_dihedral_genus_constancy(a5):
    for d in dihedral_degenerations(audit.a5_tuple(a5), 0):
        boundary_genus = quotient_report(d.datum)["arithmetic_genus"]
        t = smooth_dihedral(d)
        smooth_genus = rh_genus(a5.order, 0, [a5.element_order(g) for g in entries(t)])
        assert boundary_genus == smooth_genus == 6


@pytest.mark.parametrize("N", range(1, 16))
def test_local_model_orbit_sizes_partition(N):
    # the rotation u -> u + 4 splits the even residues mod 4N by u mod 4, and
    # the swap u -> -u keeps both halves
    assert local_model_orbit_sizes(N) == [N, N]


def test_smoothing_opens_each_dihedral_node_into_two_orbits(a5, psl27, s4, s5, d4):
    # on the explicit cover of the smoothed tuple, the points over the new
    # branch points s and s*m that lie in the node r<m, s> form one orbit
    # each under its stabilizer r<m, s>r^-1, as in the local model
    d6 = PermGroup([perm_from_cycles(6, (0, 1, 2, 3, 4, 5)), perm_from_cycles(6, (1, 5), (2, 4))])
    rng = random.Random(26)
    met = set()
    for G in (s4, s5, d4, d6, a5, psl27):
        for _ in range(25):
            ms = [rng.randrange(G.order) for _ in range(rng.randrange(2, 4))]
            t = HurwitzTuple(G, (*ms, G.inv(G.product(ms))))
            for i in range(len(t)):
                for deg in dihedral_degenerations(t, i):
                    m, s = t.entries[i], deg.datum.point(0, i).s
                    D = G.generated_subgroup([m, s])
                    (node_class,) = [c for c in quotient_report(deg.datum)["node_classes"]
                                     if c["kind"] == "dihedral"]
                    assert node_class["stabilizer_order"] == D.order
                    N = D.order // 2
                    smoothed = entries(smooth_dihedral(deg))
                    fibers = [left_cosets(G, G.cyclic_subgroup(x)) for x in smoothed[i:i + 2]]
                    for node in left_cosets(G, D).cells:
                        r, r_inv = node[0], G.inv(node[0])
                        stabilizer = [G.mul(G.mul(r, x), r_inv) for x in (m, s)]
                        sizes = []
                        for cos in fibers:
                            inside = sorted({cos.index_of[g] for g in node})
                            found = orbits(inside, stabilizer,
                                           lambda c, g: cos.index_of[G.mul(g, cos.cells[c][0])])
                            assert len(found) == 1
                            sizes.append(len(found[0]))
                        assert sorted(sizes) == local_model_orbit_sizes(N)
                    met.add(D.order)
    assert {4, 6, 8, 10, 12} <= met


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
    conj_deg = Degeneration("dihedral", conj, 0)
    assert len(dedup([d, conj_deg, twin])) == 1


def braid_walk(G: PermGroup, entries, rng: random.Random, steps: int) -> list[HurwitzTuple]:
    """The tuples met on a seeded walk of braid moves and conjugations by generators."""
    entries, out = list(entries), []
    for _ in range(steps):
        move = rng.randrange(4)
        if move == 3:
            g = rng.choice(generator_ids(G))
            entries = [G.conj(g, x) for x in entries]
        else:
            i = rng.randrange(len(entries) - 1)
            a, b = entries[i], entries[i + 1]
            if move < 2:  # sigma_i: (a, b) -> (a b a^-1, a)
                entries[i:i + 2] = [G.conj(a, b), a]
            else:         # sigma_i^-1: (a, b) -> (b, b^-1 a b)
                entries[i:i + 2] = [b, G.conj(G.inv(b), a)]
        out.append(HurwitzTuple(G, tuple(entries)))
    return out


def test_dedup_against_scan_on_braid_walks(a5, psl27):
    # the strata benchmark's input: A5 (2, 2, 2, 3) and PSL(2, 7) (7, 2, 2, 2)
    # walks, each tuple next to a conjugate, so that dedup has work to do
    rng = random.Random(21)
    bases = [(a5, a5_smoothed_tuple(a5)),
             (psl27, smooth_dihedral(dihedral_degenerations(audit.psl27_tuple(psl27), 2)[0]))]
    for G, base in bases:
        tuples = []
        for t in braid_walk(G, entries(base), rng, 6):
            g = rng.randrange(G.order)
            tuples += [t, HurwitzTuple(G, tuple(G.conj(g, x) for x in t.entries))]
        rng.shuffle(tuples)
        found = []
        for t in tuples:
            found += split_degenerations(t)
            for i in range(len(t)):
                found += dihedral_degenerations(t, i)
        keys = [canonical_form_by_scan(d.datum) for d in found]
        first: dict[tuple, Degeneration] = {}
        for d, key in zip(found, keys):
            first.setdefault(key, d)
        kept = dedup(found)
        assert [id(d) for d in kept] == [id(d) for d in first.values()]
        assert len(kept) < len(found)
        assert [canonical_form(d.datum) for d in found] == keys
        for (a, ka), (b, kb) in itertools.combinations(zip(found, keys), 2):
            assert equivalent(a.datum, b.datum) == (ka == kb)


@pytest.mark.parametrize("dedup_first", [True, False], ids=["dedup-first", "equivalent-first"])
def test_each_datum_is_keyed_once(a5, dedup_first):
    # the key is kept on the datum by whichever of dedup and equivalent meets
    # it first, and either way it is the least serialized conjugate
    t = a5_smoothed_tuple(a5)
    found = []
    for u in (t, HurwitzTuple(a5, tuple(a5.conj(7, x) for x in t.entries))):
        found += split_degenerations(u)
        found += [d for i in range(len(u)) for d in dihedral_degenerations(u, i)]
    twins = [conjugate_datum(d.datum, 11) for d in found]
    if dedup_first:
        kept = dedup(found)
    assert all(equivalent(twin, d.datum) for d, twin in zip(found, twins))
    if not dedup_first:
        kept = dedup(found)
    assert 2 * len(kept) == len(found)
    for datum in [d.datum for d in found] + twins:
        key = canonical_form(datum)
        assert canonical_form(datum) is key
        assert key == canonical_form_by_scan(datum)


def test_canonical_form_fixes_conjugates(a5):
    d = dihedral_degenerations(audit.a5_tuple(a5), 0)[0].datum
    for g in (3, 17, 42):
        assert canonical_form(conjugate_datum(d, g)) == canonical_form(d)


# -- moves on any datum --------------------------------------------------------

MOVE_GROUPS = ["s4", "a5", "psl27"]


def random_data(request, name: str, seed: int, count: int) -> list[BoundaryDatum]:
    """Random admissible data: one or two components, some of genus 1, some
    with a dihedral point, and every two-component datum uses node 0."""
    G = request.getfixturevalue(name)
    rng, pairs = random.Random(seed), inverting_pairs(G)
    return [random_valid_datum(G, rng, pairs) for _ in range(count)]


def stable_splits(datum: BoundaryDatum) -> list[tuple[int, int]]:
    """Every (ci, k) whose rational left side (k points and a node end) and
    right side (ci's genus, the other end and the rest) are both stable."""
    return [(ci, k) for ci, comp in enumerate(datum.components)
            for k in range(len(comp.points) + 1)
            if is_stable_curve(0, k + 1) and is_stable_curve(comp.genus, len(comp.points) - k + 1)]


def is_cyclic_involution(G: PermGroup, pt: MarkedPoint) -> bool:
    return pt.kind == CYCLIC and pt.m != G.identity and G.mul(pt.m, pt.m) == G.identity


def invariants(datum: BoundaryDatum) -> tuple:
    """The sorted arithmetic genera of the cover's connected components,
    chi_dR and whether the cover is connected."""
    gog = dual_graph_of_groups(datum)
    report = cover_report(gog)
    return (sorted(report["component_arithmetic_genera"]), de_rham_character(gog).chi_dR,
            report["connected"])


@pytest.mark.parametrize("name", MOVE_GROUPS)
def test_moves_on_random_data_keep_the_cover(request, name):
    # a degeneration and its smoothing are fibres of one family: each move
    # keeps the arithmetic genera, chi_dR and connectivity of the cover
    counts = Counter()
    for d in random_data(request, name, 41, 80):
        G, before = d.group, invariants(d)
        moved = []
        for ci, k in stable_splits(d):
            moved.append(split(d, ci, k))
            counts["split at ci > 0" if ci else "split"] += 1
            counts["split of genus 1"] += d.components[ci].genus
        for ci, pi in d.dihedral_points():
            moved.append(smooth(d, ci, pi))
            assert canonical_form(collide(moved[-1], ci, pi)) == canonical_form(d)
            counts["round trip"] += 1
        for ci, comp in enumerate(d.components):
            for pi in range(len(comp.points) - 1):
                if not all(is_cyclic_involution(G, pt) for pt in comp.points[pi:pi + 2]):
                    continue
                if is_stable_curve(comp.genus, len(comp.points) - 1):
                    moved.append(collide(d, ci, pi))
                    counts["collide"] += 1
                else:
                    with pytest.raises(InvalidDatum):
                        collide(d, ci, pi)
            for pi, pt in enumerate(comp.points):
                if pt.kind != CYCLIC:
                    continue
                for e in dihedral(d, ci, pi):
                    assert validate(e) == [] and unstable_components(e) == []
                    assert invariants(smooth(e, ci, pi))[:2] == invariants(e)[:2]
                    counts["dihedral"] += 1
        for e in moved:
            assert validate(e) == [] and unstable_components(e) == []
            assert invariants(e) == before
    assert min(counts.values()) > 0 and len(counts) == 6, counts


@pytest.mark.parametrize("name", MOVE_GROUPS)
def test_smooth_node_inverts_split(request, name):
    # the new node's id is one past the datum's largest: a split that reused
    # node 0 of a two-component datum would give it four ends
    data = random_data(request, name, 42, 40)
    assert any(0 in d.node_ends() for d in data)
    for d in data:
        for ci, k in stable_splits(d):
            e = split(d, ci, k)
            (node,) = set(e.node_ends()) - set(d.node_ends())
            assert canonical_form(smooth_node(e, node)) == canonical_form(d)


def test_moves_check_point_kinds(a5):
    d = dihedral_degenerations(audit.a5_tuple(a5), 0)[0].datum   # points dihedral, cyclic, cyclic
    with pytest.raises(ValueError, match="point 0 is dihedral, not cyclic"):
        dihedral(d, 0, 0)
    with pytest.raises(ValueError, match="point 0 is dihedral, not cyclic"):
        collide(d, 0, 0)
    with pytest.raises(ValueError, match="point 1 is cyclic, not dihedral"):
        smooth(d, 0, 1)
    split_datum = split_degenerations(a5_smoothed_tuple(a5))[0].datum
    with pytest.raises(ValueError, match="point 0 is node, not cyclic"):
        dihedral(split_datum, 1, 0)


def test_split_checks_its_position_and_both_sides(a5):
    t = a5_smoothed_tuple(a5)
    with pytest.raises(ValueError, match="no split after 5"):
        split(t, 0, 5)
    for ci in (-1, 1):   # a negative ci would not wrap round to the last component
        with pytest.raises(ValueError, match=f"no component {ci}"):
            split(t, ci, 2)
    for k in (0, 1, 3, 4):   # a side with fewer than 3 points
        with pytest.raises(InvalidDatum) as exc:
            split(t, 0, k)
        assert [v.kind for v in exc.value.violations] == ["Stability"]


def test_collide_on_a_genus_one_component_with_two_points(s3):
    # [a, b] p q = e with p, q transpositions: colliding p, q leaves one
    # dihedral point on an elliptic component, which is stable
    p, q = (s3.id_of(perm_from_cycles(3, c)) for c in ((0, 1), (1, 2)))
    a, b = next((a, b) for a in range(s3.order) for b in range(s3.order)
                if s3.product((a, b, s3.inv(a), s3.inv(b))) == s3.mul(q, p))
    d = BoundaryDatum(s3, (MarkedComponent(1, ((a, b),),
                                           (MarkedPoint.cyclic(p), MarkedPoint.cyclic(q))),))
    assert validate(d) == []
    e = collide(d, 0, 0)
    assert e.components[0].points == (MarkedPoint.dihedral(s3.mul(p, q), p),)
    assert validate(e) == [] and unstable_components(e) == []
    assert canonical_form(smooth(e, 0, 0)) == canonical_form(d)
