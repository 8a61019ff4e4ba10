"""Acceptance suite: one test per pinned criterion, all tolerances exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

from __future__ import annotations

import random
import time

from hurwitzdegen import (build_cover, canonical_form, collide_pair, de_rham_character,
                          dihedral_degenerations, dual_graph_of_groups, equivalent,
                          induced_character, is_inverting_involution, left_cosets,
                          perm_from_cycles, rh_genus, smooth_dihedral, validate)
from hurwitzdegen import audit
from hurwitzdegen.covers import cover_report

from conftest import (a5_split_datum, canonical_form_by_scan, characters, conjugate_datum,
                      deck_action, induced_by_kernel, inverting_pairs, normalizer,
                      quotient_report, random_valid_datum)


def _result(name: str, ok: bool) -> None:
    print(f"\nacceptance {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_criterion_1_a5_pipeline():
    start = time.perf_counter()
    G = audit.a5_group()
    ok = G.order == 60

    m = G.id_of(perm_from_cycles(5, (0, 1, 2, 3, 4)))
    C5 = G.cyclic_subgroup(m)
    ok &= normalizer(G, C5).order == 10
    ok &= len(left_cosets(G, C5)) == 12

    cover = quotient_report(audit.a5_dihedral_degenerations(G)[0].datum)
    ok &= cover["component_count"] == 1
    ok &= cover["components"][0]["genus"] == 0
    ok &= cover["node_count"] == 6
    ok &= cover["node_classes"] == [{"kind": "dihedral", "stabilizer_order": 10, "count": 6}]
    ok &= cover["arithmetic_genus"] == 6
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _result(f"1 (A5 pipeline, {elapsed:.2f}s)", ok)


def test_criterion_2_a5_h1_character():
    G = audit.a5_group()
    datum = audit.a5_dihedral_degenerations(G)[0].datum
    m = G.id_of(perm_from_cycles(5, (0, 1, 2, 3, 4)))
    C5 = G.cyclic_subgroup(m)
    D10 = normalizer(G, C5)
    expected = tuple(2 * v for v in induced_by_kernel(G, D10, C5))
    h1 = characters(datum).h1_character
    ok = h1 == expected and h1[0] == 12 == 2 * quotient_report(datum)["arithmetic_genus"]
    _result("2 (A5 h1 = 2*Ind(signum), degree 12)", ok)


def test_criterion_3_cross_degeneration_constancy():
    G = audit.a5_group()
    dihedral = audit.a5_dihedral_degenerations(G)[0].datum
    split = a5_split_datum(G)
    split_cover = quotient_report(split)
    ok = split_cover["component_count"] == 7
    ok &= all(c["genus"] == 0 for c in split_cover["components"])
    ok &= split_cover["node_count"] == 12
    ok &= [c["kind"] for c in split_cover["node_classes"]] == ["cyclic"]
    ok &= split_cover["arithmetic_genus"] == 6
    ok &= characters(split).h1_character == characters(dihedral).h1_character

    m = G.id_of(perm_from_cycles(5, (0, 1, 2, 3, 4)))
    C5 = G.cyclic_subgroup(m)
    D10 = normalizer(G, C5)
    ok &= induced_character(G, C5) == tuple(a + b for a, b in zip(
        induced_character(G, D10), induced_by_kernel(G, D10, C5), strict=True))
    _result("3 (split datum: 7 components, 12 cyclic nodes, same h1; Mackey)", ok)


def test_criterion_4_klein_arithmetic():
    ok = rh_genus(168, 0, [7, 2, 3]) == 3
    ok &= rh_genus(168, 0, [2, 2, 2, 3]) == 15
    nodes = 168 // 14
    ok &= nodes == 12
    ok &= 3 + nodes - 1 + 1 == 15
    _result("4 (Klein genus arithmetic: 3, 15, node count 12)", ok)


def test_criterion_5_realizability_audit():
    P = audit.psl27_group()
    u = P.id_of([1, 2, 3, 4, 5, 6, 0, 7])
    assert P.element_order(u) == 7
    no_involution = all(not is_inverting_involution(P, u, s) for s in range(P.order))
    n_order = normalizer(P, P.cyclic_subgroup(u)).order

    checks = audit.run_audit()
    again = audit.run_audit()
    deterministic = [(c.name, c.status, c.detail) for c in checks] == \
        [(c.name, c.status, c.detail) for c in again]
    warn = next(c for c in checks if c.name == "psl27-realizability")
    names_claim = ("dihedral" in warn.detail and "Sylow-7" in warn.detail
                   and "order 14" in warn.detail and "order 21" in warn.detail)
    ok = (no_involution and n_order == 21 and warn.status == "WARN"
          and names_claim and deterministic and audit.audit_passed(checks))
    _result("5 (realizability: normalizer order 21, no involution, WARN emitted)", ok)


def test_criterion_6_property_suites(s3, s4, d4, d5):
    start = time.perf_counter()
    cases = 0
    degree_checked = 0
    for G, seed in ((s3, 601), (s4, 602), (d4, 603), (d5, 604)):
        rng = random.Random(seed)
        pairs = inverting_pairs(G)
        for _ in range(125):
            datum = random_valid_datum(G, rng, pairs)
            assert validate(datum) == []
            cover = build_cover(datum)          # integral genera or it raises
            assert all(g >= 0 for g in cover.genera)

            # equivariance: orbit size times stabilizer order equals |G|
            v0 = 0
            action = deck_action(cover)
            orbit = {action.vertex_images[g][v0] for g in range(G.order)}
            stab = sum(1 for g in range(G.order)
                       if action.vertex_images[g][v0] == v0)
            assert len(orbit) * stab == G.order
            if cover.nodes:
                images = {action.edge_images[g][0] // 2 for g in range(G.order)}
                nstab = sum(1 for g in range(G.order)
                            if action.edge_images[g][0] // 2 == 0)
                assert len(images) * nstab == G.order

            # canonical form: every conjugate gives the same key, which equals the scan
            cf = canonical_form(datum)
            assert {canonical_form(conjugate_datum(datum, h)) for h in range(G.order)} == {cf}
            assert cf == canonical_form_by_scan(datum)
            g = rng.randrange(G.order)
            assert equivalent(datum, conjugate_datum(datum, g))

            all_rational = not any(cover.genera)
            gog = dual_graph_of_groups(datum)
            report = cover_report(gog)
            if all_rational and report["connected"]:
                rep = de_rham_character(gog)
                assert rep.chi_dR[0] == 2 - 2 * report["arithmetic_genus"]
                degree_checked += 1
            cases += 1
    elapsed = time.perf_counter() - start
    ok = cases >= 500 and degree_checked >= 20 and elapsed < 30.0
    _result(f"6 (property suites: {cases} cases, "
            f"{degree_checked} degree checks, {elapsed:.1f}s)", ok)


def test_criterion_8_round_trip():
    G = audit.a5_group()
    t3 = audit.a5_tuple(G)
    degs = dihedral_degenerations(t3, 0)
    ok = len(degs) == 5
    for d in degs:
        t4 = smooth_dihedral(d)
        back = collide_pair(t4, 0)
        ok &= equivalent(back.datum, d.datum)
        ok &= any(equivalent(back.datum, other.datum) for other in degs)
    _result("8 (round trip through smoothing and pair collision, all 5 data)", ok)
