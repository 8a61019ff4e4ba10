"""Built-in worked examples and the pinned audit behind ``verify-examples``.

The icosahedral family: A5 acting on the line with branch orders (5, 2, 3),
its dihedral degeneration (genus-6 nodal curve with 6 dihedral nodes), the
smoothed 4-point family with orders (2, 2, 2, 3), and its split
degeneration.  The order-168 family over the 8-point projective line with
branch orders (7, 2, 3) is audited arithmetically: the dihedral boundary
datum it would need does not exist in this group, which the audit reports
as a warning rather than a failure.
"""

from __future__ import annotations

from ._record import Record
from .boundary import BoundaryDatum, HurwitzTuple, dual_graph_of_groups, equivalent
from .cohomology import de_rham_character
from .covers import cover_report, rh_genus
from .degen import collide_pair, dihedral_degenerations, smooth_dihedral, split_degenerations
from .groups import (PermGroup, induced_character, induced_sign, inner, inverting_involutions,
                     perm_from_cycles)

PASS = "PASS"
WARN = "WARN"
FAIL = "FAIL"


class AuditCheck(Record):
    """One audit line; ``status`` is PASS, WARN or FAIL."""

    __slots__ = ("name", "status", "detail")


def a5_group() -> PermGroup:
    return PermGroup([perm_from_cycles(5, (0, 1, 2, 3, 4)),
                      perm_from_cycles(5, (0, 1, 2))])


def a5_tuple(G: PermGroup | None = None) -> HurwitzTuple:
    """The 5-cycle, the first completing involution in stored order and a 3-cycle."""
    G = G or a5_group()
    return HurwitzTuple(G, tuple(map(G.id_of, ([1, 2, 3, 4, 0], [0, 2, 1, 4, 3],
                                               [3, 0, 2, 1, 4]))))


def a5_dihedral_degenerations(G: PermGroup | None = None):
    return dihedral_degenerations(a5_tuple(G), 0)


def psl27_group() -> PermGroup:
    """Order-168 group on the 8 points of the projective line over F7.

    Generators: z -> z+1 and z -> -1/z, with point 7 playing infinity.
    """
    shift = [(z + 1) % 7 for z in range(7)] + [7]
    neg_inv = [7] + [(-pow(z, 5, 7)) % 7 for z in range(1, 7)] + [0]
    return PermGroup([shift, neg_inv])


def psl27_tuple(G: PermGroup | None = None) -> HurwitzTuple:
    """z -> z+1, the first completing involution in stored order and an element of order 3."""
    G = G or psl27_group()
    return HurwitzTuple(G, tuple(map(G.id_of, ([1, 2, 3, 4, 5, 6, 0, 7], [1, 0, 3, 2, 6, 7, 4, 5],
                                               [4, 1, 0, 3, 2, 6, 7, 5]))))


def _cyclic_normalizer_order(G: PermGroup, m: int) -> int:
    """|N_G(<m>)| = |C_G(m)| times the number of conjugates of m in <m>, each a generator
    of <m> (Holt, Eick and O'Brien, Handbook of Computational Group Theory, 4.1)."""
    cls = G.class_of(m)
    conjugates = sum(G.class_of(x) == cls for x in G.cyclic_subgroup(m).members)
    return G.order // len(G.conjugacy_classes()[cls]) * conjugates


def _report_and_h1(datum: BoundaryDatum) -> tuple[dict, tuple[int, ...] | None]:
    """The cover block of ``analyze`` and the H^1 character of the datum's cover."""
    gog = dual_graph_of_groups(datum)
    return cover_report(gog), de_rham_character(gog).h1_character


def run_audit() -> list[AuditCheck]:
    checks: list[AuditCheck] = []

    def check(name: str, ok: bool, detail: str, warn_only: bool = False):
        status = PASS if ok else (WARN if warn_only else FAIL)
        checks.append(AuditCheck(name, status, detail))

    def note(name: str, status: str, detail: str):
        checks.append(AuditCheck(name, status, detail))

    # --- icosahedral pipeline -------------------------------------------
    G = a5_group()
    check("a5-order", G.order == 60, f"group order {G.order}, expected 60")

    t3 = a5_tuple(G)
    m = t3.entries[0]
    C5 = G.cyclic_subgroup(m)
    invs = inverting_involutions(G, m)
    n5, D10 = _cyclic_normalizer_order(G, m), G.generated_subgroup([m, *invs[:1]])
    check("a5-normalizer", n5 == 10 and D10.order == n5,
          f"normalizer of the 5-cycle subgroup has order {n5}, expected 10")
    cosets = G.order // C5.order
    check("a5-cosets", cosets == 12,
          f"{cosets} cosets of the order-5 subgroup, expected 12")
    check("a5-involutions", len(invs) == 5,
          f"{len(invs)} inverting involutions for the 5-cycle, expected 5")

    degs = a5_dihedral_degenerations(G)
    check("a5-dihedral-count", len(degs) == 5,
          f"{len(degs)} dihedral degenerations at index 0, expected 5")
    dihedral, h1 = _report_and_h1(degs[0].datum)
    check("a5-dihedral-components", dihedral["component_count"] == 1,
          f"{dihedral['component_count']} cover component(s), expected 1")
    check("a5-dihedral-genus0", all(c["genus"] == 0 for c in dihedral["components"]),
          "all cover components rational")
    check("a5-dihedral-nodes", dihedral["node_count"] == 6,
          f"{dihedral['node_count']} nodes, expected 6")
    kinds = {entry["kind"] for entry in dihedral["node_classes"]}
    stabs = {entry["stabilizer_order"] for entry in dihedral["node_classes"]}
    check("a5-node-class", kinds == {"dihedral"} and stabs == {10},
          f"node kinds {sorted(kinds)}, stabilizer orders {sorted(stabs)}, expected dihedral/10")
    ga = dihedral["arithmetic_genus"]
    check("a5-arithmetic-genus", ga == 6, f"arithmetic genus {ga}, expected 6")
    note("a5-genus-consistency", WARN if ga == 6 else FAIL,
         "computed arithmetic genus 6; a genus-5 description of this curve is "
         "inconsistent with 6 nodes on one rational component")
    check("a5-stable", dihedral["stable"], "cover is stable")

    ind_sgn = induced_sign(G, m, invs[0])  # D10 = <m, invs[0]>
    twice = tuple(2 * v for v in ind_sgn)
    check("a5-h1-character", h1 == twice and h1[0] == 12,
          f"H1 character degree {h1[0]} "
          f"{'equals' if h1 == twice else 'differs from'} "
          "twice the induced signum of the order-10 subgroup")

    t4 = smooth_dihedral(degs[0])
    orders = tuple(G.element_order(pt.m) for pt in t4.components[0].points)
    check("a5-smoothing-orders", orders == (2, 2, 2, 3),
          f"smoothed tuple branch orders {orders}, expected (2, 2, 2, 3)")
    splits = split_degenerations(t4)
    check("a5-split-count", len(splits) == 1, f"{len(splits)} split(s), expected 1")
    split, h1_split = _report_and_h1(splits[0].datum)
    check("a5-split-shape",
          split["component_count"] == 7 and split["node_count"] == 12,
          f"{split['component_count']} components / {split['node_count']} nodes, "
          "expected 7 / 12")
    ga2 = split["arithmetic_genus"]
    check("a5-split-genus", ga2 == 6, f"split-side arithmetic genus {ga2}, expected 6")
    check("a5-character-constancy", h1_split == h1,
          "H1 characters of the two degenerations of one family "
          + ("agree exactly" if h1_split == h1 else "differ"))
    mackey = induced_character(G, C5) == tuple(
        a + b for a, b in zip(induced_character(G, D10), ind_sgn))
    check("a5-mackey", mackey,
          "induction from the order-5 subgroup matches the order-10 subgroup's "
          "trivial plus signum inductions")

    rt = collide_pair(t4, 0)
    check("a5-round-trip", equivalent(rt.datum, degs[0].datum),
          "colliding the smoothed involution pair recovers the dihedral datum")

    # --- order-168 family: arithmetic and realizability -------------------
    P = psl27_group()
    check("psl27-order", P.order == 168, f"group order {P.order}, expected 168")
    g_interior = rh_genus(168, 0, [7, 2, 3])
    check("klein-genus-3", g_interior == 3,
          f"rh_genus(168, 0, [7,2,3]) = {g_interior}, expected 3")
    g_smoothed = rh_genus(168, 0, [2, 2, 2, 3])
    check("klein-genus-15", g_smoothed == 15,
          f"rh_genus(168, 0, [2,2,2,3]) = {g_smoothed}, expected 15")
    node_count = 168 // 14
    ga_hypo = 3 + node_count - 1 + 1
    check("klein-boundary-arithmetic", node_count == 12 and ga_hypo == 15,
          f"hypothetical dihedral boundary: 168/14 = {node_count} nodes, "
          f"g_a = 3 + {node_count} - 1 + 1 = {ga_hypo}")

    tP = psl27_tuple(P)
    u = tP.entries[0]
    n7 = _cyclic_normalizer_order(P, u)
    inv7 = inverting_involutions(P, u)
    realizable = n7 == 14 and len(inv7) > 0
    check("psl27-realizability", realizable,
          "expected a dihedral Sylow-7 normalizer of order 14 with an inverting "
          f"involution; exhaustive search over all {P.order} elements finds "
          f"normalizer order {n7} and {len(inv7)} inverting involutions, "
          "so the order-168 dihedral boundary datum is not realizable here",
          warn_only=True)
    degP = dihedral_degenerations(tP, 0)
    check("psl27-dihedral-empty", len(degP) == 0,
          f"{len(degP)} dihedral degenerations at the order-7 point, expected 0",
          )

    # the smooth interior datum itself is fine
    interior, h1P = _report_and_h1(tP)
    invariants = inner(P, h1P, (1,) * len(h1P))
    check("psl27-interior", interior["component_count"] == 1
          and interior["components"][0]["genus"] == 3
          and h1P[0] == 2 * 3 and invariants == 0,
          "interior cover: one component of genus 3; H1 character of degree "
          f"{h1P[0]} with {invariants} trivial constituent(s), expected 6 and 0")

    return checks


def audit_passed(checks: list[AuditCheck]) -> bool:
    return all(c.status != FAIL for c in checks)
