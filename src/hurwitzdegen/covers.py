"""Covering curves of boundary data: the report from the graph of groups,
the explicit cover by coset enumeration.

Conventions fixed once for the whole package: fibers are copies of G,
monodromy acts by right multiplication and deck transformations by left
multiplication.  Consequently the cover components over a quotient
component Y with image subgroup H_Y are the left cosets gH_Y, points over a
marked point with monodromy m are the left cosets g<m>, and the nodes over
a dihedral point (m, s) are the left cosets g<m, s> whose two branches are
the two <m>-cosets contained in g<m, s>.

``cover_report(gog)`` counts everything it reports over the datum's graph
of groups, which holds the datum (``boundary.dual_graph_of_groups``; Bass,
J. Pure Appl. Algebra 89 (1993)): [G : H_Y] components over Y, [G : E_e]
nodes over edge e, with |E_e| and |K_e| = ord m read off the edge label
(m, s) and a node's kind "dihedral" exactly when s != e, and [G : K_P]
connected components over each connected piece P of the quotient graph,
with K_P read off the graph of groups, which closes it: ``cover_report``
closes no subgroup.
``build_cover`` enumerates the cover itself as its coset tables, one per
quotient component and, with <m> closed from the label, one per edge: a
cover component is a cell of its component's table and a node is a triple
of ints, its quotient edge and the <m>-cells of its two branches.  It
serves the DOT export of ``graph --which cover`` and the tests, which count
the same report on it and build its deck action and its intermediate
quotients from those tables.
"""

from __future__ import annotations

from itertools import accumulate

from ._record import Record
from .boundary import BoundaryDatum, DualGraphOfGroups, dual_graph_of_groups, is_stable_curve
from .errors import NegativeGenus, NonIntegralGenus
from .graphs import GenGraph, gengraph_to_dot
from .groups import left_cosets


def rh_genus(subgroup_order: int, base_genus: int, ramification_orders: list[int]) -> int:
    """Genus of one component of an |H|-Galois cover, by Riemann-Hurwitz.

    2g - 2 = |H| (2h - 2) + sum(|H| - |H|/ord); identity monodromies must be
    filtered out by the caller (they contribute no ramification).
    """
    H = subgroup_order
    for d in ramification_orders:
        if H % d != 0:
            raise ValueError(f"ramification order {d} does not divide {H}")
    return _genus(H * (2 * base_genus - 2) + sum(H - H // d for d in ramification_orders))


def _component_genera(gog: DualGraphOfGroups) -> list[int]:
    """The genus of the cover components over each quotient component."""
    G = gog.datum.group
    return [rh_genus(H.order, comp.genus,
                     [G.element_order(pt.m) for pt in comp.points if pt.m != G.identity])
            for comp, H in zip(gog.datum.components, gog.vertex_groups)]


def _genus(double: int) -> int:
    """g from a Riemann-Hurwitz count 2g - 2, which must be even and >= -2."""
    if double % 2 != 0:
        raise NonIntegralGenus(f"2g - 2 = {double} is odd")
    g = (double + 2) // 2
    if g < 0:
        raise NegativeGenus(f"genus {g} < 0")
    return g


class CoverCurve(Record):
    """The cover of the datum ``gog.datum``: its coset tables, nodes and dual graph.

    The cover components over quotient component ci are the cells of
    ``comp_cosets[ci]`` (G/H_Y), numbered from ``offsets[ci]``, each of genus
    ``genera[ci]``.  ``edge_mcosets[e]`` holds G/<m> for quotient edge e.
    Node k is ``nodes[k] = (e, a, b)``: it lies over e and joins the branch
    at cell a of ``edge_mcosets[e]`` over the point ``gog.edge_ends[e][0]``
    to the branch at cell b over ``gog.edge_ends[e][-1]``.  Oriented edge 2k
    of ``graph`` is branch a and edge 2k + 1 branch b; each ends at its
    branch's component.
    """

    __slots__ = ("gog", "genera", "offsets", "comp_cosets", "edge_mcosets", "nodes", "graph")


def build_cover(datum: BoundaryDatum) -> CoverCurve:
    gog = dual_graph_of_groups(datum)
    G = datum.group
    comp_cosets = [left_cosets(G, H) for H in gog.vertex_groups]
    *offsets, vertex_count = accumulate(map(len, comp_cosets), initial=0)
    # one <m>-coset table per edge, shared by both ends of a node
    edge_mcosets = [left_cosets(G, G.cyclic_subgroup(m)) for m, _ in gog.edge_labels]

    nodes: list[tuple[int, int, int]] = []
    pairs: list[tuple[int, int]] = []
    for e, (ends, (_, s)) in enumerate(zip(gog.edge_ends, gog.edge_labels)):
        # over a node s = e and each cell r<m> is one node, with b = a; over a
        # dihedral point (m, s) the node r<m, s> pairs the branches r<m> and
        # rs<m>, and is kept at the lesser cell, which holds its minimum
        ca, cb = ends[0][0], ends[-1][0]
        mcos = edge_mcosets[e]
        for a, cell in enumerate(mcos.cells):
            rep_s = G.mul(cell[0], s)
            b = mcos.index_of[rep_s]
            if b >= a:
                nodes.append((e, a, b))
                pairs.append((offsets[cb] + comp_cosets[cb].index_of[rep_s],
                              offsets[ca] + comp_cosets[ca].index_of[cell[0]]))
    graph = GenGraph.from_unoriented(vertex_count, pairs)
    return CoverCurve(gog, _component_genera(gog), offsets, comp_cosets, edge_mcosets, nodes,
                      graph)


def node_class_summary(gog: DualGraphOfGroups) -> list[dict]:
    """Counts of nodes grouped by (kind, stabilizer order): [G : E_e] nodes,
    each with stabilizer conjugate to E_e, lie over quotient edge e."""
    G = gog.datum.group
    buckets: dict[tuple[str, int], int] = {}
    for (_, s), order in zip(gog.edge_labels, gog.edge_orders()):
        key = ("cyclic" if s == G.identity else "dihedral", order)
        buckets[key] = buckets.get(key, 0) + G.order // order
    return [{"kind": kind, "stabilizer_order": order, "count": count}
            for (kind, order), count in sorted(buckets.items())]


# -- reporting ----------------------------------------------------------------


def cover_to_dot(cover: CoverCurve) -> str:
    gog, orders = cover.gog, cover.gog.edge_orders()
    vlabels = [f"g={genus} |H|={H.order}"
               for genus, H, cos in zip(cover.genera, gog.vertex_groups, cover.comp_cosets)
               for _ in cos.cells]
    elabels = [str(orders[e]) for e, _, _ in cover.nodes]
    return gengraph_to_dot(cover.graph, name="cover",
                           vertex_labels=vlabels, edge_labels=elabels)


def cover_report(gog: DualGraphOfGroups) -> dict:
    """The cover block of ``analyze``, counted on the graph of groups.

    A connected piece P of the quotient graph carries [G : K_P] connected
    cover components, permuted transitively by G, so each has arithmetic
    genus (sum g + nodes - components) / [G : K_P] + 1 with the sums over
    P's part of the cover.  A cover component over Y meets sum |H_Y| / |K_e|
    branches, over the edge ends e at Y.
    """
    G = gog.datum.group
    genera = _component_genera(gog)
    components = [{"quotient_component": ci, "coset": c, "genus": genera[ci]}
                  for ci, H in enumerate(gog.vertex_groups) for c in range(G.order // H.order)]

    euler = [0] * len(gog.piece_groups)  # sum g + nodes - components over P
    branches = [0] * len(gog.vertex_groups)
    for ci, H in enumerate(gog.vertex_groups):
        euler[gog.piece_of[ci]] += (genera[ci] - 1) * (G.order // H.order)
    edge_orders = gog.edge_orders()
    for ends, (m, _), order in zip(gog.edge_ends, gog.edge_labels, edge_orders):
        euler[gog.piece_of[ends[0][0]]] += G.order // order
        for ci, _ in ends:  # |K_e| = ord m
            branches[ci] += gog.vertex_groups[ci].order // G.element_order(m)

    piece_genera = []
    for K_P, total in zip(gog.piece_groups, euler):
        count = G.order // K_P.order
        piece_genera += [total // count + 1] * count
    connected = gog.connected
    stable = connected and piece_genera[0] >= 2 and all(
        is_stable_curve(g, branches[ci]) for ci, g in enumerate(genera))
    return {
        "component_count": len(components),
        "components": components,
        "node_count": sum(G.order // order for order in edge_orders),
        "node_classes": node_class_summary(gog),
        "connected": connected,
        "stable": stable,
        "arithmetic_genus": piece_genera[0] if connected else None,
        "component_arithmetic_genera": piece_genera,
    }
