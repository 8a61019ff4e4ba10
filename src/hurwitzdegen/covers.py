"""Covering curves of boundary data: the report from the graph of groups,
the explicit cover by coset enumeration.

Conventions fixed once for the whole package: fibers are copies of G,
monodromy acts by right multiplication and deck transformations by left
multiplication.  Consequently the cover components over a quotient
component Y with image subgroup H_Y are the left cosets gH_Y, points over a
marked point with monodromy m are the left cosets g<m>, and the nodes over
a dihedral point (m, s) are the left cosets g<m, s> whose two branches are
the two <m>-cosets contained in g<m, s>.

``cover_report`` counts everything it reports over the datum's graph of
groups (``boundary.dual_graph_of_groups``; Bass, J. Pure Appl. Algebra 89
(1993)): [G : H_Y] components over Y, [G : E_e] nodes over edge e, and
[G : K_P] connected components over each connected piece P of the quotient
graph, where K_P is generated by P's vertex groups and dihedral edge groups.
``build_cover`` enumerates the cover itself, one coset table per component
and edge, for the DOT export of ``graph --which cover`` and for the tests,
which count the same report on it and build its deck action and its
intermediate quotients from its coset tables.
"""

from __future__ import annotations

from ._record import Record, set_field
from .boundary import BoundaryDatum, DualGraphOfGroups, dual_graph_of_groups, is_stable_curve
from .errors import NegativeGenus, NonIntegralGenus
from .graphs import GenGraph, gengraph_to_dot
from .groups import PermGroup, Subgroup, left_cosets

_NODE_KIND = {2: "cyclic", 1: "dihedral"}   # by the number of ends of the quotient edge


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


def _component_genera(datum: BoundaryDatum, gog: DualGraphOfGroups) -> list[int]:
    """The genus of the cover components over each quotient component."""
    G = datum.group
    return [rh_genus(H.order, comp.genus,
                     [G.element_order(pt.m) for pt in comp.points if pt.m != G.identity])
            for comp, H in zip(datum.components, gog.vertex_groups)]


def _genus(double: int) -> int:
    """g from a Riemann-Hurwitz count 2g - 2, which must be even and >= -2."""
    if double % 2 != 0:
        raise NonIntegralGenus(f"2g - 2 = {double} is odd")
    g = (double + 2) // 2
    if g < 0:
        raise NegativeGenus(f"genus {g} < 0")
    return g


class CoverComponent(Record):
    __slots__ = ("quotient_component", "coset", "genus")

    def __init__(self, quotient_component: int, coset: int, genus: int):
        set_field(self, "quotient_component", quotient_component)
        set_field(self, "coset", coset)      # index into the H_Y coset table of that component
        set_field(self, "genus", genus)


class CoverBranch(Record):
    __slots__ = ("quotient_point", "m_coset", "vertex")

    def __init__(self, quotient_point: tuple[int, int], m_coset: int, vertex: int):
        set_field(self, "quotient_point", quotient_point)  # (component index, point index)
        set_field(self, "m_coset", m_coset)  # index into the <m> coset table of the node's edge
        set_field(self, "vertex", vertex)    # cover component carrying the branch


class CoverNode(Record):
    __slots__ = ("edge", "branch_a", "branch_b")

    def __init__(self, edge: int, branch_a: CoverBranch, branch_b: CoverBranch):
        set_field(self, "edge", edge)        # unoriented edge of the graph of groups
        set_field(self, "branch_a", branch_a)
        set_field(self, "branch_b", branch_b)


class CoverCurve(Record):
    """The cover of a boundary datum: components, nodes and their dual graph.

    ``offsets[ci]`` is the first cover component over quotient component ci;
    ``comp_cosets`` and ``edge_mcosets`` hold G/H_Y and G/<m> per quotient
    component and edge.  Oriented edge 2k of ``graph`` is branch a of node k
    and edge 2k + 1 its branch b; each edge ends at its branch's component.
    """

    __slots__ = ("datum", "gog", "components", "offsets", "nodes", "comp_cosets",
                 "edge_mcosets", "graph")


def build_cover(datum: BoundaryDatum) -> CoverCurve:
    gog = dual_graph_of_groups(datum)
    G = datum.group

    comp_cosets = [left_cosets(G, H) for H in gog.vertex_groups]
    components: list[CoverComponent] = []
    offsets: list[int] = []
    for ci, genus in enumerate(_component_genera(datum, gog)):
        offsets.append(len(components))
        components += [CoverComponent(ci, c, genus) for c in range(len(comp_cosets[ci]))]

    # one <m>-coset table per edge, shared by both ends of a node
    edge_mcosets = [left_cosets(G, K) for K in gog.edge_kernels]

    def branch(e: int, point: tuple[int, int], element: int) -> CoverBranch:
        ci = point[0]
        return CoverBranch(point, edge_mcosets[e].index_of[element],
                           offsets[ci] + comp_cosets[ci].index_of[element])

    nodes: list[CoverNode] = []
    for e, ends in enumerate(gog.edge_ends):
        mcos = edge_mcosets[e]
        if len(ends) == 2:
            end_a, end_b = ends
            nodes += [CoverNode(e, branch(e, end_a, cell[0]), branch(e, end_b, cell[0]))
                      for cell in mcos.cells]
            continue
        # the node r<m, s> pairs the branches r<m> and rs<m>; the pair is met
        # first at the coset holding the minimum of r<m, s>
        (point,) = ends
        times_s = G.right_table(datum.point(*point).s)
        for t, cell in enumerate(mcos.cells):
            rep_s = times_s[cell[0]]
            if mcos.index_of[rep_s] > t:
                nodes.append(CoverNode(e, branch(e, point, cell[0]), branch(e, point, rep_s)))
    graph = GenGraph.from_unoriented(
        len(components), [(node.branch_b.vertex, node.branch_a.vertex) for node in nodes])
    return CoverCurve(datum, gog, components, offsets, nodes, comp_cosets, edge_mcosets, graph)


def node_class_summary(G: PermGroup, gog: DualGraphOfGroups) -> list[dict]:
    """Counts of nodes grouped by (kind, stabilizer order): [G : E_e] nodes,
    each with stabilizer conjugate to E_e, lie over quotient edge e."""
    buckets: dict[tuple[str, int], int] = {}
    for ends, E in zip(gog.edge_ends, gog.edge_groups):
        key = (_NODE_KIND[len(ends)], E.order)
        buckets[key] = buckets.get(key, 0) + G.order // E.order
    return [{"kind": kind, "stabilizer_order": order, "count": count}
            for (kind, order), count in sorted(buckets.items())]


# -- reporting ----------------------------------------------------------------


def cover_to_dot(cover: CoverCurve) -> str:
    gog = cover.gog
    vlabels = [f"g={comp.genus} |H|={gog.vertex_groups[comp.quotient_component].order}"
               for comp in cover.components]
    elabels = [str(gog.edge_groups[node.edge].order) for node in cover.nodes]
    return gengraph_to_dot(cover.graph, name="cover",
                           vertex_labels=vlabels, edge_labels=elabels)


def cover_report(datum: BoundaryDatum, gog: DualGraphOfGroups) -> dict:
    """The cover block of ``analyze``, counted on the graph of groups.

    A connected piece P of the quotient graph carries [G : K_P] connected
    cover components, permuted transitively by G, so each has arithmetic
    genus (sum g + nodes - components) / [G : K_P] + 1 with the sums over
    P's part of the cover.  A cover component over Y meets sum |H_Y| / |K_e|
    branches, over the edge ends e at Y.
    """
    G = datum.group
    genera = _component_genera(datum, gog)
    components = [{"quotient_component": ci, "coset": c, "genus": genera[ci]}
                  for ci, H in enumerate(gog.vertex_groups) for c in range(G.order // H.order)]

    piece_of = gog.graph.connected_component_ids()
    groups: list[list[Subgroup]] = [[] for _ in range(max(piece_of) + 1)]  # generate K_P
    euler = [0] * len(groups)      # sum g + nodes - components over P
    branches = [0] * len(datum.components)
    for ci, H in enumerate(gog.vertex_groups):
        groups[piece_of[ci]].append(H)
        euler[piece_of[ci]] += (genera[ci] - 1) * (G.order // H.order)
    for ends, E, K in zip(gog.edge_ends, gog.edge_groups, gog.edge_kernels):
        euler[piece_of[ends[0][0]]] += G.order // E.order
        if len(ends) == 1:  # a dihedral point: its nodes join gH_Y to gsH_Y
            groups[piece_of[ends[0][0]]].append(E)
        for ci, _ in ends:
            branches[ci] += gog.vertex_groups[ci].order // K.order

    piece_genera = []
    for P, total in zip(groups, euler):
        K_P = P[0] if len(P) == 1 else G.generated_subgroup(g for S in P for g in S.generators())
        count = G.order // K_P.order
        piece_genera += [total // count + 1] * count
    connected = len(piece_genera) == 1
    stable = connected and piece_genera[0] >= 2 and all(
        is_stable_curve(g, branches[ci]) for ci, g in enumerate(genera))
    return {
        "component_count": len(components),
        "components": components,
        "node_count": sum(G.order // E.order for E in gog.edge_groups),
        "node_classes": node_class_summary(G, gog),
        "connected": connected,
        "stable": stable,
        "arithmetic_genus": piece_genera[0] if connected else None,
        "component_arithmetic_genera": piece_genera,
    }
