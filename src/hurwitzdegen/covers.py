"""Covering curves of boundary data by coset enumeration.

Conventions fixed once for the whole package: fibers are copies of G,
monodromy acts by right multiplication and deck transformations by left
multiplication.  Consequently the cover components over a quotient
component Y with image subgroup H_Y are the left cosets gH_Y, points over a
marked point with monodromy m are the left cosets g<m>, and the nodes over
a dihedral point (m, s) are the left cosets g<m, s> whose two branches are
the two <m>-cosets contained in g<m, s>.

Everything reported is read off the datum's graph of groups
(``boundary.dual_graph_of_groups``), kept on the cover as ``cover.gog``:
each node lies over one of its edges and takes its class from that edge's
group.  A branch is a (quotient point, <m>-coset) pair and g acts on it by
left multiplication on the coset; that one rule gives the explicit deck
action, which ``CoverCurve.action`` builds as |G|-row tables only on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .boundary import BoundaryDatum, DualGraphOfGroups, dual_graph_of_groups
from .errors import Disconnected, NegativeGenus, NonIntegralGenus
from .graphs import GenGraph, GraphAction, gengraph_to_dot
from .groups import CosetTable, Subgroup, left_cosets, orbits

CYCLIC_NODE = "cyclic"
DIHEDRAL_NODE = "dihedral"
_NODE_KIND = {2: CYCLIC_NODE, 1: DIHEDRAL_NODE}   # by the number of ends of the quotient edge


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


def _genus(double: int) -> int:
    """g from a Riemann-Hurwitz count 2g - 2, which must be even and >= -2."""
    if double % 2 != 0:
        raise NonIntegralGenus(f"2g - 2 = {double} is odd")
    g = (double + 2) // 2
    if g < 0:
        raise NegativeGenus(f"genus {g} < 0")
    return g


@dataclass(frozen=True)
class CoverComponent:
    quotient_component: int
    coset: int      # index into the H_Y coset table of that component
    genus: int


@dataclass(frozen=True)
class CoverBranch:
    quotient_point: tuple[int, int]   # (component index, point index)
    m_coset: int                      # index into the <m> coset table of the node's edge
    vertex: int                       # cover component carrying the branch


@dataclass(frozen=True)
class CoverNode:
    edge: int                         # unoriented edge of the graph of groups
    branch_a: CoverBranch
    branch_b: CoverBranch


@dataclass(frozen=True)
class NodeClass:
    kind: str                         # CYCLIC_NODE | DIHEDRAL_NODE
    stabilizer: Subgroup


class CoverCurve:
    """The cover of a boundary datum: components, nodes and their dual graph.

    Oriented edge 2k of the dual graph is branch a of node k and edge 2k + 1
    its branch b; each edge ends at its branch's component.
    """

    def __init__(self, datum: BoundaryDatum, gog: DualGraphOfGroups,
                 components: list[CoverComponent], offsets: list[int], nodes: list[CoverNode],
                 comp_cosets: list[CosetTable], edge_mcosets: list[CosetTable]):
        self.datum = datum
        self.gog = gog
        self.group = datum.group
        self.components = components
        self.offsets = offsets        # first cover component over each quotient component
        self.nodes = nodes
        self.comp_cosets = comp_cosets    # G/H_Y per quotient component
        self.edge_mcosets = edge_mcosets  # G/<m> per quotient edge
        edges, opp = [], []
        self._edge_of: dict[tuple, int] = {}
        for k, node in enumerate(nodes):
            edges += [(node.branch_b.vertex, node.branch_a.vertex),
                      (node.branch_a.vertex, node.branch_b.vertex)]
            opp += [2 * k + 1, 2 * k]
            self._edge_of[node.branch_a.quotient_point, node.branch_a.m_coset] = 2 * k
            self._edge_of[node.branch_b.quotient_point, node.branch_b.m_coset] = 2 * k + 1
        self.graph = GenGraph(len(components), tuple(edges), tuple(opp))

    def vertex_image(self, g: int, v: int) -> int:
        """g sends the component xH_Y to gxH_Y."""
        ci, coset = self.components[v].quotient_component, self.components[v].coset
        cos = self.comp_cosets[ci]
        return self.offsets[ci] + cos.index_of[self.group.mul(g, cos.rep(coset))]

    def edge_image(self, g: int, e: int) -> int:
        """g sends the branch (point, x<m>) of edge e to the branch (point, gx<m>)."""
        node = self.nodes[e // 2]
        branch = node.branch_b if e % 2 else node.branch_a
        mcos = self.edge_mcosets[node.edge]
        image = mcos.index_of[self.group.mul(g, mcos.rep(branch.m_coset))]
        return self._edge_of[branch.quotient_point, image]

    @cached_property
    def component_ids(self) -> list[int]:
        """The connected component of each cover component, computed once."""
        return self.graph.connected_component_ids()

    @cached_property
    def action(self) -> GraphAction:
        """The deck action as one table row per element of G, built on demand."""
        G, V, E = self.group, len(self.components), 2 * len(self.nodes)
        return GraphAction(
            self.graph, G,
            tuple(tuple(self.vertex_image(g, v) for v in range(V)) for g in range(G.order)),
            tuple(tuple(self.edge_image(g, e) for e in range(E)) for g in range(G.order)))


def build_cover(datum: BoundaryDatum) -> CoverCurve:
    gog = dual_graph_of_groups(datum)
    G = datum.group

    comp_cosets = [left_cosets(G, H) for H in gog.vertex_groups]
    components: list[CoverComponent] = []
    offsets: list[int] = []
    for ci, comp in enumerate(datum.components):
        orders = [G.element_order(pt.m) for pt in comp.points if pt.m != G.identity]
        genus = rh_genus(gog.vertex_groups[ci].order, comp.genus, orders)
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
    return CoverCurve(datum, gog, components, offsets, nodes, comp_cosets, edge_mcosets)


def is_connected(cover: CoverCurve) -> bool:
    return len(set(cover.component_ids)) <= 1


def arithmetic_genus(cover: CoverCurve) -> int:
    """sum g_i + #nodes - #components + 1; connected covers only."""
    if not is_connected(cover):
        raise Disconnected("arithmetic genus of a disconnected cover is undefined; "
                           "use arithmetic_genus_by_component")
    return arithmetic_genus_by_component(cover)[0]


def arithmetic_genus_by_component(cover: CoverCurve) -> tuple[int, ...]:
    """Arithmetic genus of each connected component of the cover."""
    comp_ids = cover.component_ids
    n = max(comp_ids) + 1 if comp_ids else 0
    genus_sum = [0] * n
    comp_count = [0] * n
    node_count = [0] * n
    for v, c in enumerate(cover.components):
        genus_sum[comp_ids[v]] += c.genus
        comp_count[comp_ids[v]] += 1
    for node in cover.nodes:
        node_count[comp_ids[node.branch_a.vertex]] += 1
    return tuple(genus_sum[i] + node_count[i] - comp_count[i] + 1 for i in range(n))


def branch_counts(cover: CoverCurve) -> list[int]:
    counts = [0] * len(cover.components)
    for node in cover.nodes:
        counts[node.branch_a.vertex] += 1
        counts[node.branch_b.vertex] += 1
    return counts


def is_stable(cover: CoverCurve) -> bool:
    """Connected, genus >= 2, rational components meet >= 3 branches."""
    if not is_connected(cover):
        return False
    if arithmetic_genus(cover) < 2:
        return False
    counts = branch_counts(cover)
    for v, comp in enumerate(cover.components):
        if comp.genus == 0 and counts[v] < 3:
            return False
        if comp.genus == 1 and counts[v] < 1:
            return False
    return True


def classify_node(cover: CoverCurve, node_idx: int) -> NodeClass:
    """Setwise stabilizer of the branch pair: r E_e r^-1 for the group E_e of
    the node's edge (<m>, or <m, s> over a dihedral point), where r
    represents branch a's coset r<m>."""
    G = cover.group
    node = cover.nodes[node_idx]
    r = cover.edge_mcosets[node.edge].rep(node.branch_a.m_coset)
    members = cover.gog.edge_groups[node.edge].members
    return NodeClass(_NODE_KIND[len(cover.gog.edge_ends[node.edge])],
                     G.subgroup(G.conj(r, h) for h in members))


def node_class_summary(cover: CoverCurve) -> list[dict]:
    """Counts of nodes grouped by (kind, stabilizer order): [G : E_e] nodes,
    each with stabilizer conjugate to E_e, lie over quotient edge e."""
    gog = cover.gog
    buckets: dict[tuple[str, int], int] = {}
    for ends, E in zip(gog.edge_ends, gog.edge_groups):
        key = (_NODE_KIND[len(ends)], E.order)
        buckets[key] = buckets.get(key, 0) + cover.group.order // E.order
    return [{"kind": kind, "stabilizer_order": order, "count": count}
            for (kind, order), count in sorted(buckets.items())]


# -- intermediate quotients ---------------------------------------------------


@dataclass(frozen=True)
class SubcoverComponent:
    quotient_component: int
    double_coset_rep: int             # minimal element id in K g H_Y
    degree: int                       # over the quotient component
    genus: int
    point_cycles: tuple[tuple[int, ...], ...]  # per point of Y, sorted descending


@dataclass(frozen=True)
class SubcoverNodeOrbit:
    representative: int               # cover node index
    size: int
    component_a: int                  # indices into SubcoverReport.components
    component_b: int
    swapped_within_orbit: bool        # some element of K exchanges the branches


@dataclass(frozen=True)
class SubcoverReport:
    subgroup_order: int
    degree: int                       # [G : K]
    components: tuple[SubcoverComponent, ...]
    point_cycle_types: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]
    node_orbits: tuple[SubcoverNodeOrbit, ...]


def subcover(cover: CoverCurve, K: Subgroup) -> SubcoverReport:
    """Quotient of the cover by K: the degree-[G:K] admissible-cover picture.

    Components correspond to double cosets K\\G/H_Y; their genera come from
    cycle-type Riemann-Hurwitz for the possibly non-Galois map to Y, and the
    cycle type of each marked monodromy on the K-cosets is reported.

    The right coset Kx is read as the left coset x^-1 K, so right
    multiplication by m on K\\G becomes left multiplication by m^-1 on G/K.
    """
    G = cover.group
    datum = cover.datum
    kcos = left_cosets(G, K)
    degree = len(kcos)
    kgens = K.generators()

    def on_cosets(table: CosetTable):
        """Left multiplication on the cells of a coset table."""
        return lambda c, g: table.index_of[G.mul(g, table.rep(c))]

    def cycles_on(coset_set: list[int], m: int) -> list[int]:
        return [len(cycle) for cycle in orbits(coset_set, [G.inv(m)], on_cosets(kcos))]

    sub_components: list[SubcoverComponent] = []
    vertex_to_subcomp: dict[int, int] = {}
    point_types = []
    for ci, comp in enumerate(datum.components):
        cos = cover.comp_cosets[ci]
        # the component's double cosets partition K\G, so each point's cycles
        # on all K-cosets are the union of its cycles on them
        all_cycles: list[list[int]] = [[] for _ in comp.points]
        # K-orbits on left cosets G/H_Y are the double cosets K\G/H_Y
        for orbit in orbits(range(len(cos)), kgens, on_cosets(cos)):
            members = sorted({kcos.index_of[G.inv(x)] for c in orbit for x in cos.cells[c]})
            deg = len(members)
            cycles = tuple(tuple(sorted(cycles_on(members, pt.m), reverse=True))
                           for pt in comp.points)
            for acc, cyc in zip(all_cycles, cycles):
                acc += cyc
            g = _genus(deg * (2 * comp.genus - 2) + sum(
                sum(L - 1 for L in cyc) for cyc in cycles))
            rep = min(min(cos.cells[c]) for c in orbit)
            sub_idx = len(sub_components)
            sub_components.append(SubcoverComponent(ci, rep, deg, g, cycles))
            for c in orbit:
                vertex_to_subcomp[cover.offsets[ci] + c] = sub_idx
        point_types += [((ci, pi), tuple(sorted(acc, reverse=True)))
                        for pi, acc in enumerate(all_cycles)]

    node_orbits: list[SubcoverNodeOrbit] = []
    for orbit in orbits(range(len(cover.nodes)), kgens,
                        lambda n, k: cover.edge_image(k, 2 * n) // 2):
        idx, node = orbit[0], cover.nodes[orbit[0]]
        node_orbits.append(SubcoverNodeOrbit(
            idx, len(orbit),
            vertex_to_subcomp[node.branch_a.vertex],
            vertex_to_subcomp[node.branch_b.vertex],
            any(cover.edge_image(k, 2 * idx) == 2 * idx + 1 for k in K.members)))

    return SubcoverReport(K.order, degree, tuple(sub_components),
                          tuple(point_types), tuple(node_orbits))


# -- reporting ----------------------------------------------------------------


def cover_to_dot(cover: CoverCurve) -> str:
    gog = cover.gog
    vlabels = [f"g={comp.genus} |H|={gog.vertex_groups[comp.quotient_component].order}"
               for comp in cover.components]
    elabels = [str(gog.edge_groups[node.edge].order) for node in cover.nodes]
    return gengraph_to_dot(cover.graph, name="cover",
                           vertex_labels=vlabels, edge_labels=elabels)


def cover_report(cover: CoverCurve) -> dict:
    connected = is_connected(cover)
    return {
        "component_count": len(cover.components),
        "components": [{"quotient_component": c.quotient_component,
                        "coset": c.coset, "genus": c.genus}
                       for c in cover.components],
        "node_count": len(cover.nodes),
        "node_classes": node_class_summary(cover),
        "connected": connected,
        "stable": is_stable(cover),
        "arithmetic_genus": arithmetic_genus(cover) if connected else None,
        "component_arithmetic_genera": list(arithmetic_genus_by_component(cover)),
    }
