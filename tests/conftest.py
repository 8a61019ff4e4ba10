from __future__ import annotations

import json
import random
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import pytest

from hurwitzdegen import (BoundaryDatum, CosetTable, CoverCurve, DevissageReport, GenGraph,
                          GraphAction, HurwitzTuple, MarkedComponent, MarkedPoint, PermGroup,
                          Subgroup, cover_report, datum_from_jsonable, de_rham_character,
                          dual_graph_of_groups, is_inverting_involution, left_cosets,
                          perm_from_cycles, rh_genus, smooth_dihedral, split_degenerations)
from hurwitzdegen import audit
from hurwitzdegen.boundary import serialize
from hurwitzdegen.covers import _genus
from hurwitzdegen.groups import _induced


@pytest.fixture(scope="session")
def a5():
    return audit.a5_group()


@pytest.fixture(scope="session")
def psl27():
    return audit.psl27_group()


@pytest.fixture(scope="session")
def s3():
    return PermGroup([perm_from_cycles(3, (0, 1)), perm_from_cycles(3, (0, 1, 2))])


@pytest.fixture(scope="session")
def s4():
    return PermGroup([perm_from_cycles(4, (0, 1, 2, 3)), perm_from_cycles(4, (0, 1))])


@pytest.fixture(scope="session")
def d4():
    return PermGroup([perm_from_cycles(4, (0, 1, 2, 3)), perm_from_cycles(4, (0, 2))])


@pytest.fixture(scope="session")
def d5():
    return PermGroup([perm_from_cycles(5, (0, 1, 2, 3, 4)),
                      perm_from_cycles(5, (1, 4), (2, 3))])


@pytest.fixture(scope="session")
def s5():
    return PermGroup([perm_from_cycles(5, (0, 1, 2, 3, 4)), perm_from_cycles(5, (0, 1))])


@pytest.fixture(scope="session")
def c2_a5():
    """C2 x A5 on 7 points: its centre {e, (5 6)} holds an involution."""
    return PermGroup([perm_from_cycles(7, (0, 1, 2, 3, 4)), perm_from_cycles(7, (0, 1, 2)),
                      perm_from_cycles(7, (5, 6))])


@pytest.fixture(scope="session")
def s4_on_257():
    """S4 fixing 253 of 257 points: above degree 256 elements are stored as tuples."""
    return PermGroup([perm_from_cycles(257, (0, 1, 2, 3)), perm_from_cycles(257, (0, 1))])


def generator_ids(G: PermGroup) -> list[int]:
    """The ids of the group's generators, in the order they were given."""
    return list(G._gen_ids)


def entries(datum: BoundaryDatum) -> tuple[int, ...]:
    """The monodromies of component 0's points: a tuple's entries, read off any datum."""
    return tuple(pt.m for pt in datum.components[0].points)


def a5_smoothed_tuple(G: PermGroup | None = None) -> HurwitzTuple:
    """The A5 tuple of branch orders (2, 2, 2, 3): the smoothing of the first
    dihedral degeneration of ``audit.a5_tuple``."""
    smoothed = smooth_dihedral(audit.a5_dihedral_degenerations(G)[0])
    return HurwitzTuple(smoothed.group, entries(smoothed))


def a5_split_datum(G: PermGroup | None = None) -> BoundaryDatum:
    """The one split of ``a5_smoothed_tuple``: two lines joined by a node."""
    return split_degenerations(a5_smoothed_tuple(G))[0].datum


def inverting_pairs(G: PermGroup) -> list[tuple[int, int]]:
    return [(m, s) for m in range(G.order) for s in range(G.order)
            if is_inverting_involution(G, m, s)]


def random_valid_datum(G: PermGroup, rng: random.Random,
                       pairs: list[tuple[int, int]]) -> BoundaryDatum:
    """A random admissible datum: relations closed by a final cyclic point."""
    two_comp = rng.random() < 0.4
    node_m = rng.randrange(G.order) if two_comp else None
    comps = []
    for ci in range(2 if two_comp else 1):
        genus = 1 if rng.random() < 0.2 else 0
        handles = tuple((rng.randrange(G.order), rng.randrange(G.order))
                        for _ in range(genus))
        pts: list[MarkedPoint] = []
        if two_comp:
            m = node_m if ci == 0 else G.inv(node_m)
            pts.append(MarkedPoint.node_end(m, 0))
        if pairs and rng.random() < 0.35:
            pts.append(MarkedPoint.dihedral(*pairs[rng.randrange(len(pairs))]))
        for _ in range(rng.randrange(2, 5)):
            pts.append(MarkedPoint.cyclic(rng.randrange(G.order)))
        if ci == 0 and rng.random() < 0.5:
            # make full-image (hence often connected) covers common
            for gid in generator_ids(G):
                pts.append(MarkedPoint.cyclic(gid))
        acc = G.identity
        for a, b in handles:
            acc = G.mul(acc, G.mul(G.mul(a, b), G.mul(G.inv(a), G.inv(b))))
        for p in pts:
            acc = G.mul(acc, p.m)
        pts.append(MarkedPoint.cyclic(G.inv(acc)))
        comps.append(MarkedComponent(genus, handles, tuple(pts)))
    return BoundaryDatum(G, tuple(comps))


def random_rational_generating_tuples(G: PermGroup, rng: random.Random,
                                      want: int, max_tries: int = 3000) -> list[HurwitzTuple]:
    """Product-one tuples with full image whose smooth cover is rational.

    Rejection sampling; genus 0 pins the branch orders to triangle-group
    patterns, so these are the tuples whose degenerations stay all-rational.
    """
    out = []
    tries = 0
    while len(out) < want and tries < max_tries:
        tries += 1
        entries = [rng.randrange(G.order) for _ in range(rng.randrange(2, 4))]
        entries.append(G.inv(G.product(entries)))
        if any(g == G.identity for g in entries):
            continue
        if G.generated_subgroup(entries).order != G.order:
            continue
        orders = [G.element_order(g) for g in entries]
        if rh_genus(G.order, 0, orders) == 0:
            out.append(HurwitzTuple(G, tuple(entries)))
    return out


# -- covers --------------------------------------------------------------------

# pinned data file -> the closures that their graph of groups takes: one per
# component, and one K_P per piece that is more than a lone component with no
# dihedral point and has no vertex group equal to G: only the S3 cover,
# connected through a dihedral point's s.  The A5 dihedral and split data
# each have a component whose H_Y is A5; the S5 datum is one component.
PIECE_DATA = {
    "docs/examples/a5_dihedral_datum.json": 1,
    "docs/examples/a5_split_datum.json": 2,
    "tests/golden/data/s3_dihedral_bridge_datum.json": 3,
    "tests/golden/data/s5_disconnected_datum.json": 1,
}


def load_datum(path: str) -> BoundaryDatum:
    """A datum file, its path taken from the repository root."""
    root = Path(__file__).resolve().parents[1]
    return datum_from_jsonable(json.loads((root / path).read_text(encoding="utf-8")))


def quotient_report(datum: BoundaryDatum) -> dict:
    """The cover block of ``analyze``: ``cover_report`` on the datum's graph of groups."""
    return cover_report(dual_graph_of_groups(datum))


def characters(datum: BoundaryDatum) -> DevissageReport:
    """``de_rham_character`` as ``analyze`` calls it."""
    return de_rham_character(dual_graph_of_groups(datum))


def component_cells(cover: CoverCurve) -> list[tuple[int, int]]:
    """Each cover component, in vertex order, as (quotient component ci,
    cell of ``comp_cosets[ci]``)."""
    return [(ci, c) for ci, cos in enumerate(cover.comp_cosets) for c in range(len(cos))]


def branch_counts(cover: CoverCurve) -> list[int]:
    """The branches meeting each cover component: one per oriented edge of
    the cover graph, at its target."""
    counts = [0] * cover.graph.vertex_count
    for _, v in cover.graph.edges:
        counts[v] += 1
    return counts


def explicit_cover_report(cover: CoverCurve) -> dict:
    """The cover block of ``analyze`` counted on the explicit cover: its
    connected components by union-find on ``cover.graph``, its nodes and
    branches one by one from the node list.  The oracle for ``cover_report``,
    which counts on the graph of groups."""
    comp_ids = cover.graph.connected_component_ids()
    n = max(comp_ids) + 1
    genus_sum, comp_count, node_count = [0] * n, [0] * n, [0] * n
    cells = component_cells(cover)
    vertex_genera = [cover.genera[ci] for ci, _ in cells]
    for v, g in enumerate(vertex_genera):
        genus_sum[comp_ids[v]] += g
        comp_count[comp_ids[v]] += 1
    buckets: dict[tuple[str, int], int] = {}
    # E_e = <m, s>, closed here from the edge label (m, s)
    edge_orders = [cover.gog.datum.group.generated_subgroup(label).order
                   for label in cover.gog.edge_labels]
    for k, (e, _, _) in enumerate(cover.nodes):
        node_count[comp_ids[cover.graph.edges[2 * k][1]]] += 1
        kind = "dihedral" if len(cover.gog.edge_ends[e]) == 1 else "cyclic"
        key = (kind, edge_orders[e])
        buckets[key] = buckets.get(key, 0) + 1
    genera = [genus_sum[i] + node_count[i] - comp_count[i] + 1 for i in range(n)]
    connected = n == 1
    counts = branch_counts(cover)
    stable = connected and genera[0] >= 2 and not any(
        (g == 0 and counts[v] < 3) or (g == 1 and counts[v] < 1)
        for v, g in enumerate(vertex_genera))
    return {
        "component_count": len(vertex_genera),
        "components": [{"quotient_component": ci, "coset": c, "genus": cover.genera[ci]}
                       for ci, c in cells],
        "node_count": len(cover.nodes),
        "node_classes": [{"kind": kind, "stabilizer_order": order, "count": count}
                         for (kind, order), count in sorted(buckets.items())],
        "connected": connected,
        "stable": stable,
        "arithmetic_genus": genera[0] if connected else None,
        "component_arithmetic_genera": genera,
    }


def assert_opposite_edges(graph: GenGraph, loops: Sequence[int]) -> None:
    """``opp`` is an involution that reverses each edge's ends, which lie on
    the graph's vertices, and fixes exactly one edge (v, v) per v in ``loops``."""
    E = len(graph.edges)
    assert len(graph.opp) == E
    for e, (s, t) in enumerate(graph.edges):
        o = graph.opp[e]
        assert 0 <= o < E and graph.opp[o] == e
        assert 0 <= s < graph.vertex_count and 0 <= t < graph.vertex_count
        assert graph.edges[o] == (t, s)
    assert [graph.edges[e] for e in range(E) if graph.opp[e] == e] == [(v, v) for v in loops]


def deck_action(cover: CoverCurve) -> GraphAction:
    """The deck action of G on the explicit cover, one table row per element.

    g sends the component xH_Y to gxH_Y, and the branch (point, x<m>) of a
    node to the branch (point, gx<m>).  Oriented edge 2k + i is branch i of
    node k, over the point ``edge_ends[e][0]`` for i = 0 and
    ``edge_ends[e][-1]`` for i = 1.
    """
    G, ends = cover.gog.datum.group, cover.gog.edge_ends
    branches = [(ends[e][side], cell) for e, a, b in cover.nodes
                for side, cell in ((0, a), (-1, b))]
    edge_of = {branch: i for i, branch in enumerate(branches)}
    assert len(edge_of) == len(branches), "two branches share a point and an <m>-cell"
    cells = component_cells(cover)

    def vertex_image(g: int, v: int) -> int:
        ci, c = cells[v]
        cos = cover.comp_cosets[ci]
        return cover.offsets[ci] + cos.index_of[G.mul(g, cos.cells[c][0])]

    def edge_image(g: int, i: int) -> int:
        point, cell = branches[i]
        mcos = cover.edge_mcosets[cover.nodes[i // 2][0]]
        return edge_of[point, mcos.index_of[G.mul(g, mcos.cells[cell][0])]]

    V, E = cover.graph.vertex_count, len(branches)
    return check_action(GraphAction(
        cover.graph, G,
        tuple(tuple(vertex_image(g, v) for v in range(V)) for g in range(G.order)),
        tuple(tuple(edge_image(g, e) for e in range(E)) for g in range(G.order))))


def check_action(action: GraphAction) -> GraphAction:
    """Assert that ``action`` acts by graph automorphisms, and return it.

    The identity and generator rows must be graph automorphisms, and
    row(s g) = row(s) row(g) for every generator s; every element is a
    product of generators, so every row is then a product of checked
    automorphisms.
    """
    G, graph = action.group, action.graph
    assert len(action.vertex_images) == G.order and len(action.edge_images) == G.order
    for g in {G.identity, *generator_ids(G)}:
        vi, ei = action.vertex_images[g], action.edge_images[g]
        assert sorted(vi) == list(range(graph.vertex_count))
        assert sorted(ei) == list(range(len(graph.edges)))
        for e in range(len(graph.edges)):
            s, t = graph.edges[e]
            assert graph.edges[ei[e]] == (vi[s], vi[t]), "action must commute with source/sink"
            assert ei[graph.opp[e]] == graph.opp[ei[e]], "action must commute with opp"
    for s in generator_ids(G):
        for g in range(G.order):
            sg = G.mul(s, g)
            assert action.vertex_images[sg] == tuple(
                action.vertex_images[s][v] for v in action.vertex_images[g])
            assert action.edge_images[sg] == tuple(
                action.edge_images[s][e] for e in action.edge_images[g])
    return action


# -- intermediate quotients ---------------------------------------------------


def orbits(points: Iterable, gens: Sequence, act: Callable) -> list[list]:
    """The orbits that meet ``points`` under the group generated by ``gens``,
    each walked breadth first from its first point there; ``act(x, g)`` is
    the image of x under g."""
    seen: set = set()
    out = []
    for p in points:
        if p not in seen:
            seen.add(p)
            out.append([p])
            for x in out[-1]:  # grows while it is walked
                for g in gens:
                    y = act(x, g)
                    if y not in seen:
                        seen.add(y)
                        out[-1].append(y)
    return out


def local_model_orbit_sizes(N: int) -> list[int]:
    """Exact orbit sizes of the order-2N dihedral group on the 2N fixpoints
    of its branch-swapping involutions in the local model fiber xy = 1.

    All coordinates are roots of unity of order dividing 4N; a fixpoint is
    encoded by the exponent pair (u, -u) of (x, y) = (zeta^u, zeta^-u), with
    the fixpoints filling out the even exponents.  The rotation acts by
    u -> u + 4 and the basic swap by u -> -u, all mod 4N: exact integer
    arithmetic, no floating point.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    mod = 4 * N
    rotation, swap = (lambda u: (u + 4) % mod), (lambda u: -u % mod)
    return sorted(len(o) for o in orbits(range(0, mod, 2), [rotation, swap], lambda u, g: g(u)))


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
    G = cover.gog.datum.group
    datum = cover.gog.datum
    kcos = left_cosets(G, K)
    degree = len(kcos)
    kgens = small_generating_set(G, K)
    edge_images = deck_action(cover).edge_images

    def on_cosets(table: CosetTable):
        """Left multiplication on the cells of a coset table."""
        return lambda c, g: table.index_of[G.mul(g, table.cells[c][0])]

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
                        lambda n, k: edge_images[k][2 * n] // 2):
        idx = orbit[0]
        node_orbits.append(SubcoverNodeOrbit(
            idx, len(orbit),
            vertex_to_subcomp[cover.graph.edges[2 * idx][1]],
            vertex_to_subcomp[cover.graph.edges[2 * idx + 1][1]],
            any(edge_images[k][2 * idx] == 2 * idx + 1 for k in K.members)))

    return SubcoverReport(K.order, degree, tuple(sub_components),
                          tuple(point_types), tuple(node_orbits))


def smooth_node(datum: BoundaryDatum, node: int) -> BoundaryDatum:
    """The inverse of ``degen.split``: the node's two ends must be the last
    point of a rational component with no handles and point 0 of the next
    component, which keeps its genus and handles and takes the first
    component's other points before its own."""
    ends = datum.node_ends()[node]
    assert len(ends) == 2, f"node {node} has {len(ends)} ends"
    (ci, pi), (cj, pj) = ends
    comps = datum.components
    left, right = comps[ci], comps[ci + 1]
    assert (cj, pj) == (ci + 1, 0) and pi == len(left.points) - 1
    assert left.genus == 0 and left.handles == ()
    merged = MarkedComponent(right.genus, right.handles, left.points[:-1] + right.points[1:])
    return BoundaryDatum(datum.group, (*comps[:ci], merged, *comps[ci + 2:]))


def disjoint_union(a: BoundaryDatum, b: BoundaryDatum) -> BoundaryDatum:
    """The components of ``a`` then those of ``b``, with ``b``'s node ids
    shifted past ``a``'s: a datum whose quotient graph has several pieces."""
    shift = 1 + max((pt.node_id for comp in a.components for pt in comp.points
                     if pt.node_id is not None), default=-1)
    moved = tuple(MarkedComponent(comp.genus, comp.handles, tuple(
        pt if pt.node_id is None else MarkedPoint(pt.kind, pt.m, None, pt.node_id + shift)
        for pt in comp.points)) for comp in b.components)
    return BoundaryDatum(a.group, a.components + moved)


# -- group-theory oracles ----------------------------------------------------


def conjugate_datum(datum: BoundaryDatum, g: int) -> BoundaryDatum:
    """Replace every element id x by g x g^-1."""
    G = datum.group
    comps = []
    for comp in datum.components:
        handles = tuple((G.conj(g, a), G.conj(g, b)) for a, b in comp.handles)
        points = tuple(MarkedPoint(pt.kind, G.conj(g, pt.m),
                                   None if pt.s is None else G.conj(g, pt.s), pt.node_id)
                       for pt in comp.points)
        comps.append(MarkedComponent(comp.genus, handles, points))
    return BoundaryDatum(G, tuple(comps))


def canonical_form_by_scan(datum: BoundaryDatum) -> tuple:
    """The serialized canonical form by a full scan: the least serialized
    conjugate over every g in G."""
    return min(serialize(conjugate_datum(datum, g)) for g in range(datum.group.order))


def assert_closed(G: PermGroup, H: Subgroup) -> None:
    """The closure check ``Subgroup`` trusts its callers with."""
    ms = frozenset(H.members)
    assert 0 in ms
    for a in H.members:
        assert G.inv(a) in ms, f"not closed under inverse at {a}"
        for b in H.members:
            assert G.mul(a, b) in ms, f"not closed under product at ({a}, {b})"


def normalizer(group: PermGroup, sub: Subgroup) -> Subgroup:
    """The normalizer of ``sub`` by a scan of G: the oracle for the audit's
    cyclic normalizer orders, and the order-10 subgroup D10 of the tests."""
    ms = frozenset(sub.members)
    keep = [g for g in range(group.order)
            if all(group.conj(g, h) in ms for h in sub.members)]
    return Subgroup(tuple(keep))


def centralizer_by_scan(group: PermGroup, sub: Subgroup) -> Subgroup:
    """The centralizer of ``sub`` by a scan of G: the oracle for the class
    records' centralizers."""
    keep = [g for g in range(group.order)
            if all(group.conj(g, h) == h for h in sub.members)]
    return Subgroup(tuple(keep))


def lefschetz_counts(action: GraphAction) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per class representative g, read off the explicit action rows: the
    vertices g fixes, and the unoriented edges g fixes setwise, +1 if kept
    and -1 if reversed.

    The Lefschetz oracle for the de Rham character: the signed edge count is
    the character of the 1-chains (the edge induction sum) on every cover, and
    on an all-rational cover chi_dR = 2 * (fixed vertices - signed edges).
    """
    graph, G = action.graph, action.group
    fixed, signed = [], []
    for c in G.conjugacy_classes():
        vi, ei = action.vertex_images[c[0]], action.edge_images[c[0]]
        fixed.append(sum(1 for v, w in enumerate(vi) if v == w))
        signed.append(sum(1 if ei[e] == e else -1 for e in graph.unoriented_reps()
                          if ei[e] in (e, graph.opp[e])))
    return tuple(fixed), tuple(signed)


@cache
def times_column(group: PermGroup, g: int) -> tuple[int, ...]:
    """times_column(G, g)[x] = G.mul(x, g), built once per group and g."""
    return tuple(group.mul(x, g) for x in range(group.order))


def closure_by_bfs(group: PermGroup, gen_ids) -> frozenset:
    """<gen_ids> by a plain breadth-first closure that never stops early:
    the oracle for ``PermGroup.generated_subgroup``."""
    columns = [times_column(group, g) for g in gen_ids]
    members, frontier = {0}, [0]
    while frontier:
        new = []
        for x in frontier:
            for column in columns:
                y = column[x]
                if y not in members:
                    members.add(y)
                    new.append(y)
        frontier = new
    return frozenset(members)


def small_generating_set(group: PermGroup, K: Subgroup) -> list[int]:
    """Generators of K picked greedily from its members: each lies outside
    the closure of those before it, which it at least doubles, so there are
    at most log2 |K| of them."""
    gens: list[int] = []
    closed = frozenset([0])
    for h in K.members:
        if len(closed) == K.order:
            break
        if h not in closed:
            gens.append(h)
            closed = closure_by_bfs(group, gens)
    return gens


@cache
def all_subgroups(group: PermGroup) -> tuple[Subgroup, ...]:
    """Every subgroup, by joining one cyclic subgroup at a time; fine for small groups.

    A subgroup is generated by its cyclic subgroups, so extending each
    subgroup found by each cyclic subgroup outside it reaches them all.
    """
    cyclic = {closure_by_bfs(group, [g]): g for g in range(group.order - 1, 0, -1)}
    found = {frozenset([0]): []}   # members -> the generators they were reached by
    frontier = [frozenset([0])]
    while frontier:
        new = []
        for members in frontier:
            for c in cyclic.values():
                if c in members:
                    continue
                gens = found[members] + [c]
                ext = closure_by_bfs(group, gens)
                if ext not in found:
                    found[ext] = gens
                    new.append(ext)
        frontier = new
    return tuple(Subgroup(tuple(sorted(m))) for m in
                 sorted(found, key=lambda m: (len(m), tuple(sorted(m)))))


def induced_by_kernel(group: PermGroup, sub: Subgroup, kernel: Subgroup) -> tuple[int, ...]:
    """Frobenius induction up to ``group`` of the +-1 character of ``sub``
    that is +1 on ``kernel`` and -1 off it; ``kernel = sub`` gives the trivial
    character.  The reference for ``induced_sign``'s sign case.

    A +-1 character is fixed by its kernel, a subgroup of index at most 2
    (index 2 makes it normal), so that index is all that is checked.
    Ind(chi)(g) = |G| / (|cl g| |H|) * sum of chi(h) over h in H meeting the
    class of g: one pass over H, bucketed by class; values come out integral.
    """
    ks = frozenset(kernel.members)
    if not ks <= frozenset(sub.members) or sub.order not in (kernel.order, 2 * kernel.order):
        raise ValueError(f"a kernel of order {kernel.order} is not of index <= 2 "
                         f"in a subgroup of order {sub.order}")
    sums, class_of = [0] * len(group.conjugacy_classes()), group._class_table()
    for h in sub.members:
        sums[class_of[h]] += 1 if h in ks else -1
    return _induced(group, sums, sub.order)


def sign_characters(group: PermGroup, sub: Subgroup) -> list[Subgroup]:
    """Kernels of all homomorphisms sub -> {+-1}, the trivial one (sub) first.

    Those are the subgroups of index at most 2, found among all subgroups.
    """
    members = frozenset(sub.members)
    return [sub] + [K for K in all_subgroups(group)
                    if 2 * K.order == sub.order and frozenset(K.members) <= members]
