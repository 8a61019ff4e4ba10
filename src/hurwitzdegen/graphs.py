"""Generalized graphs, group actions on them, and DOT export.

A generalized graph carries oriented edges with an opposite-edge involution
that may have fixpoints: in a dual graph of groups a self-opposite edge is
a dihedral point, the image of cover nodes whose stabilizers swap their two
branches.  ``GraphAction`` is an action given by image tables and checked to
be one by graph automorphisms.  It is the explicit deck action of a cover
(``CoverCurve.action``), which tests use as their oracle; reports are read
off the graph of groups, and the explicit cover is built only for its DOT
export.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .groups import PermGroup


@dataclass(frozen=True)
class GenGraph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]  # oriented: (source, target)
    opp: tuple[int, ...]

    def __post_init__(self):
        E = len(self.edges)
        assert len(self.opp) == E
        for e in range(E):
            o = self.opp[e]
            assert 0 <= o < E and self.opp[o] == e, "opp must be an involution"
            s, t = self.edges[e]
            assert 0 <= s < self.vertex_count and 0 <= t < self.vertex_count
            assert self.edges[o] == (t, s), "opposite edge must reverse source and sink"

    @classmethod
    def from_unoriented(cls, vertex_count: int, pairs: Sequence[tuple[int, int]],
                        self_opposite: Sequence[int] = ()) -> "GenGraph":
        """Build from unoriented edges; ``self_opposite`` lists loop vertices."""
        edges: list[tuple[int, int]] = []
        opp: list[int] = []
        for u, v in pairs:
            e = len(edges)
            edges.extend([(u, v), (v, u)])
            opp.extend([e + 1, e])
        for v in self_opposite:
            e = len(edges)
            edges.append((v, v))
            opp.append(e)
        return cls(vertex_count, tuple(edges), tuple(opp))

    def unoriented_reps(self) -> tuple[int, ...]:
        """One oriented id per unoriented edge (self-opposite edges included)."""
        return tuple(e for e in range(len(self.edges)) if e <= self.opp[e])

    def connected_component_ids(self) -> list[int]:
        parent = list(range(self.vertex_count))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for s, t in self.edges:
            rs, rt = find(s), find(t)
            if rs != rt:
                parent[rs] = rt
        roots = {}
        out = []
        for v in range(self.vertex_count):
            r = find(v)
            out.append(roots.setdefault(r, len(roots)))
        return out


@dataclass(frozen=True)
class GraphAction:
    """Action of a group on a generalized graph via full image tables.

    ``vertex_images[g]`` and ``edge_images[g]`` give the permutation induced
    by element id ``g``.  Construction verifies that the identity and
    generator rows are graph automorphisms and that row(s g) = row(s) row(g)
    for every generator s; every element is a product of generators, so
    every row is then a product of checked automorphisms.
    """

    graph: GenGraph
    group: PermGroup
    vertex_images: tuple[tuple[int, ...], ...]
    edge_images: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        G, graph = self.group, self.graph
        assert len(self.vertex_images) == G.order and len(self.edge_images) == G.order
        for g in {G.identity, *G.generator_ids}:
            vi, ei = self.vertex_images[g], self.edge_images[g]
            assert sorted(vi) == list(range(graph.vertex_count))
            assert sorted(ei) == list(range(len(graph.edges)))
            for e in range(len(graph.edges)):
                s, t = graph.edges[e]
                assert graph.edges[ei[e]] == (vi[s], vi[t]), "action must commute with source/sink"
                assert ei[graph.opp[e]] == graph.opp[ei[e]], "action must commute with opp"
        for s in G.generator_ids:
            for g in range(G.order):
                sg = G.mul(s, g)
                assert self.vertex_images[sg] == tuple(
                    self.vertex_images[s][v] for v in self.vertex_images[g])
                assert self.edge_images[sg] == tuple(
                    self.edge_images[s][e] for e in self.edge_images[g])


def gengraph_to_dot(graph: GenGraph, name: str = "G",
                    vertex_labels: Sequence[str] | None = None,
                    edge_labels: Sequence[str] | None = None) -> str:
    """Deterministic DOT text: one edge per unoriented edge, dashed if self-opposite."""
    lines = [f"graph {name} {{"]
    for v in range(graph.vertex_count):
        label = vertex_labels[v] if vertex_labels else f"v{v}"
        lines.append(f'  v{v} [shape=circle, label="{label}"];')
    for i, e in enumerate(graph.unoriented_reps()):
        s, t = graph.edges[e]
        attrs = []
        if edge_labels:
            attrs.append(f'label="{edge_labels[i]}"')
        if graph.opp[e] == e:
            attrs.append("style=dashed")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  v{s} -- v{t}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"
