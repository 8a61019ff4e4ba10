"""Generalized graphs, group actions on them, and DOT export.

A generalized graph carries oriented edges with an opposite-edge involution
that may have fixpoints: in a dual graph of groups a self-opposite edge is
a dihedral point, the image of cover nodes whose stabilizers swap their two
branches.  ``GraphAction`` is an action given by image tables, unchecked.
No report reads one: reports are read off the graph of groups, the explicit
cover is built for its DOT export and for the tests, and the tests build
its deck action as a ``GraphAction``, their oracle, and check that it acts
by graph automorphisms.  The class stays here, its slots only, because the
benchmark's tracer patches its ``__post_init__`` by name.
"""

from __future__ import annotations

from collections.abc import Sequence

from ._record import Record


class GenGraph(Record):
    """Oriented ``edges`` (source, target) on ``vertex_count`` vertices, with
    ``opp`` the opposite-edge involution.  Unchecked: ``from_unoriented``, the
    package's one builder, pairs each edge with its reverse and makes each
    loop its own opposite."""

    __slots__ = ("vertex_count", "edges", "opp")

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


class GraphAction(Record):
    """Action of a group on a generalized graph via full image tables:
    ``vertex_images[g]`` and ``edge_images[g]`` give the permutation induced
    by element id ``g``.  Unchecked; the tests that build one check it."""

    __slots__ = ("graph", "group", "vertex_images", "edge_images")


def gengraph_to_dot(graph: GenGraph, name: str, vertex_labels: Sequence[str],
                    edge_labels: Sequence[str]) -> str:
    """Deterministic DOT text: one labeled edge per unoriented edge, dashed if
    self-opposite; ``edge_labels`` follows ``unoriented_reps``."""
    lines = [f"graph {name} {{"]
    for v in range(graph.vertex_count):
        lines.append(f'  v{v} [shape=circle, label="{vertex_labels[v]}"];')
    for i, e in enumerate(graph.unoriented_reps()):
        s, t = graph.edges[e]
        dashed = ", style=dashed" if graph.opp[e] == e else ""
        lines.append(f'  v{s} -- v{t} [label="{edge_labels[i]}"{dashed}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
