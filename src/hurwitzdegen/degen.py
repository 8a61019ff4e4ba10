"""Codimension-1 degenerations of Hurwitz tuples and the smoothing maps.

Two boundary types exist for a genus-0 quotient: splitting the line into
two lines meeting in a node (grouping consecutive tuple entries), and
converting one marked point into a dihedral point by choosing an inverting
involution.  ``smooth_dihedral`` maps a dihedral boundary datum back to the
interior tuple of its smoothing, where the dihedral point opens up into two
involution branch points; ``collide_pair`` is its inverse, colliding two
adjacent involution entries into a dihedral point.  Each move slices the
tuple's points and builds only those it adds: the node ends or the dihedral point.
"""

from __future__ import annotations

from ._record import Record, set_field
from .boundary import (DIHEDRAL, BoundaryDatum, HurwitzTuple, MarkedComponent, MarkedPoint,
                       Violation, canonical_form)
from .errors import InvalidDatum
from .groups import inverting_involutions

SPLIT = "split"  # the other kind, DIHEDRAL, is the point kind of boundary


class Degeneration(Record, eq=False):
    """A codimension-1 boundary datum of a tuple, admissible and stable by
    construction: a split closes each side with the node monodromy, a dihedral
    point takes s from ``inverting_involutions``, and ``collide_pair`` takes
    s = a, which inverts m = ab and lies outside <ab> (inside, a would commute
    with ab, so (ab)^2 = e, a = ab and b = e), and checks stability itself.
    """

    __slots__ = ("kind", "datum", "split_at", "index", "involution")

    def __init__(self, kind: str, datum: BoundaryDatum, split_at: int | None = None,
                 index: int | None = None, involution: int | None = None):
        set_field(self, "kind", kind)
        set_field(self, "datum", datum)
        set_field(self, "split_at", split_at)      # split kind: size of the left group
        set_field(self, "index", index)            # dihedral kind: marked point index
        set_field(self, "involution", involution)  # dihedral kind: element id of s
        self.__post_init__()


def split_degenerations(t: HurwitzTuple) -> list[Degeneration]:
    """All splits into consecutive groups (g_1..g_k | g_k+1..g_n), k = 2..n-2.

    Each side keeps at least 2 cyclic points next to the new node end, the
    stability bound for a rational component.
    """
    G = t.group
    points = t.components[0].points
    out = []
    for k in range(2, len(points) - 1):
        h = G.inv(G.product(pt.m for pt in points[:k]))
        left = MarkedComponent(0, (), (*points[:k], MarkedPoint.node_end(h, 0)))
        right = MarkedComponent(0, (), (MarkedPoint.node_end(G.inv(h), 0), *points[k:]))
        datum = BoundaryDatum(G, (left, right))
        out.append(Degeneration(SPLIT, datum, split_at=k))
    return out


def dihedral_degenerations(t: HurwitzTuple, index: int) -> list[Degeneration]:
    """Convert point ``index`` into a dihedral point, one datum per valid s."""
    points = t.components[0].points
    n = len(points)
    if not 0 <= index < n:
        raise ValueError(f"no entry {index} in a tuple of length {n}")
    if n < 3:  # a stable quotient needs 2 cyclic points besides the dihedral one
        return []
    G = t.group
    m = points[index].m
    involutions = inverting_involutions(G, m)
    if not involutions:
        return []
    before, after = points[:index], points[index + 1:]
    out = []
    for s in involutions:
        comp = MarkedComponent(0, (), (*before, MarkedPoint.dihedral(m, s), *after))
        datum = BoundaryDatum(G, (comp,))
        out.append(Degeneration(DIHEDRAL, datum, index=index, involution=s))
    return out


def smooth_dihedral(deg: Degeneration) -> HurwitzTuple:
    """Interior tuple of the smoothing: (g_1 .. s, s*m .. g_n) at the index."""
    if deg.kind != DIHEDRAL:
        raise ValueError("smooth_dihedral needs a dihedral-kind degeneration")
    datum = deg.datum
    G = datum.group
    comp = datum.components[0]
    i = deg.index
    pt = comp.points[i]
    ms = [p.m for p in comp.points]
    return HurwitzTuple(G, (*ms[:i], pt.s, G.mul(pt.s, pt.m), *ms[i + 1:]))


def collide_pair(t: HurwitzTuple, index: int) -> Degeneration:
    """Collide adjacent involution entries (index, index+1) into a dihedral point.

    Inverse of smooth_dihedral: entries (a, b) with a^2 = b^2 = e become the
    dihedral point (m = a*b, s = a).  A 3-entry tuple collides to 2 points, an
    unstable quotient, so it raises ``InvalidDatum`` with a Stability violation:
    the one stability check on degenerations.
    """
    G = t.group
    points = t.components[0].points
    if index < 0 or index + 1 >= len(points):
        raise ValueError("need two adjacent entries")
    a, b = points[index].m, points[index + 1].m
    if G.mul(a, a) != G.identity or a == G.identity:
        raise ValueError(f"entry {index} is not an involution")
    if G.mul(b, b) != G.identity or b == G.identity:
        raise ValueError(f"entry {index + 1} is not an involution")
    if len(points) < 4:
        raise InvalidDatum([Violation("Stability", "quotient curve",
                                      "a rational component has fewer than 3 marked points")])
    comp = MarkedComponent(0, (), (*points[:index], MarkedPoint.dihedral(G.mul(a, b), a),
                                   *points[index + 2:]))
    datum = BoundaryDatum(G, (comp,))
    return Degeneration(DIHEDRAL, datum, index=index, involution=a)


def dedup(degenerations: list[Degeneration]) -> list[Degeneration]:
    """One representative per conjugation-equivalence class, first seen wins."""
    seen = set()
    out = []
    for deg in degenerations:
        key = canonical_form(deg.datum)
        if key not in seen:
            seen.add(key)
            out.append(deg)
    return out
