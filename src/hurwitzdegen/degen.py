"""Codimension-1 degenerations of boundary data and the smoothing maps.

Each move edits component ci of a datum and returns the new datum: ``split``
moves its first k points onto a new rational component meeting the rest at a
node, ``dihedral`` makes a cyclic point dihedral, one datum per inverting
involution, ``smooth`` opens a dihedral point (m, s) into the involution
points s and s*m, and ``collide`` is its inverse.  A move checks the kinds of
the points it takes and ``is_stable_curve`` on the component it shrinks; it
builds only the points it adds.  The tuple calls are the moves at ci = 0: a
``Degeneration`` is the move's kind, its datum and the index of the point it made.
"""

from __future__ import annotations

from ._record import Record
from .boundary import (CYCLIC, DIHEDRAL, BoundaryDatum, MarkedComponent, MarkedPoint,
                       Violation, canonical_form, is_stable_curve)
from .errors import InvalidDatum
from .groups import inverting_involutions

SPLIT = "split"  # the other kind, DIHEDRAL, is the point kind of boundary
_UNSTABLE = Violation("Stability", "quotient curve",
                      "the move leaves a genus-g component with n points, 2g - 2 + n <= 0")


class Degeneration(Record, eq=False):
    """A codimension-1 boundary datum of a tuple, made by a move at ci = 0.
    ``datum.point(0, index)`` is the point the move made: a split's node end
    on the left component, after the left group's ``index`` entries, or the
    dihedral point, whose s is the involution.
    """

    __slots__ = ("kind", "datum", "index")


def _replace(datum: BoundaryDatum, ci: int, points: tuple, *left) -> BoundaryDatum:
    """``datum`` with component ci's points replaced, after the new components ``left``."""
    comps = datum.components
    comp = MarkedComponent(comps[ci].genus, comps[ci].handles, points)
    return BoundaryDatum(datum.group, (*comps[:ci], *left, comp, *comps[ci + 1:]))


def _points(datum: BoundaryDatum, ci: int, *pis: int, kind: str = CYCLIC) -> tuple:
    """Component ci's points, once ci exists and each of ``pis`` is one of them, of ``kind``."""
    if not 0 <= ci < len(datum.components):
        raise ValueError(f"no component {ci} in a datum of {len(datum.components)}")
    points = datum.components[ci].points
    for pi in pis:
        if not 0 <= pi < len(points):
            raise ValueError(f"component {ci} has no point {pi}")
        if points[pi].kind != kind:
            raise ValueError(f"component {ci} point {pi} is {points[pi].kind}, not {kind}")
    return points


def _splits(comp: MarkedComponent, k: int) -> bool:
    """A split after k points leaves both sides stable, each with its node end."""
    return is_stable_curve(0, k + 1) and is_stable_curve(comp.genus, len(comp.points) - k + 1)


def split(datum: BoundaryDatum, ci: int, k: int) -> BoundaryDatum:
    """Split component ci after its first k points: a rational component
    with points[:k] and a node end whose id is one past the datum's largest,
    then ci's genus and handles with the opposite node end and points[k:]."""
    points = _points(datum, ci)
    comp = datum.components[ci]
    if not 0 <= k <= len(points):
        raise ValueError(f"component {ci} has no split after {k} of its {len(points)} points")
    if not _splits(comp, k):
        raise InvalidDatum([_UNSTABLE])
    G = datum.group
    h = G.inv(G.product(pt.m for pt in points[:k]))
    node = max(datum.node_ends(), default=-1) + 1
    left = MarkedComponent(0, (), (*points[:k], MarkedPoint.node_end(h, node)))
    return _replace(datum, ci, (MarkedPoint.node_end(G.inv(h), node), *points[k:]), left)


def dihedral(datum: BoundaryDatum, ci: int, pi: int) -> list[BoundaryDatum]:
    """Cyclic point pi of component ci made dihedral, one datum per s from
    ``inverting_involutions``; none on an unstable component."""
    points = _points(datum, ci, pi)
    if not is_stable_curve(datum.components[ci].genus, len(points)):
        return []
    m, before, after = points[pi].m, points[:pi], points[pi + 1:]
    return [_replace(datum, ci, (*before, MarkedPoint.dihedral(m, s), *after))
            for s in inverting_involutions(datum.group, m)]


def smooth(datum: BoundaryDatum, ci: int, pi: int) -> BoundaryDatum:
    """Dihedral point pi of component ci, (m, s), opened into the cyclic
    involution points s and s*m, whose product is m."""
    points = _points(datum, ci, pi, kind=DIHEDRAL)
    G, pt = datum.group, points[pi]
    return _replace(datum, ci, (*points[:pi], MarkedPoint.cyclic(pt.s),
                                MarkedPoint.cyclic(G.mul(pt.s, pt.m)), *points[pi + 1:]))


def collide(datum: BoundaryDatum, ci: int, pi: int) -> BoundaryDatum:
    """Cyclic involution points a, b at pi, pi + 1 of component ci collided
    into the dihedral point (m, s) = (ab, a), the inverse of ``smooth``.
    s = a inverts ab and lies outside <ab>: inside, a would commute with
    ab, so (ab)^2 = e, a = ab and b = e."""
    points = _points(datum, ci, pi, pi + 1)
    G, a, b = datum.group, points[pi].m, points[pi + 1].m
    for p, x in ((pi, a), (pi + 1, b)):
        if x == G.identity or G.mul(x, x) != G.identity:
            raise ValueError(f"component {ci} point {p} is not an involution")
    if not is_stable_curve(datum.components[ci].genus, len(points) - 1):
        raise InvalidDatum([_UNSTABLE])
    return _replace(datum, ci, (*points[:pi], MarkedPoint.dihedral(G.mul(a, b), a),
                                *points[pi + 2:]))


def split_degenerations(t: BoundaryDatum) -> list[Degeneration]:
    """Every stable split of component 0, the tuple's line, by k."""
    comp = t.components[0]
    return [Degeneration(SPLIT, split(t, 0, k), k) for k in range(len(comp.points) + 1)
            if _splits(comp, k)]


def dihedral_degenerations(t: BoundaryDatum, index: int) -> list[Degeneration]:
    return [Degeneration(DIHEDRAL, d, index) for d in dihedral(t, 0, index)]


def collide_pair(t: BoundaryDatum, index: int) -> Degeneration:
    return Degeneration(DIHEDRAL, collide(t, 0, index), index)


def smooth_dihedral(deg: Degeneration) -> BoundaryDatum:
    return smooth(deg.datum, 0, deg.index)


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
