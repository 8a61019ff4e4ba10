"""Equivariant virtual characters of de Rham cohomology of nodal covers.

One formula for every cover, read off the datum's graph of groups alone,
``de_rham_character(gog)`` (Lefschetz fixed points plus Frobenius induction):

    chi_dR = sum over Y of [(2 - 2 h_Y - n_Y) rho_G + sum over p in Y of Ind_<m_p> 1]
             - 2 sum over edges e of Ind_{E_e} sgn_e

rho_G is the regular character, n_Y counts the marked points of Y and sgn_e
is the character of the edge group E_e = <m, s> of the edge label (m, s)
with kernel K_e = <m>: trivial at a node (s = e, E_e = <m>), and -1 on the
branch-swapping coset s<m> at a dihedral point.
The first sum is the character of the normalization, 2 * (permutation
character on cover components) when every component is rational.

Every term, a point's Ind_<m> 1 and an edge's Ind_{E_e} sgn_e alike, is one
``groups.induced_sign(G, m, s)`` with s = e at points and nodes: it is read
off the classes of the m^k and s m^k, with no subgroup closed.  Ind_<m> 1
depends only on the class of m, so it is computed once per class.
[H^1] = 2 triv - chi_dR is reported only when ``gog.connected``.
Each character is a tuple of its values on G's classes in class order.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import add as _plus

from ._record import Record
from .boundary import DualGraphOfGroups
from .groups import PermGroup, induced_sign


class DevissageReport(Record, eq=False):
    """Four characters as value tuples in class order; ``h1_character`` is
    None exactly on disconnected covers."""

    __slots__ = ("chi_dR", "chi_normalization", "edge_induction_sum", "h1_character")


def de_rham_character(gog: DualGraphOfGroups) -> DevissageReport:
    """chi_dR of the cover of ``gog.datum``, with [H^1] when ``gog.connected``."""
    datum, G = gog.datum, gog.datum.group
    # Ind_<m> 1 kept under (class of m, e), a dihedral edge's value under (m, s)
    values: dict[tuple[int, int], tuple[int, ...]] = {}

    def add(acc: list[int], m: int, s: int) -> None:
        key = (G.class_of(m), s) if s == G.identity else (m, s)
        if key not in values:
            values[key] = induced_sign(G, m, s)
        acc[:] = map(_plus, acc, values[key])

    n = len(G.conjugacy_classes())
    norm, edge = [0] * n, [0] * n
    for comp in datum.components:
        norm[0] += (2 - 2 * comp.genus - len(comp.points)) * G.order
        for pt in comp.points:
            add(norm, pt.m, G.identity)
    for m, s in gog.edge_labels:
        add(edge, m, s)
    chi = tuple([a - 2 * b for a, b in zip(norm, edge)])
    h1 = tuple([2 - v for v in chi]) if gog.connected else None  # 2 triv - chi_dR
    return DevissageReport(chi, tuple(norm), tuple(edge), h1)


# -- rendering ----------------------------------------------------------------


def class_labels(group: PermGroup) -> list[str]:
    """ATLAS-style class names: 1a, 2a, 3a, 5a, 5b, ...; past 26 classes of
    one order the letters run again with a suffix: a..z, a1..z1, a2..z2, ..."""
    labels = []
    counts: dict[int, int] = {}
    for c in group.conjugacy_classes():
        order = group.element_order(c[0])
        n = counts.get(order, 0)
        counts[order] = n + 1
        suffix, letter = divmod(n, 26)
        labels.append(f"{order}{chr(ord('a') + letter)}{suffix or ''}")
    return labels


def render_character_table(classes: Sequence[dict], characters: dict[str, Sequence[int]]) -> str:
    """One row per class of ``classes``, a report's ``classes`` list (label,
    order, size); one value column per named character, given as its values
    in class order."""
    names = list(characters)
    header = ["class", "order", "size"] + names
    rows = [[c["label"], str(c["order"]), str(c["size"]), *(str(characters[n][ci]) for n in names)]
            for ci, c in enumerate(classes)]
    widths = [max(len(header[j]), *(len(r[j]) for r in rows)) for j in range(len(header))]
    fmt = "  ".join("{:>%d}" % w for w in widths)
    lines = [fmt.format(*header), "  ".join("-" * w for w in widths)]
    lines += [fmt.format(*r) for r in rows]
    lines.append("  ".join(f"deg {n} = {characters[n][0]}" for n in names))  # e in class 0
    return "\n".join(lines) + "\n"


def character_to_jsonable(values: Sequence[int]) -> dict:
    return {"values": list(values), "degree": values[0]}  # e in class 0


def classes_to_jsonable(group: PermGroup) -> list[dict]:
    labels = class_labels(group)
    return [{"label": labels[ci], "order": group.element_order(c[0]), "size": len(c)}
            for ci, c in enumerate(group.conjugacy_classes())]
