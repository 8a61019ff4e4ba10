"""Equivariant virtual characters of de Rham cohomology of nodal covers.

One formula for every cover, read off the datum's graph of groups (Lefschetz
fixed points plus Frobenius induction):

    chi_dR = sum over Y of [(2 - 2 h_Y - n_Y) rho_G + sum over p in Y of Ind_<m_p> 1]
             - 2 sum over edges e of Ind_{E_e} sgn_e

rho_G is the regular character, n_Y counts the marked points of Y and sgn_e
is the character of the edge group E_e with kernel K_e = <m>: trivial at a
node (E_e = <m>), and -1 on the branch-swapping coset s<m> of E_e = <m, s>
at a dihedral point.
The first sum is the character of the normalization, 2 * (permutation
character on cover components) when every component is rational.

Ind_<m> 1 takes the value |G| #{k < ord m : m^k in c} / (|c| ord m) on the
class c, so it depends only on the class of m and is read off the classes of
m's powers, once per class of point monodromy, with no subgroup closed; a
node edge reuses it, and only a dihedral edge induces from its E_e = <m, s>.
"""

from __future__ import annotations

from ._record import Record
from .boundary import BoundaryDatum, DualGraphOfGroups
from .groups import ClassFunction, PermGroup, induced_character, induced_from_cyclic


class DevissageReport(Record, eq=False):
    """``h1_character`` is None exactly on disconnected covers."""

    __slots__ = ("chi_dR", "chi_normalization", "edge_induction_sum", "h1_character")


def de_rham_character(datum: BoundaryDatum, gog: DualGraphOfGroups,
                      connected: bool) -> DevissageReport:
    """chi_dR of the datum's cover, with [H^1] when the cover is ``connected``
    (as ``covers.cover_report`` says)."""
    G = datum.group
    by_class: dict[int, tuple[int, ...]] = {}   # class of m -> values of Ind_<m> 1

    def add(acc: list[int], values) -> None:
        for i, v in enumerate(values):
            acc[i] += v

    def add_cyclic(acc: list[int], m: int) -> None:
        c = G.class_of(m)
        if c not in by_class:
            by_class[c] = induced_from_cyclic(G, m).values
        add(acc, by_class[c])

    n = len(G.conjugacy_classes())
    norm, edge = [0] * n, [0] * n
    for comp in datum.components:
        norm[0] += (2 - 2 * comp.genus - len(comp.points)) * G.order
        for pt in comp.points:
            add_cyclic(norm, pt.m)
    for ends, E, K in zip(gog.edge_ends, gog.edge_groups, gog.edge_kernels):
        if len(ends) == 2:  # a node: E_e = K_e = <m> of either end
            add_cyclic(edge, datum.point(*ends[0]).m)
        else:
            add(edge, induced_character(G, E, K).values)
    chi = [a - 2 * b for a, b in zip(norm, edge)]
    h1 = ClassFunction(G, tuple([2 - v for v in chi])) if connected else None  # 2 triv - chi_dR
    return DevissageReport(ClassFunction(G, tuple(chi)), ClassFunction(G, tuple(norm)),
                           ClassFunction(G, tuple(edge)), h1)


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


def render_character_table(group: PermGroup, characters: dict[str, ClassFunction]) -> str:
    """One row per conjugacy class; one value column per named character."""
    labels = class_labels(group)
    names = list(characters)
    header = ["class", "order", "size"] + names
    rows = []
    for ci, c in enumerate(group.conjugacy_classes()):
        row = [labels[ci], str(group.element_order(c[0])), str(len(c))]
        row += [str(characters[n].values[ci]) for n in names]
        rows.append(row)
    widths = [max(len(header[j]), *(len(r[j]) for r in rows)) for j in range(len(header))]
    fmt = "  ".join("{:>%d}" % w for w in widths)
    lines = [fmt.format(*header)]
    lines.append("  ".join("-" * w for w in widths))
    lines += [fmt.format(*r) for r in rows]
    degs = "  ".join(f"deg {n} = {characters[n].degree}" for n in names)
    lines.append(degs)
    return "\n".join(lines) + "\n"


def character_to_jsonable(chi: ClassFunction) -> dict:
    return {"values": list(chi.values), "degree": chi.degree}


def classes_to_jsonable(group: PermGroup) -> list[dict]:
    labels = class_labels(group)
    return [{"label": labels[ci], "order": group.element_order(c[0]), "size": len(c)}
            for ci, c in enumerate(group.conjugacy_classes())]
