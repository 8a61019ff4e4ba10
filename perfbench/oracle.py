"""Independent expected values and the correctness gate.

Everything here works on raw permutation tuples with its own arithmetic, so
the gate never asks the package under test for the numbers it checks.  The
formulas are quotient-level:

- cover components: sum over quotient components Y of [G : H_Y];
- nodes: sum |G|/ord(m) over nodes plus sum |G|/|<m, s>| over dihedral points;
- component genera: Riemann-Hurwitz for H_Y over Y;
- connectivity: the quotient graph is connected and the H_Y together with
  the dihedral involutions s generate G;
- deg chi_dR = 2 (V - E - sum of genera), which is 2 - 2 g_a on connected
  covers, and deg H^1 = 2 g_a there.
"""

from __future__ import annotations

from math import gcd


def compose(p: tuple, q: tuple) -> tuple:
    """(p . q)(i) = p(q(i)), the package's convention."""
    return tuple(p[i] for i in q)


def inverse(p: tuple) -> tuple:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def conj(g: tuple, x: tuple) -> tuple:
    """g x g^-1."""
    return compose(compose(g, x), inverse(g))


def perm_order(p: tuple) -> int:
    seen = [False] * len(p)
    order = 1
    for start in range(len(p)):
        if seen[start]:
            continue
        length, i = 0, start
        while not seen[i]:
            seen[i] = True
            i = p[i]
            length += 1
        order = order * length // gcd(order, length)
    return order


def closure(gens, degree: int) -> set:
    """All products of ``gens``, by breadth-first right multiplication."""
    gens = [tuple(g) for g in gens]
    ident = tuple(range(degree))
    els = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                c = compose(a, g)
                if c not in els:
                    els.add(c)
                    new.append(c)
        frontier = new
    return els


class Group:
    """Sorted element list of a permutation group, ids as in the package."""

    def __init__(self, generators, degree: int):
        self.degree = degree
        self.generators = [tuple(g) for g in generators]
        self.elements = sorted(closure(self.generators, degree))
        self.index = {g: i for i, g in enumerate(self.elements)}
        self.order = len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return self.index[compose(self.elements[i], self.elements[j])]

    def inv(self, i: int) -> int:
        return self.index[inverse(self.elements[i])]

    def generator_ids(self) -> list[int]:
        return [self.index[g] for g in self.generators]

    def jsonable(self) -> dict:
        return {"degree": self.degree, "generators": [list(g) for g in self.generators]}


def is_inverting_involution(m: tuple, s: tuple) -> bool:
    """s^2 = e, s m s^-1 = m^-1 and s outside <m>."""
    ident = tuple(range(len(m)))
    if s == ident or compose(s, s) != ident or conj(s, m) != inverse(m):
        return False
    acc = ident
    while True:
        if acc == s:
            return False
        acc = compose(acc, m)
        if acc == ident:
            return True


def rh_genus(h_order: int, base_genus: int, orders: list[int]) -> int:
    double = h_order * (2 * base_genus - 2) + sum(h_order - h_order // d for d in orders)
    return (double + 2) // 2


# -- analyze -----------------------------------------------------------------


def expect_analyze(datum: dict) -> dict:
    """Quotient-level values an ``analyze`` report must agree with."""
    degree = datum["group"]["degree"]
    g_order = len(closure(datum["group"]["generators"], degree))
    ident = tuple(range(degree))
    genera: list[int] = []
    images: list[tuple] = []
    node_ends: dict[int, list[tuple[int, tuple]]] = {}
    dihedral: list[tuple[tuple, tuple]] = []
    for ci, comp in enumerate(datum["components"]):
        gens = [tuple(x) for pair in comp.get("handles", []) for x in pair]
        gens += [tuple(p["m"]) for p in comp["points"]]
        h_order = len(closure(gens, degree))
        orders = [perm_order(tuple(p["m"])) for p in comp["points"] if tuple(p["m"]) != ident]
        genera += [rh_genus(h_order, comp.get("genus", 0), orders)] * (g_order // h_order)
        images += gens
        for p in comp["points"]:
            if p["kind"] == "node":
                node_ends.setdefault(p["node"], []).append((ci, tuple(p["m"])))
            elif p["kind"] == "dihedral":
                dihedral.append((tuple(p["m"]), tuple(p["s"])))
    nodes = sum(g_order // perm_order(ends[0][1]) for ends in node_ends.values())
    nodes += sum(g_order // len(closure([m, s], degree)) for m, s in dihedral)
    images += [s for _, s in dihedral]

    parent = list(range(len(datum["components"])))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for ends in node_ends.values():
        parent[find(ends[0][0])] = find(ends[1][0])
    quotient_connected = len({find(c) for c in range(len(parent))}) == 1
    connected = quotient_connected and len(closure(images, degree)) == g_order

    comps = len(genera)
    return {
        "group_order": g_order,
        "component_count": comps,
        "node_count": nodes,
        "genera": genera,
        "connected": connected,
        "arithmetic_genus": sum(genera) + nodes - comps + 1 if connected else None,
        "degree_chi_dR": 2 * (comps - nodes - sum(genera)),
        # the package has no report for these: de_rham_character asks for the
        # arithmetic genus of the whole cover, which is undefined
        "known_defect": not connected and any(genera),
    }


def check_analyze(expected: dict, code: int, report: dict | None) -> str | None:
    """None when the result agrees with ``expected``, else the first mismatch."""
    if code != 0 or report is None:
        return f"exit code {code}"
    cov, chars = report["cover"], report["characters"]
    got = {
        "component_count": cov["component_count"],
        "node_count": cov["node_count"],
        "genera": [c["genus"] for c in cov["components"]],
        "connected": cov["connected"],
        "arithmetic_genus": cov["arithmetic_genus"],
        "degree_chi_dR": chars["degree_chi_dR"],
    }
    for key, value in got.items():
        if value != expected[key]:
            return f"{key}: got {value!r}, expected {expected[key]!r}"
    if chars.get("chi_dR") is not None and chars["chi_dR"]["degree"] != expected["degree_chi_dR"]:
        return "chi_dR degree differs from 2 (V - E - sum of genera)"
    if chars.get("h1") is not None:
        if not expected["connected"] or chars["h1"]["degree"] != 2 * expected["arithmetic_genus"]:
            return "h1 degree differs from 2 g_a"
    return None


def facts(code: int, report: dict | None) -> dict:
    """Mathematical values of one analyze run, for comparison with pinned ones.

    The report layout, ``chi_dR_literal`` and the smoothing annotations are
    left out; fields the program reports as null are dropped.
    """
    if code != 0 or report is None:
        return {"exit": code}
    cov, chars = report["cover"], report["characters"]
    out = {
        "exit": 0,
        "component_count": cov["component_count"],
        "node_count": cov["node_count"],
        "connected": cov["connected"],
        "stable": cov["stable"],
        "arithmetic_genus": cov["arithmetic_genus"],
        "genera": [c["genus"] for c in cov["components"]],
        "component_arithmetic_genera": cov["component_arithmetic_genera"],
        "node_classes": [[e["kind"], e["stabilizer_order"], e["count"]]
                         for e in cov["node_classes"]],
        "classes": [[c["order"], c["size"]] for c in chars["classes"]],
        "degree_chi_dR": chars["degree_chi_dR"],
        "chi_dR": chars["chi_dR"]["values"] if chars.get("chi_dR") else None,
        "h1": chars["h1"]["values"] if chars.get("h1") else None,
    }
    return {k: v for k, v in out.items() if v is not None}


def check_pinned(pinned: dict, current: dict) -> str | None:
    """Compare every field the pinned run reported; a pinned failure pins nothing."""
    if pinned.get("exit") != 0:
        return None
    for key, value in pinned.items():
        if current.get(key) != value:
            return f"pinned {key}: got {current.get(key)!r}, expected {value!r}"
    return None


# -- strata ------------------------------------------------------------------


def inverting_involution_count(group: Group, m: tuple) -> int:
    return sum(1 for s in group.elements if is_inverting_involution(m, s))


def degeneration_class_count(group: Group, entries_list: list[list[tuple]]) -> int:
    """Conjugation classes among the split and dihedral degenerations of the tuples.

    A degeneration is keyed by its shape and its element tuple; two are in one
    class when simultaneous conjugation carries one key to the other.
    """
    keys = set()
    for entries in entries_list:
        a, b, c, d = entries
        h = inverse(compose(a, b))
        keys.add(("split", (a, b, h, inverse(h), c, d)))
        for i, m in enumerate(entries):
            for s in group.elements:
                if is_inverting_involution(m, s):
                    keys.add((f"dihedral{i}", tuple(entries) + (s,)))
    inverses = [inverse(g) for g in group.elements]
    return len({(shape, conjugation_key(group, inverses, els)) for shape, els in keys})


def conjugation_key(group: Group, inverses: list[tuple], els) -> tuple:
    """The least simultaneous conjugate of ``els``: equal keys, conjugate tuples."""
    return min(tuple(compose(compose(g, x), gi) for x in els)
               for g, gi in zip(group.elements, inverses))
