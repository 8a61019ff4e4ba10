"""Combinatorial boundary data: pointed quotient curves with monodromy labels.

A boundary datum is a pointed quotient curve (components with genus, handle
images and an ordered list of marked points) together with element
assignments: cyclic points carry a local monodromy m, dihedral points carry
m plus an inverting involution s, node ends carry m and pair up across
nodes with exactly inverse monodromies.  Validity of the datum is exactly
admissibility of the encoded action.  Its graph of groups closes one group
per component and the group K_P of each connected piece P, which decides
connectivity of the cover, and labels each edge (m, s), with s = e at a node.
A Hurwitz tuple is the smooth case, a datum with one rational component
whose points are all cyclic, so every function of a datum takes it as it is.
"""

from __future__ import annotations

from operator import attrgetter

from ._record import Record
from .errors import InvalidDatum, SchemaError
from .graphs import GenGraph, gengraph_to_dot
from .groups import (DEFAULT_CLOSURE_BOUND, MAX_DEGREE, PermGroup, is_inverting_involution,
                     least_conjugate)

CYCLIC = "cyclic"
DIHEDRAL = "dihedral"
NODE_END = "node"


class MarkedPoint(Record):
    __slots__ = ("kind", "m", "s", "node_id")

    def __post_init__(self):
        if self.kind not in (CYCLIC, DIHEDRAL, NODE_END):
            raise ValueError(f"unknown point kind {self.kind!r}")
        if (self.s is not None) != (self.kind == DIHEDRAL):
            raise ValueError("s is set exactly on dihedral points")
        if (self.node_id is not None) != (self.kind == NODE_END):
            raise ValueError("node_id is set exactly on node ends")

    @classmethod
    def cyclic(cls, m: int) -> "MarkedPoint":
        return cls(CYCLIC, m, None, None)

    @classmethod
    def dihedral(cls, m: int, s: int) -> "MarkedPoint":
        return cls(DIHEDRAL, m, s, None)

    @classmethod
    def node_end(cls, m: int, node_id: int) -> "MarkedPoint":
        return cls(NODE_END, m, None, node_id)


class MarkedComponent(Record):
    __slots__ = ("genus", "handles", "points")

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        if len(self.handles) != self.genus:
            raise ValueError("need one handle image pair per unit of genus")


class Violation(Record):
    """A failed check: SurfaceRelation, NodePairing, DihedralInvolution or Stability."""

    __slots__ = ("kind", "location", "detail")


class BoundaryDatum(Record, eq=False):
    """A pointed quotient with its monodromy labels; ``_canonical`` holds its
    ``canonical_form`` key, filled on first use."""

    __slots__ = ("group", "components", "_canonical")
    _fields = ("group", "components")

    def __init__(self, group: PermGroup, components: tuple[MarkedComponent, ...]):
        _set_group(self, group)
        _set_components(self, components)
        _set_canonical(self, None)

    def node_ends(self) -> dict[int, list[tuple[int, int]]]:
        """node_id -> list of (component index, point index), in scan order."""
        ends: dict[int, list[tuple[int, int]]] = {}
        for ci, comp in enumerate(self.components):
            for pi, pt in enumerate(comp.points):
                if pt.kind == NODE_END:
                    ends.setdefault(pt.node_id, []).append((ci, pi))
        return ends

    def nodes(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """Well-paired nodes as ((ci, pi), (ci, pi)), sorted by node id."""
        return [(ends[0], ends[1]) for node_id, ends in sorted(self.node_ends().items())
                if len(ends) == 2]

    def dihedral_points(self) -> list[tuple[int, int]]:
        return [(ci, pi) for ci, comp in enumerate(self.components)
                for pi, pt in enumerate(comp.points) if pt.kind == DIHEDRAL]

    def point(self, ci: int, pi: int) -> MarkedPoint:
        return self.components[ci].points[pi]


# the slot setters, which write past Record.__setattr__ as a compiled constructor does
_set_group, _set_components, _set_canonical = (getattr(BoundaryDatum, name).__set__
                                               for name in BoundaryDatum.__slots__)


def validate(datum: BoundaryDatum) -> list[Violation]:
    """All invariant checks; an empty list means the datum is admissible.
    Each is a product of the datum's labels: a surface relation is [a, b]
    per handle, then each point's m; a node's ends m_a m_b = e; and a
    dihedral point's s and s m are involutions."""
    G = datum.group
    out: list[Violation] = []
    for ci, comp in enumerate(datum.components):
        commutators = [G.product((a, b, G.inv(a), G.inv(b))) for a, b in comp.handles]
        if G.product([*commutators, *(pt.m for pt in comp.points)]) != G.identity:
            out.append(Violation("SurfaceRelation", f"component {ci}",
                                 "handle commutators times point monodromies != identity"))
    for node_id, ends in sorted(datum.node_ends().items()):
        if len(ends) != 2:
            out.append(Violation("NodePairing", f"node {node_id}",
                                 f"node id used by {len(ends)} point(s), need exactly 2"))
            continue
        (ca, pa), (cb, pb) = ends
        if G.mul(datum.point(ca, pa).m, datum.point(cb, pb).m) != G.identity:
            out.append(Violation("NodePairing", f"node {node_id}",
                                 "end monodromies are not exact inverses"))
    for ci, pi in datum.dihedral_points():
        pt = datum.point(ci, pi)
        if not is_inverting_involution(G, pt.m, pt.s):
            out.append(Violation("DihedralInvolution", f"component {ci} point {pi}",
                                 "s must square to e, invert m and lie outside <m>"))
    return out


def datum_warnings(datum: BoundaryDatum) -> list[str]:
    out = []
    for ci, comp in enumerate(datum.components):
        for pi, pt in enumerate(comp.points):
            if pt.kind == CYCLIC and pt.m == datum.group.identity:
                out.append(f"component {ci} point {pi}: cyclic point with identity "
                           "monodromy (unramified marking)")
    return out


def is_stable_curve(genus: int, points: int) -> bool:
    """A genus-g curve with n special points is stable when 2g - 2 + n > 0:
    a rational one needs 3 points, an elliptic one 1."""
    return 2 * genus - 2 + points > 0


def unstable_components(datum: BoundaryDatum) -> list[int]:
    """The components that are not stable with their marked points."""
    return [ci for ci, comp in enumerate(datum.components)
            if not is_stable_curve(comp.genus, len(comp.points))]


# -- Hurwitz tuples ----------------------------------------------------------


class HurwitzTuple(BoundaryDatum, eq=False):
    """One rational component of cyclic points, their m the ``entries`` in order;
    the constructor is the one place that turns entries into points.  It
    trusts them, as ``BoundaryDatum`` trusts its components: ``validate``
    reports a product other than e as the component's surface relation, on
    a tuple as on its datum form."""

    __slots__ = ()
    _fields = ("group", "components")

    def __init__(self, group: PermGroup, entries: tuple[int, ...]):
        points = tuple([MarkedPoint(CYCLIC, m, None, None) for m in entries])
        BoundaryDatum.__init__(self, group, (MarkedComponent(0, (), points),))

    @property
    def entries(self) -> tuple[int, ...]:
        return tuple(pt.m for pt in self.components[0].points)

    def __len__(self) -> int:
        return len(self.components[0].points)


# -- dual graph of groups ----------------------------------------------------


class DualGraphOfGroups(Record):
    """The pointed quotient of ``datum`` as a graph of groups (Bass, Covering
    theory for graphs of groups, J. Pure Appl. Algebra 89 (1993)).

    Vertex ci is component Y with H_Y, generated by its handle images and
    point monodromies.  Unoriented edge e is a node (an ordinary edge) or a
    dihedral point (a self-opposite edge); nodes come first, in
    ``BoundaryDatum.nodes`` order.  ``edge_ends[e]`` lists the quotient points
    (ci, pi) it joins: the two ends of a node, or the one dihedral point.
    ``edge_labels[e] = (m, s)``: m is the monodromy of its first end, and s is
    e at a node and the involution at a dihedral point, the one kind test.
    E_e = <m, s> and K_e = <m>, the kernel of its sign character, are never
    closed: |K_e| = ord m and |E_e| = ord m or 2 ord m (``edge_orders``).
    ``graph`` is the underlying ``GenGraph``.  Vertex ci lies in its connected
    piece P = ``piece_of[ci]``, over which the cover has [G : K_P] connected
    components; K_P = ``piece_groups[P]`` is P's largest H_Y when that holds
    P's other handle images, point monodromies and dihedral s's (an s joins
    gH_Y to gsH_Y), as it does when it is G or P is one component with no
    dihedral point; else it is closed from all of them.
    ``connected`` says whether the cover is connected: one piece P, with K_P = G.
    """

    __slots__ = ("datum", "graph", "vertex_groups", "edge_ends", "edge_labels", "piece_of",
                 "piece_groups", "connected")

    def edge_orders(self) -> list[int]:
        """|E_e| for each edge, from the cached element orders: no products."""
        G = self.datum.group
        return [G.element_order(m) * (1 if s == G.identity else 2) for m, s in self.edge_labels]

    def to_dot(self) -> str:
        vlabels = [f"v{v} |H|={H.order}" for v, H in enumerate(self.vertex_groups)]
        elabels = [str(self.datum.group.element_order(m)) for m, _ in self.edge_labels]
        return gengraph_to_dot(self.graph, name="quotient",
                               vertex_labels=vlabels, edge_labels=elabels)


_order = attrgetter("order")


def dual_graph_of_groups(datum: BoundaryDatum) -> DualGraphOfGroups:
    """The datum's graph of groups; the only place its vertex groups and K_P are closed.

    Raises ``InvalidDatum`` on an inadmissible datum: the one validation
    that ``analyze`` and ``build_cover`` run.
    """
    violations = validate(datum)
    if violations:
        raise InvalidDatum(violations)
    G = datum.group
    pairs = []
    ends: list[tuple[tuple[int, int], ...]] = []
    labels: list[tuple[int, int]] = []
    for end_a, end_b in datum.nodes():
        # the oriented edge for each branch ends at that branch's component
        pairs.append((end_b[0], end_a[0]))
        ends.append((end_a, end_b))
        labels.append((datum.point(*end_a).m, G.identity))
    loops = []
    for ci, pi in datum.dihedral_points():
        pt = datum.point(ci, pi)
        loops.append(ci)
        ends.append(((ci, pi),))
        labels.append((pt.m, pt.s))
    graph = GenGraph.from_unoriented(len(datum.components), pairs, self_opposite=loops)
    comp_ids = [[x for ab in comp.handles for x in ab] + [pt.m for pt in comp.points]
                for comp in datum.components]
    vertex_groups = tuple(map(G.generated_subgroup, comp_ids))
    piece_of = tuple(graph.connected_component_ids())
    pieces: list[list[int]] = [[] for _ in range(max(piece_of) + 1)]  # the components in P
    s_ids: list[list[int]] = [[] for _ in pieces]                      # P's dihedral s's
    for ci, piece in enumerate(piece_of):
        pieces[piece].append(ci)
    for ci, (_, s) in zip(loops, labels[len(pairs):]):  # the dihedral labels follow the nodes'
        s_ids[piece_of[ci]].append(s)
    piece_groups = []
    for P, s in zip(pieces, s_ids):  # K_P contains every H_Y of P: the largest is K_P if it
        K = max(map(vertex_groups.__getitem__, P), key=_order)  # holds P's generators
        if K.order < G.order and (len(P) > 1 or s):
            gens = [x for ci in P for x in comp_ids[ci]] + s
            if not set(K.members).issuperset(gens):
                K = G.generated_subgroup(gens)
        piece_groups.append(K)
    connected = len(piece_groups) == 1 and piece_groups[0].order == G.order
    return DualGraphOfGroups(datum, graph, vertex_groups, tuple(ends), tuple(labels), piece_of,
                             tuple(piece_groups), connected)


# -- conjugation, canonical form, equivalence --------------------------------

_kind_and_node = attrgetter("kind", "node_id")


def _layout(datum: BoundaryDatum) -> tuple[tuple, list[int]]:
    """The datum's shape and its element ids.  The shape is, per component,
    its genus and each point's (kind, node_id), one ``attrgetter`` map; the
    ids are each handle's a and b, then each point's m and, on dihedral
    points, s.  The genus is the handle count, so data of one shape lay out
    their ids alike."""
    shape, ids = [], []
    for comp in datum.components:
        for a, b in comp.handles:
            ids += (a, b)
        for pt in comp.points:
            ids.append(pt.m)
            if pt.s is not None:
                ids.append(pt.s)
        shape.append((comp.genus, tuple(map(_kind_and_node, comp.points))))
    return tuple(shape), ids


def canonical_form(datum: BoundaryDatum) -> tuple:
    """The key of the datum up to simultaneous conjugation by G: its shape
    and the stored elements of the least conjugate of its ids,
    ``least_conjugate(G, ids)`` over ``_layout``, which returns those
    elements.

    Conjugation moves only the element ids, and equal shapes place them
    alike, so two data have one key exactly when one is a conjugate of the
    other: no conjugate datum is built.  Stored elements, not ids, make the
    key the same in two groups of one element set whose generators are
    listed apart, which number their elements apart.  The elements part of a
    tuple's key is the key of its Nielsen class mod Inn.  Conjugation is
    defined on every datum, valid or not.  A datum is immutable, so its key is computed once
    and kept on it: ``equivalent`` and ``degen.dedup`` key each datum once
    however often they meet it.
    """
    key = datum._canonical
    if key is None:
        shape, ids = _layout(datum)
        key = (shape, least_conjugate(datum.group, ids))
        _set_canonical(datum, key)
    return key


def equivalent(d1: BoundaryDatum, d2: BoundaryDatum) -> bool:
    G, H = d1.group, d2.group   # one group, or two with the same element set
    return (G is H or G.index.keys() == H.index.keys()) and canonical_form(d1) == canonical_form(d2)


# -- JSON ---------------------------------------------------------------------


def datum_to_jsonable(datum: BoundaryDatum) -> dict:
    elements = datum.group.elements
    comps = []
    for comp in datum.components:
        points = []
        for pt in comp.points:
            entry: dict = {"kind": pt.kind, "m": list(elements[pt.m])}
            if pt.s is not None:
                entry["s"] = list(elements[pt.s])
            if pt.node_id is not None:
                entry["node"] = pt.node_id
            points.append(entry)
        comps.append({"genus": comp.genus,
                      "handles": [[list(elements[a]), list(elements[b])] for a, b in comp.handles],
                      "points": points})
    return {"group": datum.group.to_jsonable(), "components": comps}


# each object's schema keys, for one C-level subset test; a $.path is built only to raise
_GROUP_KEYS = frozenset(("degree", "generators"))
_DATUM_KEYS = frozenset(("group", "components"))
_COMPONENT_KEYS = frozenset(("genus", "handles", "points"))
_POINT_KEYS = frozenset(("kind", "m", "s", "node"))
_TUPLE_KEYS = frozenset(("group", "entries"))
_INTS = frozenset((int,))


def _is_int(x) -> bool:
    """JSON integers only: booleans are ints to Python but not to the schema."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_list(raw) -> bool:
    """A JSON array of JSON integers, its images' types checked in one C pass;
    ``type(True)`` is ``bool``, so booleans fail."""
    return type(raw) is list and set(map(type, raw)) <= _INTS


def _reject_unknown_keys(obj: dict, keys: frozenset[str], path: str):
    """Raise on the least key of ``obj`` outside ``keys``: an unknown field is an error."""
    raise SchemaError(f"{path}.{min(obj.keys() - keys)}",
                      f"unknown field; expected only {', '.join(sorted(keys))}")


def _perm_id(G: PermGroup, raw, path: str, *at: int) -> int:
    """An image array's id, checked by ``PermGroup.id_of``; an error names ``path.format(*at)``."""
    try:
        if _is_int_list(raw):
            return G.id_of(raw)
        detail = "expected a permutation as a list of integer images"
    except KeyError as exc:
        detail = exc.args[0]
    raise SchemaError(path.format(*at), detail)


def _group_from_jsonable(grp, max_order: int) -> PermGroup:
    if not isinstance(grp, dict) or "degree" not in grp or "generators" not in grp:
        raise SchemaError("$.group", "expected {degree, generators}")
    if not grp.keys() <= _GROUP_KEYS:
        _reject_unknown_keys(grp, _GROUP_KEYS, "$.group")
    if not _is_int(grp["degree"]) or grp["degree"] < 0:
        raise SchemaError("$.group.degree", "expected a nonnegative integer")
    if grp["degree"] > MAX_DEGREE:
        raise SchemaError("$.group.degree", f"degree {grp['degree']} exceeds {MAX_DEGREE}")
    if not isinstance(grp["generators"], list) or not all(map(_is_int_list, grp["generators"])):
        raise SchemaError("$.group.generators", "expected permutations as lists of integers")
    try:
        return PermGroup(grp["generators"], degree=grp["degree"], max_order=max_order)
    except Exception as exc:
        raise SchemaError("$.group", str(exc)) from None


def datum_from_jsonable(obj, *, max_order: int = DEFAULT_CLOSURE_BOUND) -> BoundaryDatum:
    """The one loader: a datum, or a tuple read from its ``{group, entries}``;
    ``max_order`` is the group's closure bound (``PermGroup``)."""
    if isinstance(obj, dict) and "entries" in obj:
        return tuple_from_jsonable(obj, max_order=max_order)
    if not isinstance(obj, dict):
        raise SchemaError("$", "expected a JSON object")
    for key in ("group", "components"):
        if key not in obj:
            raise SchemaError(f"$.{key}", "missing required field")
    G = _group_from_jsonable(obj["group"], max_order)
    if not obj.keys() <= _DATUM_KEYS:
        _reject_unknown_keys(obj, _DATUM_KEYS, "$")
    comps = []
    if not isinstance(obj["components"], list) or not obj["components"]:
        raise SchemaError("$.components", "expected a non-empty list")
    for ci, comp in enumerate(obj["components"]):
        if not isinstance(comp, dict):
            raise SchemaError(f"$.components[{ci}]", "expected an object")
        if not comp.keys() <= _COMPONENT_KEYS:
            _reject_unknown_keys(comp, _COMPONENT_KEYS, f"$.components[{ci}]")
        genus = comp.get("genus", 0)
        if not _is_int(genus) or genus < 0:
            raise SchemaError(f"$.components[{ci}].genus", "expected a nonnegative integer")
        raw_handles, raw_points = comp.get("handles", []), comp.get("points", [])
        if not isinstance(raw_handles, list) or len(raw_handles) != genus:
            raise SchemaError(f"$.components[{ci}].handles",
                              f"expected a list of {genus} [a, b] pair(s), one per unit of genus")
        if not isinstance(raw_points, list):
            raise SchemaError(f"$.components[{ci}].points", "expected a list")
        handles = []
        for hi, pair in enumerate(raw_handles):
            if not isinstance(pair, list) or len(pair) != 2:
                raise SchemaError(f"$.components[{ci}].handles[{hi}]", "expected [a, b]")
            handles.append((_perm_id(G, pair[0], "$.components[{}].handles[{}][0]", ci, hi),
                            _perm_id(G, pair[1], "$.components[{}].handles[{}][1]", ci, hi)))
        points = []
        for pi, pt in enumerate(raw_points):
            if not isinstance(pt, dict) or "kind" not in pt or "m" not in pt:
                raise SchemaError(f"$.components[{ci}].points[{pi}]", "expected {kind, m, ...}")
            if not pt.keys() <= _POINT_KEYS:
                _reject_unknown_keys(pt, _POINT_KEYS, f"$.components[{ci}].points[{pi}]")
            kind = pt["kind"]
            if kind not in (CYCLIC, DIHEDRAL, NODE_END):
                raise SchemaError(f"$.components[{ci}].points[{pi}].kind", f"unknown kind {kind!r}")
            if ("s" in pt) != (kind == DIHEDRAL) or ("node" in pt) != (kind == NODE_END):
                for key, owner in (("s", DIHEDRAL), ("node", NODE_END)):  # the first to fail
                    if (key in pt) != (kind == owner):
                        raise SchemaError(f"$.components[{ci}].points[{pi}].{key}",
                                          f"{owner} points need {key}" if kind == owner
                                          else f"only {owner} points carry {key}")
            m = _perm_id(G, pt["m"], "$.components[{}].points[{}].m", ci, pi)
            if kind == NODE_END and not _is_int(pt["node"]):
                raise SchemaError(f"$.components[{ci}].points[{pi}].node",
                                  "node end needs an integer node id")
            s = (_perm_id(G, pt["s"], "$.components[{}].points[{}].s", ci, pi)
                 if kind == DIHEDRAL else None)
            points.append(MarkedPoint(kind, m, s, pt.get("node")))
        comps.append(MarkedComponent(genus, tuple(handles), tuple(points)))
    return BoundaryDatum(G, tuple(comps))


def tuple_to_jsonable(t: HurwitzTuple) -> dict:
    elements = t.group.elements
    return {"group": t.group.to_jsonable(), "entries": [list(elements[g]) for g in t.entries]}


def tuple_from_jsonable(obj, *, max_order: int = DEFAULT_CLOSURE_BOUND) -> HurwitzTuple:
    if not isinstance(obj, dict) or "group" not in obj or "entries" not in obj:
        raise SchemaError("$", "expected {group, entries}")
    G = _group_from_jsonable(obj["group"], max_order)
    if not obj.keys() <= _TUPLE_KEYS:
        _reject_unknown_keys(obj, _TUPLE_KEYS, "$")
    if not isinstance(obj["entries"], list) or not obj["entries"]:
        raise SchemaError("$.entries", "expected a non-empty list of permutations")
    ids = [_perm_id(G, e, "$.entries[{}]", i) for i, e in enumerate(obj["entries"])]
    return HurwitzTuple(G, tuple(ids))
