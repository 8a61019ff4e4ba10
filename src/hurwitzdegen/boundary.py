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

from ._record import Record, set_field
from .errors import InvalidDatum, SchemaError
from .graphs import GenGraph, gengraph_to_dot
from .groups import MAX_DEGREE, PermGroup, is_inverting_involution, least_conjugate

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
        set_field(self, "group", group)
        set_field(self, "components", components)
        set_field(self, "_canonical", None)

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


def validate(datum: BoundaryDatum) -> list[Violation]:
    """All invariant checks; an empty list means the datum is admissible.
    Each surface relation is one product: [a, b] per handle, then each point's m."""
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
        ma = datum.point(ca, pa).m
        mb = datum.point(cb, pb).m
        if mb != G.inv(ma):
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
    reports a product other than e as the component's surface relation, and
    ``tuple_from_jsonable`` rejects one on input."""

    __slots__ = ()
    _fields = ("group", "components")

    def __init__(self, group: PermGroup, entries: tuple[int, ...]):
        points = tuple(map(MarkedPoint.cyclic, entries))
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
    components; K_P = ``piece_groups[P]`` is H_Y for a lone component with no
    dihedral point or an H_Y of P that is G, else closed from P's handle
    images, point monodromies and dihedral s's (an s joins gH_Y to gsH_Y).
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
    for P, s in zip(pieces, s_ids):  # K_P contains every H_Y of P, so an H_Y = G is K_P
        lone = len(P) == 1 and not s
        K = [H for H in map(vertex_groups.__getitem__, P) if lone or H.order == G.order]
        piece_groups.append(K[0] if K else
                            G.generated_subgroup([x for ci in P for x in comp_ids[ci]] + s))
    connected = len(piece_groups) == 1 and piece_groups[0].order == G.order
    return DualGraphOfGroups(datum, graph, vertex_groups, tuple(ends), tuple(labels), piece_of,
                             tuple(piece_groups), connected)


# -- conjugation, canonical form, equivalence --------------------------------

_KIND_CODE = {CYCLIC: 0, DIHEDRAL: 1, NODE_END: 2}


def _element_ids(datum: BoundaryDatum) -> list[int]:
    """The datum's element ids in ``serialize`` order: each component's
    handles a, b, then each point's m and, on dihedral points, s."""
    ids = []
    for comp in datum.components:
        for a, b in comp.handles:
            ids += (a, b)
        for pt in comp.points:
            ids.append(pt.m)
            if pt.s is not None:
                ids.append(pt.s)
    return ids


def serialize(datum: BoundaryDatum, ids: tuple[int, ...] | None = None) -> tuple:
    """Deterministic nested tuple of all structure and element ids; given
    ``ids``, they replace the datum's element ids in ``_element_ids`` order."""
    take = iter(_element_ids(datum) if ids is None else ids).__next__
    out = []
    for comp in datum.components:
        handles = tuple((take(), take()) for _ in comp.handles)
        pts = tuple((_KIND_CODE[pt.kind], take(), -1 if pt.s is None else take(),
                     -1 if pt.node_id is None else pt.node_id)
                    for pt in comp.points)
        out.append((comp.genus, handles, pts))
    return tuple(out)


def canonical_form(datum: BoundaryDatum) -> tuple:
    """The key of the datum up to simultaneous conjugation by G: the least
    serialized conjugate.

    Conjugation moves only the element ids, so serialized conjugates compare
    as their id lists in ``serialize`` order, and the key is the datum
    serialized with ``least_conjugate`` of its ids: no conjugate datum is
    built.  Conjugation is defined on every datum, valid or not.  A datum is
    immutable, so its key is computed once and kept on it: ``equivalent`` and
    ``degen.dedup`` key each datum once however often they meet it.
    """
    key = datum._canonical
    if key is None:
        key = serialize(datum, least_conjugate(datum.group, _element_ids(datum)))
        set_field(datum, "_canonical", key)
    return key


def equivalent(d1: BoundaryDatum, d2: BoundaryDatum) -> bool:
    G, H = d1.group, d2.group   # one group, or two with the same sorted element list
    return ((G is H or (G.degree == H.degree and G.elements == H.elements))
            and canonical_form(d1) == canonical_form(d2))


# -- JSON ---------------------------------------------------------------------


def datum_to_jsonable(datum: BoundaryDatum) -> dict:
    G = datum.group
    comps = []
    for comp in datum.components:
        points = []
        for pt in comp.points:
            entry: dict = {"kind": pt.kind, "m": list(G.perm(pt.m))}
            if pt.s is not None:
                entry["s"] = list(G.perm(pt.s))
            if pt.node_id is not None:
                entry["node"] = pt.node_id
            points.append(entry)
        comps.append({"genus": comp.genus,
                      "handles": [[list(G.perm(a)), list(G.perm(b))] for a, b in comp.handles],
                      "points": points})
    return {"group": G.to_jsonable(), "components": comps}


def _is_int(x) -> bool:
    """JSON integers only: booleans are ints to Python but not to the schema."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_list(raw) -> bool:
    """A JSON array of JSON integers, its images' types checked in one C pass;
    ``type(True)`` is ``bool``, so booleans fail."""
    return type(raw) is list and set(map(type, raw)) <= {int}


def _reject_unknown_keys(obj: dict, keys: set[str], path: str) -> None:
    """A key outside the schema is an error, not a field left at its
    default: one C-level key-set difference per object, naming the least
    unknown key."""
    unknown = obj.keys() - keys
    if unknown:
        raise SchemaError(f"{path}.{min(unknown)}",
                          f"unknown field; expected only {', '.join(sorted(keys))}")


def _perm_id(G: PermGroup, raw, path: str) -> int:
    """The id of an image array; ``PermGroup.id_of`` is its one permutation check."""
    if not _is_int_list(raw):
        raise SchemaError(path, "expected a permutation as a list of integer images")
    try:
        return G.id_of(raw)
    except KeyError as exc:
        raise SchemaError(path, exc.args[0]) from None


def _group_from_jsonable(grp) -> PermGroup:
    if not isinstance(grp, dict) or "degree" not in grp or "generators" not in grp:
        raise SchemaError("$.group", "expected {degree, generators}")
    _reject_unknown_keys(grp, {"degree", "generators"}, "$.group")
    if not _is_int(grp["degree"]) or grp["degree"] < 0:
        raise SchemaError("$.group.degree", "expected a nonnegative integer")
    if grp["degree"] > MAX_DEGREE:
        raise SchemaError("$.group.degree", f"degree {grp['degree']} exceeds {MAX_DEGREE}")
    if not isinstance(grp["generators"], list) or not all(map(_is_int_list, grp["generators"])):
        raise SchemaError("$.group.generators", "expected permutations as lists of integers")
    try:
        return PermGroup(grp["generators"], degree=grp["degree"])
    except Exception as exc:
        raise SchemaError("$.group", str(exc)) from None


def datum_from_jsonable(obj) -> BoundaryDatum:
    if not isinstance(obj, dict):
        raise SchemaError("$", "expected a JSON object")
    for key in ("group", "components"):
        if key not in obj:
            raise SchemaError(f"$.{key}", "missing required field")
    G = _group_from_jsonable(obj["group"])
    _reject_unknown_keys(obj, {"group", "components"}, "$")
    comps = []
    if not isinstance(obj["components"], list) or not obj["components"]:
        raise SchemaError("$.components", "expected a non-empty list")
    for ci, comp in enumerate(obj["components"]):
        base = f"$.components[{ci}]"
        if not isinstance(comp, dict):
            raise SchemaError(base, "expected an object")
        _reject_unknown_keys(comp, {"genus", "handles", "points"}, base)
        genus = comp.get("genus", 0)
        if not _is_int(genus) or genus < 0:
            raise SchemaError(f"{base}.genus", "expected a nonnegative integer")
        raw_handles, raw_points = comp.get("handles", []), comp.get("points", [])
        if not isinstance(raw_handles, list) or len(raw_handles) != genus:
            raise SchemaError(f"{base}.handles", f"expected a list of {genus} [a, b] pair(s), "
                                                 "one per unit of genus")
        if not isinstance(raw_points, list):
            raise SchemaError(f"{base}.points", "expected a list")
        handles = []
        for hi, pair in enumerate(raw_handles):
            if not isinstance(pair, list) or len(pair) != 2:
                raise SchemaError(f"{base}.handles[{hi}]", "expected [a, b]")
            handles.append((_perm_id(G, pair[0], f"{base}.handles[{hi}][0]"),
                            _perm_id(G, pair[1], f"{base}.handles[{hi}][1]")))
        points = []
        for pi, pt in enumerate(raw_points):
            ppath = f"{base}.points[{pi}]"
            if not isinstance(pt, dict) or "kind" not in pt or "m" not in pt:
                raise SchemaError(ppath, "expected {kind, m, ...}")
            _reject_unknown_keys(pt, {"kind", "m", "s", "node"}, ppath)
            kind = pt["kind"]
            if kind not in (CYCLIC, DIHEDRAL, NODE_END):
                raise SchemaError(f"{ppath}.kind", f"unknown kind {kind!r}")
            for key, owner in (("s", DIHEDRAL), ("node", NODE_END)):
                if (key in pt) != (kind == owner):
                    raise SchemaError(f"{ppath}.{key}", f"{owner} points need {key}"
                                      if kind == owner else f"only {owner} points carry {key}")
            m = _perm_id(G, pt["m"], f"{ppath}.m")
            if kind == NODE_END and not _is_int(pt["node"]):
                raise SchemaError(f"{ppath}.node", "node end needs an integer node id")
            s = _perm_id(G, pt["s"], f"{ppath}.s") if kind == DIHEDRAL else None
            points.append(MarkedPoint(kind, m, s, pt.get("node")))
        comps.append(MarkedComponent(genus, tuple(handles), tuple(points)))
    return BoundaryDatum(G, tuple(comps))


def tuple_to_jsonable(t: HurwitzTuple) -> dict:
    return {"group": t.group.to_jsonable(),
            "entries": [list(t.group.perm(g)) for g in t.entries]}


def tuple_from_jsonable(obj) -> HurwitzTuple:
    if not isinstance(obj, dict) or "group" not in obj or "entries" not in obj:
        raise SchemaError("$", "expected {group, entries}")
    G = _group_from_jsonable(obj["group"])
    _reject_unknown_keys(obj, {"group", "entries"}, "$")
    if not isinstance(obj["entries"], list) or not obj["entries"]:
        raise SchemaError("$.entries", "expected a non-empty list of permutations")
    ids = [_perm_id(G, e, f"$.entries[{i}]") for i, e in enumerate(obj["entries"])]
    if G.product(ids) != G.identity:
        raise SchemaError("$.entries", "tuple entries must multiply to the identity")
    return HurwitzTuple(G, tuple(ids))
