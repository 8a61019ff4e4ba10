"""Exact arithmetic in finite permutation groups.

Groups are materialized as complete element lists (no stabilizer chains);
every element is referred to by its integer id, its position in the order in
which the closure found it, so the identity is element 0 and all downstream
enumerations are deterministic.  Ids carry no other order: whatever reaches a
report, and any comparison of two groups, orders stored elements instead.

Up to degree 256 an element is stored as the ``bytes`` of its images, so a
product is one C call, p . q = ``q.translate(p + tail)`` with
``tail = bytes(range(degree, 256))``, and keys hash once and compare with
``memcmp``.  Above degree 256 elements are image tuples, composed by
``compose`` and ``inverse``.  Both storages sort like the image tuple, so every
order taken from stored elements is the same in either.

A group and each subgroup generated from ids are closed one left coset of
a cyclic subgroup H = <a> at a time (Dimino's algorithm): a new coset y H is
added whole, on bytes by one ``translate`` by y of H's joined elements, so
the closure takes a Python step per coset and generator, not per element.
Conjugacy classes are orbits of ids under the tables x -> g x g^-1 of the
generators, each class listed in the order its walk found it, least id
first.  The tables, and every inverse with them, are read off the coset of
each g t the closure found, by C-level maps over ids and one inversion and
lookup per coset; before them an inverse is found on demand.  A subgroup
is its sorted member ids and nothing else: a left coset gH is one C-level
``map`` of the products g h over H's stored members, so cosets need no
generators of H.  A class function is a tuple of ints, its values on the
classes in ``conjugacy_classes()`` order; the identity's class comes
first, so ``chi[0]`` is the degree, and ``inner`` pairs two exactly.

All values are immutable after construction and every operation is a pure
function, so concurrent reads are safe; the lazily filled caches (inverses,
element orders, classes, and the records of non-central classes, each built
whole with its centralizer as stored (padded member, inverse) pairs) hold
correct values whichever call fills them.  They hold ids and stored elements
only, never an object that refers back to the group, so reference counting
frees a group, its tables and its class records as soon as the group's last
holder drops it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import partial
from itertools import count, repeat
from math import lcm
from operator import index as _as_index
from struct import Struct
from types import MappingProxyType

from ._record import Record
from .errors import ClosureBoundExceeded, DegreeMismatch

Perm = tuple  # images: Perm[i] = image of point i

DEFAULT_CLOSURE_BOUND = 10**6
MAX_DEGREE = 10**4  # the loader's bound on a declared degree, checked before anything is built


def as_perm(images: Sequence[int]) -> Perm:
    """Validate an image array and return it as a tuple; an error names one bad point.

    Each image is read with ``operator.index``, so a float or a string raises
    ``TypeError`` instead of being truncated or parsed."""
    p = tuple(map(_as_index, images))
    n = len(p)
    if sorted(p) != list(range(n)):
        first: dict[int, int] = {}
        i = next(i for i, x in enumerate(p) if not 0 <= x < n or first.setdefault(x, i) != i)
        why = f"{p[i]} is also point {first[p[i]]}'s" if 0 <= p[i] < n else "is out of range"
        raise ValueError(f"not a permutation of 0..{n - 1}: point {i}'s image {why}")
    return p


def compose(p: Perm, q: Perm) -> Perm:
    """(p . q)(i) = p(q(i))."""
    return tuple([p[i] for i in q])


def _swapped_compose(q: Perm, p: Perm) -> Perm:  # p . q, argued like bytes.translate
    return compose(p, q)


def _inverse_bytes(ident: bytes, p: bytes) -> bytes:  # maketrans(p, ident) maps p[k] to k
    return bytes.maketrans(p, ident)[:len(ident)]


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def perm_from_cycles(degree: int, *cycles: Sequence[int]) -> Perm:
    """Build the permutation given by disjoint cycles, e.g. (0,1,2,3,4)."""
    images = list(range(degree))
    for c in cycles:
        for i, x in enumerate(c):
            images[x] = c[(i + 1) % len(c)]
    return as_perm(images)


class PermGroup:
    """A finite permutation group with its full element list.

    Up to degree 256 an element is stored as the ``bytes`` of its images,
    above that as the tuple of them; both sort like the image tuple.
    ``elements`` lists them in closure order (the powers of the first
    generator, then each left coset of them as found), so an element's id is
    its position there and depends on the generators as listed; the identity
    is always element 0.  ``index`` maps each stored element to its id.
    ``max_order`` bounds the closure so a typo'd generating set fails fast
    instead of eating memory, and with it the stored images, to 256
    ``max_order`` bytes: on tuples, 8 bytes an image, that is the tighter
    bound, 32 ``max_order`` / ``degree`` elements.
    """

    def __init__(self, generators: Iterable[Sequence[int]], degree: int | None = None,
                 max_order: int = DEFAULT_CLOSURE_BOUND):
        gens = [as_perm(g) for g in generators]
        if degree is None:
            if not gens:
                raise DegreeMismatch("empty generating set needs an explicit degree")
            degree = len(gens[0])
        for g in gens:
            if len(g) != degree:
                raise DegreeMismatch(f"generator degree {len(g)} != {degree}")
        self.degree = degree
        self.generators = gens
        # the one choice of storage: _key stores an image array, p . q =
        # _tr(q, p + _pad), and _invert gives p^-1.  On bytes, q.translate(p +
        # tail) looks q's images up in p's; on tuples, compose(p, q), and ()
        # keeps p as it is.  The stored images may take 256 max_order bytes:
        # degree bytes an element on bytes, which max_order already bounds,
        # and about 8 degree on tuples, which lowers the closure's stop
        if degree <= 256:
            self._key, self._tr, self._pad = bytes, bytes.translate, bytes(range(degree, 256))
            self._invert = partial(_inverse_bytes, bytes(range(degree)))
            stop, past = max_order, f"{max_order} elements"
        else:
            self._key, self._tr, self._pad, self._invert = tuple, _swapped_compose, (), inverse
            stop = 32 * max_order // degree  # 256 max_order // (8 degree)
            past = f"{256 * max_order} bytes of stored images ({stop} elements at degree {degree})"
        keys = list(map(self._key, gens))
        self.index, self._moves = self._close(self._key(range(degree)), keys, stop)
        if len(self.index) > stop:
            raise ClosureBoundExceeded(f"closure exceeded {past}")
        self.elements = list(self.index)
        self._gen_ids = self._moves[:len(keys)]  # the moves on the identity's coset
        self._inv = [-1] * self.order  # filled by inv() on demand, whole by the classes
        self._orders: dict[int, int] = {}
        self._classes: tuple[tuple[int, ...], ...] | None = None
        self._class_of: list[int] | None = None
        self._records: dict[int, ClassRecord] = {}

    # -- element arithmetic (by id) --------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> int:
        return 0

    def perm(self, i: int) -> Perm:
        return tuple(self.elements[i])

    def id_of(self, p: Sequence[int]) -> int:
        """The id of the image array ``p``; being a key of ``index`` is what
        makes it a permutation in this group."""
        try:
            return self.index[self._key(p)]
        except (KeyError, TypeError, ValueError):  # bytes() takes integer images 0..255 only
            raise KeyError(f"permutation {list(p)!r} is not an element of this group") from None

    def mul(self, i: int, j: int) -> int:
        return self.index[self._tr(self.elements[j], self.elements[i] + self._pad)]

    def inv(self, i: int) -> int:
        """The id of i^-1: all of them once the classes are built, before that
        found on first use with one inversion and lookup, kept for i and i^-1."""
        j = self._inv[i]
        if j < 0:
            j = self.index[self._invert(self.elements[i])]
            self._inv[i], self._inv[j] = j, i
        return j

    def is_involution(self, x: int) -> bool:
        """x^2 = e and x != e: one stored product, no lookup."""
        p = self.elements[x]
        return x != 0 and self._tr(p, p + self._pad) == self.elements[0]

    def _close(self, ident, gens: list, stop: int) -> tuple[dict, list[int]]:
        """The stored elements of <gens>, each mapped to its position in the
        order found, closed one left coset of a cyclic subgroup at a time
        (Dimino's algorithm; G. Butler, Fundamental Algorithms for Permutation
        Groups, LNCS 559, 1991), and the coset moves of the generators.

        H = <a> for a = gens[0], in the caller's order (a group's generators
        as given, a dihedral point's m before its s).  Each left coset t H
        found is walked once: for each generator g, padded once, a new
        y = g t adds the whole coset y H.  On bytes that is one ``translate``
        by y of H's elements joined, split by one ``unpack`` and added by one
        ``dict.update``; on tuples, one C-level ``map`` of the products y h.
        A union of left cosets of H that holds the identity and is closed
        under left multiplication by the generators is the group.  The powers
        of a come first, the identity at 0, then each coset y H in the order
        found, y h in the order of the powers h, so coset t_j H holds the ids
        j |H| to j |H| + |H| - 1.  The moves are the ids of the g t_j, by j and
        then g, each the walk's one lookup (with a alone, a's id).  The walk
        returns the points found so far as soon as it holds more than ``stop``
        of them, a's powers included: the constructor stops past its
        ``max_order`` bound, or on tuples past its byte budget,
        ``generated_subgroup`` at |G|/2, past which, by Lagrange's theorem,
        the subgroup can only be G, and a class record at |G| / |class|, the
        known order of C_G(r), which its closure never passes.
        """
        tr, pad = self._tr, self._pad
        a = gens[0] if gens else ident
        powers, x, pa = [ident], a, a + pad
        while x != ident and len(powers) <= stop:
            powers.append(x)
            x = tr(x, pa)
        found = dict(zip(powers, count()))
        if len(gens) < 2 or len(found) > stop:  # <a> is the closure, or past the bound
            return found, [1 % len(found)]
        steps, wide, moves = [g + pad for g in gens], self.degree > 256, []
        if not wide:  # y H is one translate by y of the joined powers, split once
            joined, split = b"".join(powers), Struct(f"{self.degree}s" * len(powers)).unpack
        reps, n, get, record = [ident], len(found), found.get, moves.append
        for t in reps:  # grows while it is walked
            for y in map(tr, repeat(t), steps):  # g t
                record(at := get(y, n))
                if at == n:  # y H is new and disjoint from the cosets found
                    py = y + pad
                    ys = map(tr, powers, repeat(py)) if wide else split(tr(joined, py))
                    found.update(zip(ys, count(n)))
                    if (n := len(found)) > stop:
                        return found, moves
                    reps.append(y)
        return found, moves

    def product(self, ids: Iterable[int]) -> int:
        acc = 0
        for i in ids:
            acc = self.mul(acc, i)
        return acc

    def element_order(self, i: int) -> int:
        """The lcm of the cycle lengths of element i, cached; no products."""
        if i not in self._orders:
            p, seen, order = self.elements[i], [False] * self.degree, 1
            for start in range(self.degree):
                if not seen[start]:
                    length, x = 0, start
                    while not seen[x]:
                        seen[x] = True
                        length, x = length + 1, p[x]
                    order = lcm(order, length)
            self._orders[i] = order
        return self._orders[i]

    # -- conjugacy classes ------------------------------------------------

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Conjugation orbits, each as its ids in the order its walk found
        them, the least id first, ordered by (element order, least stored
        element).  The generators act by their ``_conjugation_tables``."""
        if self._classes is None:
            elements = self.elements
            classes = _table_orbits(self.order, self._conjugation_tables())
            classes.sort(key=lambda c: (self.element_order(c[0]),
                                        min(map(elements.__getitem__, c))))
            self._classes = tuple(classes)
            class_of = [0] * self.order
            for ci, c in enumerate(self._classes):
                for x in c:
                    class_of[x] = ci
            self._class_of = class_of
        return self._classes

    def _conjugation_tables(self) -> list[list[int]]:
        """The ids of g x g^-1 over the ids x, one table per generator g, read
        off the closure's moves with no product; fills ``_inv`` whole.

        With h = |<a>|, a = gens[0], the id j h + i, in column i, is t_j a^i.
        Column 0 of x -> a x is a's moves, column i + 1 is column i times a, and
        column i is column i + 1 mod h of x -> a x a^-1.  Column 0 of T(x) =
        (g x)^-1 holds the inverses of g's moves (of the t_j for g = e: one
        inversion and lookup a coset), column i is a^(h - i) times it, and
        T(T(x)) = g x g^-1.
        """
        gens, moves, inv, elements = self._gen_ids, self._moves, self._inv, self.elements
        k = max(len(gens), 1)  # no gens: a = e
        h = self.order * k // len(moves)  # a move per coset and generator
        ids = list(self.index.values())  # the closure's ints, shared by every table
        step, left, conj_a, col = ids[1:] + ids[:1], [0] * len(ids), [0] * len(ids), moves[::k]
        step[h - 1::h] = ids[::h]  # x -> x a
        for i in range(h):
            left[i::h] = conj_a[(i + 1) % h::h] = col
            col = list(map(step.__getitem__, col))
        del ids, step
        reps = map(self._invert, elements[::h])
        _by_columns(inv, list(map(self.index.__getitem__, reps)), left, h)
        roots = (_by_columns([0] * len(inv), list(map(inv.__getitem__, moves[gi::k])), left, h)
                 for gi in range(1, len(gens)))  # T for each g past a, built as it is squared
        return ([conj_a] if gens else []) + [list(map(t.__getitem__, t)) for t in roots]

    def class_of(self, i: int) -> int:
        return self._class_table()[i]

    def _class_table(self) -> list[int]:
        """The class index of every id; read it once before a loop over ids."""
        self.conjugacy_classes()
        assert self._class_of is not None
        return self._class_of

    def class_record(self, x: int) -> "ClassRecord | None":
        """The class record of x's conjugacy class, built on first use and
        cached under every member, or None exactly when x is central: an id
        with no record is tested by ``_is_central``, and a central class
        never gets one."""
        rec = self._records.get(x)
        if rec is None and not _is_central(self, x):
            rec = _class_record(self, x)
            self._records.update(dict.fromkeys(rec.conjugators, rec))
        return rec

    # -- subgroups ---------------------------------------------------------

    def subgroup(self, member_ids: Iterable[int]) -> "Subgroup":
        return Subgroup(tuple(sorted(set(member_ids))))

    def generated_subgroup(self, gen_ids: Iterable[int]) -> "Subgroup":
        """<gen_ids>, closed from the distinct non-identity generators.

        By Lagrange a subgroup with more than |G|/2 elements is G, so the
        closure stops there and returns ``full_subgroup()``.
        """
        gens = [g for g in dict.fromkeys(gen_ids) if g != 0]
        half = self.order // 2
        points, _ = self._close(self.elements[0], [self.elements[g] for g in gens], half)
        if len(points) > half:
            return self.full_subgroup()
        return Subgroup(tuple(sorted(map(self.index.__getitem__, points))))

    def cyclic_subgroup(self, i: int) -> "Subgroup":
        return self.generated_subgroup([i])

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(tuple(range(self.order)))

    # -- serialization ------------------------------------------------------

    def to_jsonable(self) -> dict:
        return {"degree": self.degree, "generators": [list(g) for g in self.generators]}


def _by_columns(out: list, col: list, left: list, h: int) -> list:
    """``out`` with its ids j h set to ``col`` and, from i = h - 1 down to
    1, its ids j h + i to the ``left`` images of column i + 1 mod h."""
    out[::h] = col
    for i in range(h - 1, 0, -1):
        out[i::h] = col = list(map(left.__getitem__, col))
    return out


def _table_orbits(n: int, tables: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The orbits of 0..n-1 under the group generated by permutation tables,
    listed by minimum, each in the order walked from its minimum."""
    seen = [False] * n
    cells = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        cell = [start]
        for x in cell:  # grows while it is walked
            for table in tables:
                y = table[x]
                if not seen[y]:
                    seen[y] = True
                    cell.append(y)
        cells.append(tuple(cell))
    return cells


class Subgroup(Record):
    """A subgroup given by its sorted member ids, and nothing else: not its
    group, which a kept subgroup therefore does not keep alive.

    A trusted value, never checked: callers pass sets that are closed by
    construction (closures, stabilizers, conjugates), and each
    holds the identity, id 0.
    """

    __slots__ = ("members",)

    @property
    def order(self) -> int:
        return len(self.members)


class ClassRecord(Record, eq=False):
    """A conjugacy class with a transversal and the centralizer of its least element.

    ``rep`` is the id of r, the least stored element of the class;
    ``conjugators`` maps every member y to a t_y with t_y r t_y^-1 = y,
    read-only, since one record serves every caller.  The g with
    g y g^-1 = r are then exactly the coset C_G(r) t_y^-1.  ``pairs`` holds
    C_G(r) as stored (padded member, inverse) elements, in member order;
    repr leaves it out.  No field refers to the
    group that caches the record.
    """

    __slots__ = ("rep", "conjugators", "pairs")
    _fields = ("rep", "conjugators")

    def __reduce__(self):  # a mappingproxy does not pickle: carry its dict, wrapped again on load
        return _read_only_record, (self.rep, dict(self.conjugators), self.pairs)


def _read_only_record(rep: int, conjugators: dict[int, int], pairs: tuple) -> ClassRecord:
    return ClassRecord(rep, MappingProxyType(conjugators), pairs)


def _class_record(group: PermGroup, x: int) -> ClassRecord:
    """Orbit-stabilizer on x's class (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 4.1).

    One walk over the class on stored elements records, for each member y,
    a conjugator u_y with u_y x u_y^-1 = y (a Schreier vector with its words
    multiplied out).  Each generator g is padded, and g^-1 found, once, and
    each member padded once, so an edge y -> g y g^-1 costs two products.
    With r the least stored member, t_y = u_y u_r^-1 conjugates r to y.  An
    edge that finds z new is a tree edge, u_z = g u_y, whose Schreier generator
    t_z^-1 g t_y is the identity; those of the other edges generate C_G(r),
    each formed on stored elements (two products and one inversion).  One
    that the closure so far does not hold joins the generators, and
    ``_close`` closes C_G(r) again from all of them, until it holds its
    known order |G| / |class|.
    """
    elements, index, tr, pad = group.elements, group.index, group._tr, group._pad
    steps = [(elements[group.inv(g)], elements[g] + pad) for g in group._gen_ids]
    via = {elements[x]: elements[0]}
    members, edges = [elements[x]], []
    for y in members:  # grows while it is walked
        u, py = via[y], y + pad
        for q, pg in steps:
            z = tr(tr(q, py), pg)  # g (y g^-1)
            if z in via:
                edges.append((y, pg, z))
            else:
                via[z] = tr(u, pg)
                members.append(z)
    r = min(members)
    back = elements[group.inv(index[via[r]])]
    t = {index[y]: index[tr(back, u + pad)] for y, u in via.items()}
    order, invert = group.order // len(members), group._invert
    closed, gens = {elements[0]: 0}, []
    for y, pg, z in edges:
        if len(closed) == order:
            break
        ty, tz = elements[t[index[y]]], elements[t[index[z]]]
        h = tr(tr(ty, pg), invert(tz) + pad)  # t_z^-1 (g t_y)
        if h not in closed:
            gens.append(h)
            closed, _ = group._close(elements[0], gens, order)
    ids = sorted(map(index.__getitem__, closed))
    pairs = tuple((elements[c] + pad, elements[group.inv(c)]) for c in ids)
    return _read_only_record(index[r], t, pairs)


def _is_central(group: PermGroup, x: int) -> bool:
    """The one centrality test: x commutes with each generator, two stored products each."""
    elements, tr, pad = group.elements, group._tr, group._pad
    p, px = elements[x], elements[x] + pad
    for g in map(elements.__getitem__, group._gen_ids):  # a loop: no generator frame per call
        if tr(g, px) != tr(p, g + pad):
            return False
    return True


def least_conjugate(group: PermGroup, ids: Sequence[int]) -> tuple:
    """The stored elements of the least of the tuples (g x g^-1 for x in
    ``ids``) over g in G, compared as tuples of stored elements: the key of
    ``ids`` up to simultaneous conjugation (of a Hurwitz tuple's Nielsen
    class mod Inn).  It returns elements, not ids, since the key holds them:
    no conjugate found is looked up.

    Leading central ids, those with no class record, are their own least
    conjugates and leave every g a candidate, so their elements are kept as
    they are.  The least conjugate of the first other id x is the least
    element r of its class, reached exactly by the g = c t_x^-1 with c in
    C_G(r), t_x being x's conjugator in its class record.  So a later id y
    is conjugated once by t_x^-1, to y' = t_x^-1 y t_x, and the candidates
    are the c themselves, the record's stored centralizer pairs.  Each y'
    keeps the c with the least stored c y' c^-1.  The survivors form a coset
    of the centralizer of the ids seen so far; once one c is left,
    g = c t_x^-1 conjugates the ids that remain directly.  Cost: one class
    record and one candidate coset per class of first ids (both cached);
    while candidates tie, two products per later id and two per candidate;
    then two for g and g^-1, and two per remaining id.
    """
    elements, k = group.elements, 0
    while k < len(ids) and (rec := group.class_record(ids[k])) is None:
        k += 1
    if k == len(ids):
        return tuple(map(elements.__getitem__, ids))
    tr, pad, x = group._tr, group._pad, ids[k]
    t = rec.conjugators[x]
    pt, ti = elements[t], elements[group.inv(t)]
    back = ti + pad
    cands, out, j = rec.pairs, [elements[rec.rep]], k + 1
    while j < len(ids) and len(cands) > 1:
        py = tr(tr(pt, elements[ids[j]] + pad), back) + pad  # y' = t^-1 (y t)
        images = [tr(tr(ci, py), pc) for pc, ci in cands]  # c (y' c^-1)
        least = min(images)
        out.append(least)
        cands = [c for c, y in zip(cands, images) if y == least]
        j += 1
    if j < len(ids):
        pc, ci = cands[0]
        pg, gi = tr(ti, pc) + pad, tr(ci, pt + pad)  # g = c t^-1 and g^-1 = t c^-1
        out += [tr(tr(gi, elements[y] + pad), pg) for y in ids[j:]]  # g (y g^-1)
    return (*map(elements.__getitem__, ids[:k]), *out) if k else tuple(out)


class CosetTable(Record):
    """Cosets as ``cells`` of sorted ids, ordered by least stored element;
    ``index_of[g]`` is g's coset."""

    __slots__ = ("cells", "index_of")

    def __len__(self) -> int:
        return len(self.cells)


def left_cosets(group: PermGroup, sub: Subgroup) -> CosetTable:
    """Cosets gH, in order of their least stored element.  The first id g
    not yet in a coset gives its own, one C-level ``map`` of the stored
    products g h over H's members, and the least of these keys it; then the
    [G : H] keys are sorted, not the |G| elements."""
    elements, lookup, tr, pad = group.elements, group.index.__getitem__, group._tr, group._pad
    hs, index_of, cells, least = [elements[h] for h in sub.members], [-1] * group.order, [], []
    for g in range(group.order):
        if index_of[g] < 0:
            coset = list(map(tr, hs, repeat(elements[g] + pad)))
            cell = tuple(sorted(map(lookup, coset)))
            for x in cell:
                index_of[x] = len(cells)
            cells.append(cell)
            least.append(min(coset))
    ranked = sorted(range(len(cells)), key=least.__getitem__)
    rank = [0] * len(cells)
    for new, old in enumerate(ranked):
        rank[old] = new
    return CosetTable(tuple(map(cells.__getitem__, ranked)), tuple(map(rank.__getitem__, index_of)))


def inverting_involutions(group: PermGroup, m: int) -> list[int]:
    """The s with ``is_inverting_involution(group, m, s)``, in stored-element order.

    A central m is inverted only if m^2 = e, and then by every involution
    but m, read off the class table.  Otherwise, with r the least element of
    m's class, s m s^-1 = m^-1 exactly when t_{m^-1}^-1 s t_m centralizes r, so
    the elements inverting m are t_{m^-1} C_G(r) t_m^-1, read off m's class
    record with two stored products per centralizer pair; there are none
    when m^-1 is not conjugate to m.  They invert m by construction, so
    only s^2 = e and s not in {e, m} are tested.  m is central exactly when
    it has no record.
    """
    rec = group.class_record(m)
    if rec is None:
        classes = group.conjugacy_classes() if group.mul(m, m) == 0 else ()
        return sorted((s for c in classes if group.element_order(c[0]) == 2 for s in c if s != m),
                      key=group.elements.__getitem__)
    mi = group.inv(m)
    if mi not in rec.conjugators:
        return []
    elements, index, tr, pad = group.elements, group.index, group._tr, group._pad
    left = elements[rec.conjugators[mi]] + pad
    right = elements[group.inv(rec.conjugators[m])]
    e, pm = elements[0], elements[m]
    coset = (tr(tr(right, pc), left) for pc, _ in rec.pairs)
    return [index[s] for s in sorted(s for s in coset
                                     if s != e and s != pm and tr(s, s + pad) == e)]


def is_inverting_involution(group: PermGroup, m: int, s: int) -> bool:
    """True iff s and s m are involutions: the dihedral point (m, s) smooths
    into the two branch points s and s m of order 2.

    That is s^2 = e, s m s^-1 = m^-1 and s outside <m>: given s^2 = e,
    (s m)^2 = e says s m s = m^-1, and s = m is the one s with s m = e.  (An
    s in <m> commutes with m, so m = m^-1 and <m> lies in {e, m}.)  The last
    clause rejects the degenerate case where the branch pairing above a
    dihedral point would fix every coset and form no node.
    """
    return group.is_involution(s) and group.is_involution(group.mul(s, m))


# -- class functions -------------------------------------------------------


def inner(group: PermGroup, chi: Sequence[int], psi: Sequence[int]) -> Fraction:
    """<chi, psi> = (1/|G|) sum chi(g) psi(g^-1) of two class functions of
    ``group``; an exact rational, a ``Fraction``, whose module is imported on
    first use to keep it out of the package's import."""
    from fractions import Fraction

    classes = group.conjugacy_classes()
    if not len(chi) == len(psi) == len(classes):
        raise ValueError(f"{len(chi)} and {len(psi)} values on {len(classes)} classes")
    total = sum(len(c) * a * psi[group.class_of(group.inv(c[0]))] for c, a in zip(classes, chi))
    return Fraction(total, group.order)


def induced_character(group: PermGroup, sub: Subgroup) -> tuple[int, ...]:
    """Ind_H 1, the Frobenius induction up to ``group`` of the trivial
    character of H = ``sub``: the permutation character of G on G/H.

    Ind(1)(g) = |G| #{h in H meeting the class of g} / (|cl g| |H|): one
    pass over H, bucketed by class; values come out integral.
    """
    counts, class_of = [0] * len(group.conjugacy_classes()), group._class_table()
    for h in sub.members:
        counts[class_of[h]] += 1
    return _induced(group, counts, sub.order)


def induced_sign(group: PermGroup, m: int, s: int) -> tuple[int, ...]:
    """Ind_E sgn for E = <m, s>, s = e (E = <m>, sgn trivial) or an involution
    inverting m outside <m> (sgn = -1 on s<m>), with no closure: Ind(c) =
    |G| (#{m^k in c} - #{s m^k in c}) / (|c| |E|), |E| = ord m or 2 ord m."""
    counts, class_of = [0] * len(group.conjugacy_classes()), group._class_table()
    order, x = group.element_order(m), 0
    for _ in range(order):
        counts[class_of[x]] += 1
        if s != 0:
            counts[class_of[group.mul(s, x)]] -= 1
        x = group.mul(x, m)
    return _induced(group, counts, order if s == 0 else 2 * order)


def _induced(group: PermGroup, sums: list[int], sub_order: int) -> tuple[int, ...]:
    """The induced values |G| sums[c] / (|c| |H|), which must be integers."""
    vals = []
    for total, c in zip(sums, group.conjugacy_classes()):
        q, r = divmod(group.order * total, len(c) * sub_order)
        assert r == 0, "induced value not integral"
        vals.append(q)
    return tuple(vals)
