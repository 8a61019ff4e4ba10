from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from hurwitzdegen import (PermGroup, Subgroup, compose, dual_graph_of_groups, induced_character,
                          inner, inverse, inverting_involutions, is_inverting_involution,
                          least_conjugate, left_cosets, perm_from_cycles)
from hurwitzdegen import audit, groups
from hurwitzdegen.errors import ClosureBoundExceeded, DegreeMismatch
from hurwitzdegen.groups import as_perm

from conftest import (all_subgroups, centralizer_by_scan, closure_by_bfs, conj, disjoint_union,
                      generator_ids, induced_by_kernel, inverting_pairs, least_member, normalizer,
                      orbits, random_valid_datum, sign_characters, small_generating_set,
                      stored_order)


def test_composition_convention():
    # (p . q)(i) = p(q(i))
    p = as_perm([1, 2, 0])
    q = as_perm([0, 2, 1])
    assert compose(p, q) == (1, 0, 2)
    assert compose(p, inverse(p)) == tuple(range(3))


def test_as_perm_rejects_non_bijections():
    with pytest.raises(ValueError):
        as_perm([0, 0, 1])
    with pytest.raises(ValueError):
        as_perm([0, 2])
    # images are read as integers, never truncated from floats or parsed from strings
    with pytest.raises(TypeError):
        as_perm([0, 2.9, 1.2])
    with pytest.raises(TypeError):
        as_perm(["1", "0"])
    with pytest.raises(TypeError):
        PermGroup([[1.5, 0.2, 2]])


def test_trivial_group_from_empty_generators():
    G = PermGroup([], degree=1)
    assert G.order == 1
    assert G.conjugacy_classes() == ((0,),)


def test_a5_closure(a5):
    assert a5.order == 60
    assert a5.perm(0) == tuple(range(5))
    assert a5.index == dict(zip(a5.elements, range(60)))  # ids are positions, each element once
    assert math.factorial(a5.degree) % a5.order == 0
    assert all(a5.order % a5.element_order(g) == 0 for g in range(a5.order))


def test_psl27_closure(psl27):
    # generators are z -> z+1 and z -> -1/z on the projective line over F7
    assert psl27.degree == 8
    assert psl27.order == 168


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        PermGroup([[1, 0], [1, 2, 0]])
    with pytest.raises(DegreeMismatch, match="explicit degree"):
        PermGroup([])  # no generator to read the degree from


def test_closure_bound():
    gens = [perm_from_cycles(5, (0, 1, 2, 3, 4)), perm_from_cycles(5, (0, 1, 2))]
    with pytest.raises(ClosureBoundExceeded):
        PermGroup(gens, max_order=10)
    # the bound counts elements: |A5| = 60 fits 60 and not 59
    assert PermGroup(gens, max_order=60).order == 60
    with pytest.raises(ClosureBoundExceeded):
        PermGroup(gens, max_order=59)


def test_closure_bound_stops_the_power_walk():
    # a cyclic group: the bound counts its powers, |C11| = 11 fits 11 and not 10
    c11 = _cyclic(11)
    assert PermGroup([c11], max_order=11).order == 11
    with pytest.raises(ClosureBoundExceeded):
        PermGroup([c11], max_order=10)
    # cycles of the first nine primes on 100 points: order 223,092,870, so
    # only a walk of the powers that stops past the bound returns (a walk
    # without it runs for minutes, past the CI job's time limit)
    start, cycles = 0, []
    for length in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        cycles.append(tuple(range(start, start + length)))
        start += length
    with pytest.raises(ClosureBoundExceeded):
        PermGroup([perm_from_cycles(100, *cycles)], max_order=1000)


def test_closure_budget_on_tuples():
    # above degree 256 the stored images may take 256 max_order bytes, 8 an
    # image: at max_order 3200 that is 320 elements on 320 points, so C320
    # (cycles of 64 and 5) fits and C321 (cycles of 3 and 107) does not
    c320 = perm_from_cycles(320, tuple(range(64)), tuple(range(64, 69)))
    c321 = perm_from_cycles(320, tuple(range(3)), tuple(range(3, 110)))
    assert PermGroup([c320], max_order=3200).order == 320
    with pytest.raises(ClosureBoundExceeded) as exc:
        PermGroup([c321], max_order=3200)
    assert str(exc.value) == ("closure exceeded 819200 bytes of stored images "
                              "(320 elements at degree 320)")
    # the budget counts stored elements past the powers of the first generator too
    with pytest.raises(ClosureBoundExceeded, match="819200 bytes"):
        PermGroup([c320, perm_from_cycles(320, (0, 1))], max_order=3200)
    # on bytes, max_order alone bounds them: C256 at max_order 256 is 65,536 bytes
    assert PermGroup([_cyclic(256)], max_order=256).order == 256


def test_generated_subgroup_of_an_element_above_half_order():
    # by Lagrange an element of order above |G|/2 generates G
    G = PermGroup([_cyclic(12)])
    g = generator_ids(G)[0]
    g5 = G.product([g] * 5)
    assert G.generated_subgroup([g]) == G.full_subgroup()
    assert G.generated_subgroup([g5]) == G.full_subgroup()
    square = G.generated_subgroup([G.mul(g, g)])  # order 6 = |G|/2: a proper subgroup
    assert square.order == 6 and frozenset(square.members) == closure_by_bfs(G, [G.mul(g, g)])


@pytest.mark.parametrize("gens,degree", [([], 0), ([()], 0), ([], 1), ([(0,)], 1),
                                         ([(0, 1, 2)], 3)])
def test_trivial_groups_of_low_degree(gens, degree):
    # translate and the table helpers handle lengths 0 and 1
    G = PermGroup(gens, degree=degree)
    assert G.order == 1
    assert G.conjugacy_classes() == ((0,),)
    table = left_cosets(G, G.full_subgroup())
    assert table.cells == ((0,),) and table.index_of == (0,)


@pytest.mark.parametrize("fixture", ["s4", "a5", "psl27"])
def test_arithmetic_against_tuple_compose(fixture, request):
    # every pair: the stored products agree with the public tuple arithmetic
    G = request.getfixturevalue(fixture)
    perms = [G.perm(i) for i in range(G.order)]
    assert all(type(p) is tuple for p in perms)
    assert [G.id_of(p) for p in perms] == list(range(G.order))
    for i, p in enumerate(perms):
        assert perms[G.inv(i)] == inverse(p)
        for j, q in enumerate(perms):
            assert perms[G.mul(i, j)] == compose(p, q)
            assert perms[conj(G, i, j)] == compose(compose(p, q), inverse(p))


def _cyclic(degree: int, step: int = 1) -> tuple[int, ...]:
    return tuple((x + step) % degree for x in range(degree))


def _tuple_closure(gens: list[tuple[int, ...]], degree: int) -> list[tuple[int, ...]]:
    """The sorted elements of <gens>, closed by tuple products alone."""
    points = [tuple(range(degree))]
    seen = set(points)
    for x in points:  # grows while it is walked
        for g in gens:
            y = compose(x, g)
            if y not in seen:
                seen.add(y)
                points.append(y)
    return sorted(points)


def _transpositions(count: int) -> list[tuple[int, ...]]:
    """(0 1), (2 3), ...: ``count`` disjoint transpositions on 2 ``count`` points,
    generating an elementary abelian group of order 2^count."""
    return [perm_from_cycles(2 * count, (2 * i, 2 * i + 1)) for i in range(count)]


def _psl2_generators(p: int) -> list[list[int]]:
    """z -> z+1 and z -> -1/z on the projective line over F_p, point p
    playing infinity: the audit's formula for p = 7."""
    return [[(z + 1) % p for z in range(p)] + [p],
            [p] + [-pow(z, p - 2, p) % p for z in range(1, p)] + [0]]


def _widened(gens: list, degree: int) -> list[tuple[int, ...]]:
    """``gens`` with fixed points added up to ``degree``: the same group, stored as tuples."""
    return [tuple(g) + tuple(range(len(g), degree)) for g in gens]


_S5 = [_cyclic(5), perm_from_cycles(5, (0, 1))]


@pytest.mark.parametrize("gens,degree,order", [
    (_transpositions(8), 16, 256), (_transpositions(9), 18, 512),  # 2^8, 2^9: h = 2
    ([_cyclic(6), perm_from_cycles(6, (0, 1))], 6, 720),            # S6
    ([], 0, 1), ([()], 0, 1), ([], 1, 1), ([(0,)], 1, 1),           # degrees 0, 1
    ([_cyclic(256), tuple(-x % 256 for x in range(256))], 256, 512),  # D256: two cosets
    ([_cyclic(181)], 181, 181), ([_cyclic(182)], 182, 182),         # G = <a>: no coset walk
    (_psl2_generators(19), 20, 3420),                               # PSL(2,19): 180 cosets
    ([tuple(range(5)), *_S5], 5, 120),                             # h = 1
    ([_S5[1], _S5[0]], 5, 120),                                     # h = 2
    ([_cyclic(6), perm_from_cycles(6, (0, 1)), perm_from_cycles(6, (2, 3, 4))], 6, 720),
    ([*_S5, _S5[0], _S5[1]], 5, 120),                               # repeated generators
    ([_cyclic(257)], 257, 257),                                     # tuples from here on
    ([_cyclic(300), tuple(-x % 300 for x in range(300))], 300, 600),
    (_widened(_psl2_generators(19), 300), 300, 3420),
], ids=["2^8", "2^9", "s6", "deg0", "deg0_gen", "deg1", "deg1_gen", "d256", "c181", "c182",
        "psl2_19", "first_identity", "first_involution", "three_gens", "repeated_gens", "c257",
        "d300", "psl2_19_wide"])
def test_conjugation_tables_at_block_edges(gens, degree, order):
    # each table, read off the closure's coset moves column by column of
    # the blocks (the cosets of <gens[0]>, at whose edges x -> x gens[0]
    # wraps), against the products g x g^-1 taken one element at a time in
    # tuple arithmetic; then the inverses that building the classes fills in
    G = PermGroup(gens, degree=degree)
    assert G.order == order and type(G.elements[0]) is (bytes if degree <= 256 else tuple)
    perms = [G.perm(x) for x in range(G.order)]
    tables = G._conjugation_tables()
    assert len(tables) == len(gens)
    for g, table in zip(generator_ids(G), tables):
        p, q = perms[g], inverse(perms[g])
        assert table == [G.id_of(compose(compose(p, x), q)) for x in perms]
    G = PermGroup(gens, degree=degree)
    G.conjugacy_classes()
    assert G._inv == [G.id_of(inverse(x)) for x in perms]


class _CountingDict(dict):
    """A dict that counts its lookups, by key or by membership."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)


@pytest.mark.parametrize("gens,classes", [
    (_psl2_generators(19), 12),
    ([perm_from_cycles(11, tuple(range(11))), perm_from_cycles(11, (2, 6, 10, 7), (3, 9, 4, 5))],
     10),
], ids=["psl2_19", "m11"])
def test_classes_look_up_one_element_per_coset(gens, classes):
    # the tables are read off the closure's coset moves: the only elements
    # looked up are the inverses of the coset representatives
    G = PermGroup(gens)
    G.index = _CountingDict(G.index)
    assert len(G.conjugacy_classes()) == classes
    assert 0 < G.index.lookups <= G.order // G.element_order(generator_ids(G)[0])


@pytest.mark.parametrize("degree", [5, 257], ids=["bytes", "tuples"])
@pytest.mark.parametrize("first", ["identity", "involution"])
def test_closure_by_cosets_of_a_short_first_generator(first, degree):
    # S5 closed by left cosets y H of H = <gens[0]>, of order 1 or 2: on
    # bytes each is one translate of H's joined elements, on tuples a map
    cycle, swap = perm_from_cycles(degree, (0, 1, 2, 3, 4)), perm_from_cycles(degree, (0, 1))
    gens = [tuple(range(degree)), cycle, swap] if first == "identity" else [swap, cycle]
    G = PermGroup(gens, degree=degree)
    assert type(G.elements[0]) is (bytes if degree <= 256 else tuple)
    assert sorted(map(G.perm, range(G.order))) == _tuple_closure(gens, degree)
    assert G.index == dict(zip(G.elements, range(G.order)))
    assert G.perm(0) == tuple(range(degree)) and G.order == 120
    if first == "involution":  # each coset y H is stored as y, y s, the first new one at 2
        assert G.perm(1) == swap and G.perm(2) == cycle
        assert all(G.perm(y + 1) == compose(G.perm(y), swap) for y in range(0, 120, 2))
    ids = [G.id_of(g) for g in gens]
    assert G.generated_subgroup(ids) == G.full_subgroup()
    s3 = [G.id_of(swap), G.id_of(perm_from_cycles(degree, (0, 1, 2)))]
    assert G.generated_subgroup(s3).members == tuple(sorted(closure_by_bfs(G, s3)))


FLIP300 = tuple(-x % 300 for x in range(300))


@pytest.mark.parametrize("gens,degree,subgroups", [
    ([_cyclic(256)], 256, [[_cyclic(256, 64)], [_cyclic(256, 2)]]),   # C256: bytes
    ([_cyclic(257)], 257, [[], [_cyclic(257)]]),                       # C257: tuples
    ([_cyclic(300), FLIP300], 300,                                     # D300 on 300 points
     [[_cyclic(300)], [FLIP300], [_cyclic(300, 100)], [FLIP300, _cyclic(300, 60)]]),
    ([perm_from_cycles(257, (0, 1, 2, 3, 4)), perm_from_cycles(257, (0, 1))], 257,
     [[perm_from_cycles(257, (0, 1, 2, 3)), perm_from_cycles(257, (0, 1))],  # S4: <a> not normal
      [perm_from_cycles(257, (0, 1)), perm_from_cycles(257, (1, 2, 3, 4))]]),  # all of S5
], ids=["c256", "c257", "d300", "s5_on_257"])
def test_storage_switch_against_tuple_closure(gens, degree, subgroups):
    G = PermGroup(gens, degree=degree)
    assert type(G.elements[0]) is (bytes if degree <= 256 else tuple)
    elements = _tuple_closure(gens, degree)  # sorted: x below is a place in stored order
    index = {g: i for i, g in enumerate(elements)}
    n = len(elements)
    to_id = [G.id_of(g) for g in elements]
    assert G.order == n and sorted(to_id) == list(range(n))
    assert [G.perm(i) for i in to_id] == elements
    assert generator_ids(G) == [to_id[index[g]] for g in gens]
    assert [G.inv(i) for i in to_id] == [to_id[index[inverse(g)]] for g in elements]

    def ids(xs) -> tuple[int, ...]:
        return tuple(sorted(map(to_id.__getitem__, xs)))

    def times(x: int, h: int) -> int:
        return index[compose(elements[x], elements[h])]

    def order(x: int) -> int:  # the lcm of the cycle lengths
        p, lengths, seen = elements[x], set(), set()
        for start in range(degree):
            if start not in seen:
                k, y = 1, p[start]
                while y != start:
                    seen.add(y)
                    k, y = k + 1, p[y]
                lengths.add(k)
        return math.lcm(*lengths)

    # classes: conjugation orbits under the generators, by (order, least element)
    label: dict[int, int] = {}
    classes = []
    for start in range(n):
        if start not in label:
            cell = [start]
            label[start] = start
            for x in cell:  # grows while it is walked
                for g in gens:
                    y = index[compose(compose(g, elements[x]), inverse(g))]
                    if y not in label:
                        label[y] = start
                        cell.append(y)
            classes.append(tuple(sorted(cell)))
    classes.sort(key=lambda c: (order(c[0]), c[0]))
    assert all(c[0] == min(c) for c in G.conjugacy_classes())
    assert list(map(set, G.conjugacy_classes())) == [set(ids(c)) for c in classes]

    for sub_gens in subgroups:
        H = G.generated_subgroup([G.id_of(h) for h in sub_gens])
        members = sorted(index[h] for h in _tuple_closure(sub_gens, degree))
        assert H.members == ids(members)
        cells, covered = [], set()
        for x in range(n):
            if x not in covered:
                cells.append([times(x, h) for h in members])
                covered.update(cells[-1])
        assert left_cosets(G, H).cells == tuple(map(ids, cells))

    sample = sorted({0, 1, n // 3, n // 2, n - 1, *(index[g] for g in gens)})
    for h in sample:
        for x in sample:
            assert G.mul(to_id[x], to_id[h]) == to_id[times(x, h)]
            g = elements[h]
            assert conj(G, to_id[h], to_id[x]) == \
                to_id[index[compose(compose(g, elements[x]), inverse(g))]]


def test_closure_against_orbit_closure_in_small_symmetric_groups():
    # the coset-by-coset closure against the plain orbit closure, and every
    # inverse (generated subgroups are checked against closure_by_bfs in
    # test_generated_subgroup_against_plain_closure)
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hypothesis.given(data=st.data(), degree=st.integers(3, 7))
    def check(data, degree):
        gens = data.draw(st.lists(st.permutations(range(degree)), max_size=3))
        if gens and data.draw(st.booleans()):
            gens.append(gens[0])  # a duplicate generator
        if data.draw(st.booleans()):
            gens.insert(data.draw(st.integers(0, len(gens))), tuple(range(degree)))
        G = PermGroup(gens, degree=degree)
        assert sorted(G.perm(i) for i in range(G.order)) == \
            sorted(orbits([tuple(range(degree))], G.generators, compose)[0])
        assert G.index == dict(zip(G.elements, range(G.order)))
        assert [G.inv(i) for i in reversed(range(G.order))] == \
            [G.id_of(inverse(G.perm(i))) for i in reversed(range(G.order))]

    check()


@pytest.mark.parametrize("degree", [5, 256, 257, 300])
def test_id_of_rejects_other_degrees(degree):
    # a permutation of another degree, images >= 256 included, is no element;
    # nor is an image array of the same degree with a repeated, negative or
    # out-of-range image
    G = PermGroup([_cyclic(degree)], degree=degree)
    rest = list(range(2, degree))
    others = [list(_cyclic(other)) for other in {degree - 1, degree + 1,
                                                 300 if degree != 300 else 257}]
    others += [[0, 0] + rest, [1, -1] + rest, [-1, -2] + rest, [degree, 1] + rest]
    for p in others:
        with pytest.raises(KeyError) as exc:
            G.id_of(p)
        assert exc.value.args == (f"permutation {p!r} is not an element of this group",)


@pytest.mark.parametrize("fixture", ["s4", "a5", "psl27", "s4_on_257"])
def test_left_cosets_against_products(fixture, request):
    # every subgroup: each cell is the sorted set {g h : h in H}, and the
    # cells come in order of their least elements
    G = request.getfixturevalue(fixture)
    for H in all_subgroups(G):
        cells, covered = [], set()
        for g in stored_order(G):
            if g not in covered:
                cells.append(tuple(sorted({G.mul(g, h) for h in H.members})))
                covered.update(cells[-1])
        table = left_cosets(G, H)
        assert table.cells == tuple(cells) and len(table) * H.order == G.order
        label = {x: idx for idx, cell in enumerate(cells) for x in cell}
        assert table.index_of == tuple(label[x] for x in range(G.order))
        least = [G.elements[least_member(G, c)] for c in cells]
        assert least == sorted(least)


def test_element_orders(a5):
    assert a5.element_order(a5.identity) == 1
    assert a5.element_order(a5.id_of(perm_from_cycles(5, (0, 1, 2, 3, 4)))) == 5
    assert a5.element_order(a5.id_of(perm_from_cycles(5, (1, 4), (2, 3)))) == 2


@pytest.mark.parametrize("fixture", ["s4", "a5", "psl27", "c300"])
def test_element_order_against_powers(fixture, request):
    # the order read off the cycle lengths is the least k with x^k = e
    G = (PermGroup([_cyclic(300)]) if fixture == "c300"  # tuple storage
         else PermGroup(request.getfixturevalue(fixture).generators))
    for x in range(G.order):
        k, acc = 1, x
        while acc != 0:
            k, acc = k + 1, G.mul(acc, x)
        assert G.element_order(x) == k


@pytest.mark.parametrize("fixture", ["s4", "a5"])
def test_conj_is_product_by_inverse(fixture, request):
    G = request.getfixturevalue(fixture)
    for g in range(G.order):
        for x in range(G.order):
            assert conj(G, g, x) == G.mul(G.mul(g, x), G.inv(g))


@pytest.mark.parametrize("fixture", ["s3", "d4", "s4", "d5", "a5", "s5", "psl27"])
def test_generated_subgroup_against_plain_closure(fixture, request):
    G = request.getfixturevalue(fixture)

    def check(ids: list[int]) -> None:
        assert G.generated_subgroup(ids).members == tuple(sorted(closure_by_bfs(G, ids)))

    assert G.generated_subgroup([]).members == G.generated_subgroup([0]).members == (0,)
    for H in all_subgroups(G):
        gens = small_generating_set(G, H)
        assert closure_by_bfs(G, gens) == frozenset(H.members) and 2 ** len(gens) <= H.order
        check(gens)
        check([0] + gens + gens[::-1])    # the identity and duplicate ids
    if G.order <= 24:
        for a in range(G.order):
            for b in range(G.order):
                check([a, b])


@pytest.mark.parametrize("fixture,gens", [
    ("s4", [(0, 1, 2), (0, 1, 3)]),       # A4 < S4
    ("d5", [(0, 1, 2, 3, 4)]),            # C5 < D5
    ("s5", [(0, 1, 2), (0, 1, 2, 3, 4)]),  # A5 < S5
])
def test_index_2_closure_is_not_promoted(fixture, gens, request):
    # |H| = |G|/2 exactly: the closure's early stop must not take H for G
    G = request.getfixturevalue(fixture)
    ids = [G.id_of(perm_from_cycles(G.degree, c)) for c in gens]
    H = G.generated_subgroup(ids)
    assert 2 * H.order == G.order
    assert frozenset(H.members) == closure_by_bfs(G, ids)


def test_a5_class_sizes(a5):
    classes = a5.conjugacy_classes()
    assert [(a5.element_order(c[0]), len(c)) for c in classes] == \
        [(1, 1), (2, 15), (3, 20), (5, 12), (5, 12)]


def test_psl27_classes_order7_not_real(psl27):
    classes = psl27.conjugacy_classes()
    assert [(psl27.element_order(c[0]), len(c)) for c in classes] == \
        [(1, 1), (2, 21), (3, 56), (4, 42), (7, 24), (7, 24)]
    for c in classes:
        if psl27.element_order(c[0]) == 7:
            # g and g^-1 land in different classes
            assert psl27.inv(c[0]) not in set(c)


@pytest.mark.parametrize("fixture", ["s3", "s4", "d4", "d5", "a5", "s5", "psl27"])
def test_class_sizes_partition_group(fixture, request):
    G = request.getfixturevalue(fixture)
    classes = G.conjugacy_classes()
    assert sorted(x for c in classes for x in c) == list(range(G.order))
    for c in classes:
        assert G.order % len(c) == 0
        # oracle: the class as conjugates of its first member by all of G
        assert set(c) == {conj(G, g, c[0]) for g in range(G.order)}
    # and as orbits of plain conj under the generators, in the same order; a
    # class lists its ids in walk order, the least id first
    assert all(c[0] == min(c) for c in classes)
    plain = orbits(range(G.order), generator_ids(G), lambda x, g: conj(G, g, x))
    plain.sort(key=lambda c: (G.element_order(c[0]), G.elements[least_member(G, c)]))
    assert list(map(set, classes)) == list(map(set, plain))


def psl2(p: int) -> PermGroup:
    """PSL(2, p) on the projective line over F_p, point p playing infinity."""
    return PermGroup(_psl2_generators(p))


@pytest.mark.parametrize("p,order", [(None, 60), (7, 168), (11, 660), (19, 3420)],
                         ids=["a5", "psl2_7", "psl2_11", "psl2_19"])
def test_classes_against_sympy(p, order):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    G = audit.a5_group() if p is None else psl2(p)
    S = combinatorics.PermutationGroup([combinatorics.Permutation(list(g))
                                        for g in G.generators])
    assert G.order == S.order() == order
    for c in G.conjugacy_classes():
        rep = combinatorics.Permutation(list(G.perm(c[0])))
        assert {G.perm(x) for x in c} == {tuple(x.array_form) for x in S.conjugacy_class(rep)}
        if order < 3420:
            assert S.centralizer(rep).order() == G.order // len(c)


def a5_image(G: PermGroup) -> tuple[int, Subgroup]:
    """The first order-5 m and an A5 = <m, g1> with ord(g1) = 2 and
    ord(m g1) = 3: the ladder's A5-image component group H_Y."""
    m = next(x for x in range(G.order) if G.element_order(x) == 5)
    for g1 in range(G.order):
        if G.element_order(g1) == 2 and G.element_order(G.mul(m, g1)) == 3:
            H = G.generated_subgroup([m, g1])
            if H.order == 60:
                return m, H
    raise AssertionError("no A5 image")


@pytest.mark.parametrize("p", [11, 19])
def test_coset_counts_against_sympy(p):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    G = psl2(p)
    S = combinatorics.PermutationGroup([combinatorics.Permutation(list(g))
                                        for g in G.generators])
    m, H_Y = a5_image(G)
    for H in (G.cyclic_subgroup(m), H_Y):
        S_H = combinatorics.PermutationGroup([combinatorics.Permutation(list(G.perm(h)))
                                              for h in small_generating_set(G, H)])
        assert S_H.order() == H.order
        assert len(left_cosets(G, H)) == len(S.coset_transversal(S_H)) == G.order // H.order
        if G.order <= 660:  # subgroup_search is quick at this size
            N = S.subgroup_search(lambda g: all(S_H.contains(g * h * ~g)
                                                for h in S_H.generators))
            assert normalizer(G, H).order == N.order()


CLASS_RECORD_GROUPS = ["s3", "d4", "s4", "d5", "a5", "s5", "psl27", "psl2_11", "s4_on_257",
                       "c2_a5"]


def class_record_group(name: str, request) -> PermGroup:
    """A fresh group, so its class records are built by the test that uses it."""
    if name == "psl2_11":
        return psl2(11)
    if name == "s6":
        return PermGroup([perm_from_cycles(6, tuple(range(6))), perm_from_cycles(6, (0, 1))])
    if name == "c4":
        return PermGroup([perm_from_cycles(4, (0, 1, 2, 3))])
    G = request.getfixturevalue(name)
    return PermGroup(G.generators, degree=G.degree)


@pytest.mark.parametrize("fixture", CLASS_RECORD_GROUPS + ["s6"])  # S6: |C_G((0 1))| = 48
def test_class_records_against_scans(fixture, request):
    G = class_record_group(fixture, request)
    for x in reversed(stored_order(G)):  # walks then start at a class's largest element
        rec = G.class_record(x)
        c = G.conjugacy_classes()[G.class_of(x)]
        if len(c) == 1:  # central: no record
            assert rec is None
            continue
        assert rec.rep == least_member(G, c)
        assert c[0] == min(c) and sorted(rec.conjugators) == sorted(c)
        assert rec is G.class_record(rec.rep)  # one record per class
        for y, t in rec.conjugators.items():
            assert conj(G, t, rec.rep) == y
        # C_G(x) = t_x C_G(r) t_x^-1: |G| / |class| distinct elements commuting with x
        t = rec.conjugators[x]
        centralizer = sorted(G.inv(G.index[ci]) for _, ci in rec.pairs)  # C_G(r)
        cent = sorted(conj(G, t, h) for h in centralizer)
        if x == rec.rep:
            cyclic = G.cyclic_subgroup(x)
            assert tuple(centralizer) == centralizer_by_scan(G, cyclic).members
            assert cent == centralizer
        assert len(set(cent)) == len(cent) == G.order // len(c)
        assert all(G.mul(g, x) == G.mul(x, g) for g in cent)


@pytest.mark.parametrize("fixture", ["s6", "psl27"])
def test_class_records_close_no_subgroup(fixture, request, monkeypatch):
    # each record grows one closure of its centralizer from Schreier generators
    G = class_record_group(fixture, request)

    def refuse(*args):
        raise AssertionError("a class record closed a subgroup")

    monkeypatch.setattr(PermGroup, "generated_subgroup", refuse)
    records = [G.class_record(c[0]) for c in G.conjugacy_classes()]
    assert sum(len(rec.pairs) * len(rec.conjugators) for rec in records if rec) == \
        G.order * sum(1 for rec in records if rec)


@pytest.mark.parametrize("fixture", CLASS_RECORD_GROUPS)
def test_inverting_involutions_against_scan(fixture, request, monkeypatch):
    G = class_record_group(fixture, request)
    scans = {m: [s for s in stored_order(G) if is_inverting_involution(G, m, s)]
             for m in range(G.order)}
    for m, scan in scans.items():
        assert inverting_involutions(G, m) == scan
    # a central class gets no record
    centre = {c[0] for c in G.conjugacy_classes() if len(c) == 1}
    assert not centre & set(G._records)
    # again with every other record cached: only the central m are tested for centrality
    tested, is_central = [], groups._is_central
    monkeypatch.setattr(groups, "_is_central",
                        lambda group, x: tested.append(x) or is_central(group, x))
    for m, scan in scans.items():
        assert inverting_involutions(G, m) == scan
    assert set(tested) == centre and not centre & set(G._records)


@pytest.mark.parametrize("fixture", ["c4", "d4", "c2_a5"])
def test_inverting_involutions_of_a_central_m_build_no_record(fixture, request, monkeypatch):
    G = class_record_group(fixture, request)
    centre = [z for z in range(G.order) if all(G.mul(z, g) == G.mul(g, z) for g in range(G.order))]
    scans = {z: [s for s in stored_order(G) if is_inverting_involution(G, z, s)] for z in centre}
    # C4's centre is all of it, D4's {e, r^2}, C2 x A5's {e, (5 6)}
    assert len(centre) == (4 if fixture == "c4" else 2)
    calls = []
    monkeypatch.setattr(groups, "_class_record", lambda *args: calls.append(args))
    monkeypatch.setattr(groups, "is_inverting_involution", lambda *args: calls.append(args))
    for z, scan in scans.items():
        assert inverting_involutions(G, z) == scan
    assert calls == [] and G._records == {}
    # in C4, r^2 is the one involution: it inverts e alone, not r^+-1 (m^2 != e) nor itself
    assert fixture != "c4" or {z: scan for z, scan in scans.items() if scan} == {0: [2]}


@pytest.mark.parametrize("fixture", ["s3", "d4", "a5", "c2_a5", "s4_on_257"])
def test_least_conjugate_returns_stored_elements(fixture, request):
    G = class_record_group(fixture, request)
    rng = random.Random(G.order)
    centre = [z for z in range(G.order) if all(G.mul(z, g) == G.mul(g, z) for g in range(G.order))]
    draws = [[rng.randrange(G.order) for _ in range(rng.randrange(1, 5))] for _ in range(16)]
    draws += [[z, rng.randrange(G.order)] for z in centre] + [centre]
    for ids in draws:
        key = least_conjugate(G, ids)
        assert key == min(tuple(G.elements[conj(G, g, x)] for x in ids) for g in range(G.order))
        # the stored elements themselves, bytes up to degree 256 and tuples above
        assert all(type(p) is type(G.elements[0]) and G.elements[G.index[p]] == p for p in key)


def test_normalizer_of_c5_in_a5(a5):
    C5 = a5.cyclic_subgroup(a5.id_of(perm_from_cycles(5, (0, 1, 2, 3, 4))))
    assert normalizer(a5, C5).order == 10
    assert centralizer_by_scan(a5, C5).members == C5.members


def test_normalizer_of_group_is_group(a5):
    assert normalizer(a5, a5.full_subgroup()).order == a5.order


def test_psl27_sylow7_normalizer_has_order_21(psl27):
    u = psl27.id_of([1, 2, 3, 4, 5, 6, 0, 7])
    assert psl27.element_order(u) == 7
    assert normalizer(psl27, psl27.cyclic_subgroup(u)).order == 21


@pytest.mark.parametrize("fixture", ["s4", "d5", "a5", "psl27"])
def test_cyclic_normalizer_order_against_scan(fixture, request):
    G = request.getfixturevalue(fixture)
    for m in range(G.order):
        assert audit._cyclic_normalizer_order(G, m) == normalizer(G, G.cyclic_subgroup(m)).order


def test_left_cosets(a5):
    assert len(left_cosets(a5, a5.full_subgroup())) == 1
    C5 = a5.cyclic_subgroup(a5.id_of(perm_from_cycles(5, (0, 1, 2, 3, 4))))
    table = left_cosets(a5, C5)
    assert len(table) == 12
    D10 = normalizer(a5, C5)
    assert len(left_cosets(a5, D10)) == 6
    # cells of size |H| partitioning G, labels in order of the cells' least elements
    seen = set()
    for idx, cell in enumerate(table.cells):
        assert len(cell) == 5
        assert list(cell) == sorted(cell)
        assert all(table.index_of[x] == idx for x in cell)
        seen.update(cell)
    assert seen == set(range(60))
    least = [a5.elements[least_member(a5, c)] for c in table.cells]
    assert least == sorted(least)


def test_induction_from_whole_group_is_identity(a5):
    whole = a5.full_subgroup()
    assert induced_character(a5, whole) == (1,) * len(a5.conjugacy_classes())


def test_induced_signum_from_d10(a5):
    C5 = a5.cyclic_subgroup(a5.id_of(perm_from_cycles(5, (0, 1, 2, 3, 4))))
    D10 = normalizer(a5, C5)
    ind = induced_by_kernel(a5, D10, C5)
    assert ind[0] == 6
    # frozen via an independent signed fixed-coset computation
    assert ind == (6, -2, 0, 1, 1)


def assert_coset_permutation_character(G: PermGroup, H: Subgroup) -> None:
    """Ind_H 1 at each class representative g is the number of cosets xH
    that g fixes, counted on the coset table."""
    table = left_cosets(G, H)
    fixed = [sum(1 for cell in table.cells
                 if table.index_of[G.mul(c[0], cell[0])] == table.index_of[cell[0]])
             for c in G.conjugacy_classes()]
    assert induced_character(G, H) == tuple(fixed), H


def test_induced_trivial_is_coset_permutation_character(a5):
    C5 = a5.cyclic_subgroup(a5.id_of(perm_from_cycles(5, (0, 1, 2, 3, 4))))
    assert_coset_permutation_character(a5, C5)
    assert induced_character(a5, C5) == (12, 0, 0, 2, 2)


@pytest.mark.parametrize("fixture", ["s4", "a5"])
def test_induced_trivial_on_every_subgroup(fixture, request):
    G = request.getfixturevalue(fixture)
    for H in all_subgroups(G):
        assert_coset_permutation_character(G, H)


@pytest.mark.parametrize("fixture,seed", [("s4", 71), ("a5", 72), ("psl27", 73)])
def test_induced_trivial_on_graph_of_groups_subgroups(fixture, seed, request):
    # Ind_{H_Y} 1 and Ind_{K_P} 1 over the vertex and piece groups of random
    # valid data, disjoint unions included, so that K_P ranges over pieces too
    G = request.getfixturevalue(fixture)
    rng, pairs = random.Random(seed), inverting_pairs(G)
    subgroups = {}
    for _ in range(20):
        datum = random_valid_datum(G, rng, pairs)
        if rng.random() < 0.3:
            datum = disjoint_union(datum, random_valid_datum(G, rng, pairs))
        gog = dual_graph_of_groups(datum)
        subgroups.update((H.members, H) for H in (*gog.vertex_groups, *gog.piece_groups))
    assert any(H.order < G.order for H in subgroups.values())
    for H in subgroups.values():
        assert_coset_permutation_character(G, H)


def test_not_a_character(s3):
    t01 = s3.cyclic_subgroup(s3.id_of(perm_from_cycles(3, (0, 1))))
    t12 = s3.cyclic_subgroup(s3.id_of(perm_from_cycles(3, (1, 2))))
    with pytest.raises(ValueError, match="index <= 2"):  # index 3
        induced_by_kernel(s3, s3.full_subgroup(), t01)
    with pytest.raises(ValueError, match="index <= 2"):  # not inside the subgroup
        induced_by_kernel(s3, t01, t12)


def test_mackey_identity(a5):
    C5 = a5.cyclic_subgroup(a5.id_of(perm_from_cycles(5, (0, 1, 2, 3, 4))))
    D10 = normalizer(a5, C5)
    lhs = induced_character(a5, C5)
    rhs = tuple(a + b for a, b in zip(induced_character(a5, D10),
                                      induced_by_kernel(a5, D10, C5), strict=True))
    assert lhs == rhs


def test_is_inverting_involution(a5, psl27):
    m = a5.id_of(perm_from_cycles(5, (0, 1, 2, 3, 4)))
    s = a5.id_of(perm_from_cycles(5, (1, 4), (2, 3)))
    assert is_inverting_involution(a5, m, s)
    assert not is_inverting_involution(a5, m, a5.identity)
    # no involution inverts an order-7 element of the 168-element group
    u = psl27.id_of([1, 2, 3, 4, 5, 6, 0, 7])
    assert all(not is_inverting_involution(psl27, u, s) for s in range(psl27.order))


@pytest.mark.parametrize("fixture", ["s3", "d4", "s4", "d5", "a5", "psl27", "s4_on_257", "c2_a5"])
def test_is_inverting_involution_against_definition(fixture, request):
    # every pair (m, s), checked against the definition with <m> closed
    G = request.getfixturevalue(fixture)
    for m in range(G.order):
        powers = frozenset(G.cyclic_subgroup(m).members)
        for s in range(G.order):
            expected = (G.mul(s, s) == 0 and conj(G, s, m) == G.inv(m)
                        and s not in powers)
            assert is_inverting_involution(G, m, s) == expected, (m, s)


def test_inverting_involution_for_identity_monodromy(s3):
    # for m = e the conditions reduce to s^2 = e, s != e
    involutions = [s for s in range(s3.order) if s3.element_order(s) == 2]
    hits = [s for s in range(s3.order) if is_inverting_involution(s3, s3.identity, s)]
    assert hits == involutions


def test_subgroup_counts(s3, s4):
    assert len(all_subgroups(s3)) == 6
    assert len(all_subgroups(s4)) == 30


@pytest.mark.parametrize("fixture", ["s3", "s4", "d4", "d5"])
def test_frobenius_reciprocity_all_subgroups(fixture, request):
    G = request.getfixturevalue(fixture)
    triv = (1,) * len(G.conjugacy_classes())
    for H in all_subgroups(G):
        for K in sign_characters(G, H):
            ind = induced_by_kernel(G, H, K)
            assert ind[0] == G.order // H.order
            lhs = inner(G, ind, triv)
            rhs = Fraction(sum(1 if h in K.members else -1 for h in H.members), H.order)
            assert lhs == rhs


def test_sign_character_counts(s3, d4):
    # abelianizations: S3 -> C2, D4 -> C2 x C2
    assert len(sign_characters(s3, s3.full_subgroup())) == 2
    assert len(sign_characters(d4, d4.full_subgroup())) == 4
    for K in sign_characters(d4, d4.full_subgroup()):
        chi = [1 if g in K.members else -1 for g in range(d4.order)]
        for a in range(d4.order):
            for b in range(d4.order):
                assert chi[d4.mul(a, b)] == chi[a] * chi[b]


def test_class_function_arithmetic(a5, psl27):
    triv = (1,) * len(a5.conjugacy_classes())
    assert inner(a5, triv, triv) == 1
    assert inner(a5, tuple(2 * v for v in triv), tuple(-v for v in triv)) == -2
    with pytest.raises(ValueError, match="5 and 4 values on 5 classes"):
        inner(a5, triv, triv[1:])
    # psi is read at g^-1: 7a and 7b (classes 4 and 5) are each other's inverses
    chi = (0, 0, 0, 0, 1, 0)
    assert inner(psl27, chi, chi) == 0
    assert inner(psl27, chi, (0, 0, 0, 0, 0, 1)) == Fraction(24, 168)


def test_group_json_round_trip(a5):
    obj = a5.to_jsonable()
    G2 = PermGroup(obj["generators"], degree=obj["degree"])
    assert G2.elements == a5.elements
