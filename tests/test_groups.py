from __future__ import annotations

from fractions import Fraction

import pytest

from hurwitzdegen import (ClassFunction, PermGroup, centralizer, compose, induced_character,
                          inverse, inverting_involutions, is_inverting_involution, left_cosets,
                          normalizer, perm_from_cycles)
from hurwitzdegen import audit
from hurwitzdegen.errors import (ClosureBoundExceeded, DegreeMismatch, NotACharacter)
from hurwitzdegen.groups import as_perm, identity_perm

from conftest import all_subgroups, centralizer_by_scan, closure_by_bfs, sign_characters


def test_composition_convention():
    # (p . q)(i) = p(q(i))
    p = as_perm([1, 2, 0])
    q = as_perm([0, 2, 1])
    assert compose(p, q) == (1, 0, 2)
    assert compose(p, inverse(p)) == identity_perm(3)


def test_as_perm_rejects_non_bijections():
    with pytest.raises(ValueError):
        as_perm([0, 0, 1])
    with pytest.raises(ValueError):
        as_perm([0, 2])


def test_trivial_group_from_empty_generators():
    G = PermGroup([], degree=1)
    assert G.order == 1
    assert G.conjugacy_classes() == ((0,),)


def test_a5_closure(a5):
    assert a5.order == 60
    assert a5.elements[0] == identity_perm(5)
    assert a5.elements == sorted(a5.elements)
    import math
    assert math.factorial(a5.degree) % a5.order == 0
    assert all(a5.order % a5.element_order(g) == 0 for g in range(a5.order))


def test_psl27_closure(psl27):
    # generators are z -> z+1 and z -> -1/z on the projective line over F7
    assert psl27.degree == 8
    assert psl27.order == 168


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        PermGroup([[1, 0], [1, 2, 0]])


def test_closure_bound():
    with pytest.raises(ClosureBoundExceeded):
        PermGroup([perm_from_cycles(5, (0, 1, 2, 3, 4)), perm_from_cycles(5, (0, 1, 2))],
                  max_order=10)


def test_element_orders(a5):
    assert a5.element_order(a5.identity) == 1
    assert a5.element_order(a5.id_of(perm_from_cycles(5, (0, 1, 2, 3, 4)))) == 5
    assert a5.element_order(a5.id_of(perm_from_cycles(5, (1, 4), (2, 3)))) == 2


@pytest.mark.parametrize("fixture", ["s4", "a5"])
def test_conj_is_product_by_inverse(fixture, request):
    G = request.getfixturevalue(fixture)
    for g in range(G.order):
        for x in range(G.order):
            assert G.conj(g, x) == G.mul(G.mul(g, x), G.inv(g))


@pytest.mark.parametrize("fixture", ["d4", "s4"])
def test_subgroup_generators_are_small(fixture, request):
    G = request.getfixturevalue(fixture)
    for H in all_subgroups(G):
        gens = H.generators()
        assert G.generated_subgroup(gens) == H
        assert 2 ** len(gens) <= H.order


@pytest.mark.parametrize("fixture", ["s3", "d4", "s4", "d5", "a5", "s5", "psl27"])
def test_generated_subgroup_against_plain_closure(fixture, request):
    G = request.getfixturevalue(fixture)

    def check(ids: list[int]) -> None:
        assert G.generated_subgroup(ids).members == tuple(sorted(closure_by_bfs(G, ids)))

    assert G.generated_subgroup([]).members == G.generated_subgroup([0]).members == (0,)
    for H in all_subgroups(G):
        gens = H.generators()
        assert closure_by_bfs(G, gens) == H.member_set()
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
    assert H.member_set() == closure_by_bfs(G, ids)


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
        assert set(c) == {G.conj(g, c[0]) for g in range(G.order)}


def psl2(p: int) -> PermGroup:
    """PSL(2, p) on the projective line over F_p, point p playing infinity:
    z -> z+1 and z -> -1/z, the audit's formula for p = 7."""
    return PermGroup([[(z + 1) % p for z in range(p)] + [p],
                      [p] + [-pow(z, p - 2, p) % p for z in range(1, p)] + [0]])


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


CLASS_RECORD_GROUPS = ["s3", "d4", "s4", "d5", "a5", "s5", "psl27", "psl2_11"]


def class_record_group(name: str, request) -> PermGroup:
    """A fresh group, so its class records are built by the test that uses it."""
    if name == "psl2_11":
        return psl2(11)
    G = request.getfixturevalue(name)
    return PermGroup(G.generators, degree=G.degree)


@pytest.mark.parametrize("fixture", CLASS_RECORD_GROUPS)
def test_class_records_against_scans(fixture, request):
    G = class_record_group(fixture, request)
    for x in reversed(range(G.order)):  # walks then start at a class's largest id
        rec = G.class_record(x)
        c = G.conjugacy_classes()[G.class_of(x)]
        assert rec.rep == c[0]
        assert sorted(rec.conjugators) == list(c)
        assert rec is G.class_record(rec.rep)  # one record per class
        for y, t in rec.conjugators.items():
            assert G.conj(t, rec.rep) == y
        if x == rec.rep:
            cyclic = G.cyclic_subgroup(x)
            assert rec.centralizer.members == centralizer_by_scan(G, cyclic).members
            assert centralizer(G, x).members == rec.centralizer.members
        # |C_G(x)| = |G| / |class| distinct elements commuting with x are all of C_G(x)
        cent = centralizer(G, x).members
        assert len(set(cent)) == len(cent) == G.order // len(c)
        assert all(G.mul(g, x) == G.mul(x, g) for g in cent)


@pytest.mark.parametrize("fixture", CLASS_RECORD_GROUPS)
def test_inverting_involutions_against_scan(fixture, request):
    G = class_record_group(fixture, request)
    for m in range(G.order):
        scan = [s for s in range(G.order) if is_inverting_involution(G, m, s)]
        assert inverting_involutions(G, m) == scan


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


def test_left_cosets(a5):
    assert len(left_cosets(a5, a5.full_subgroup())) == 1
    C5 = a5.cyclic_subgroup(a5.id_of(perm_from_cycles(5, (0, 1, 2, 3, 4))))
    table = left_cosets(a5, C5)
    assert len(table) == 12
    D10 = normalizer(a5, C5)
    assert len(left_cosets(a5, D10)) == 6
    # cells of size |H| partitioning G, labels are cell minima in order
    seen = set()
    for idx, cell in enumerate(table.cells):
        assert len(cell) == 5
        assert cell[0] == min(cell)
        assert all(table.index_of[x] == idx for x in cell)
        seen.update(cell)
    assert seen == set(range(60))
    assert [c[0] for c in table.cells] == sorted(c[0] for c in table.cells)


def test_induction_from_whole_group_is_identity(a5):
    whole = a5.full_subgroup()
    assert induced_character(a5, whole, whole) == ClassFunction.trivial(a5)


def test_induced_signum_from_d10(a5):
    C5 = a5.cyclic_subgroup(a5.id_of(perm_from_cycles(5, (0, 1, 2, 3, 4))))
    D10 = normalizer(a5, C5)
    ind = induced_character(a5, D10, C5)
    assert ind.degree == 6
    # frozen via an independent signed fixed-coset computation
    assert ind.values == (6, -2, 0, 1, 1)


def test_induced_trivial_is_coset_permutation_character(a5):
    # independent oracle: count fixed cosets of the class representative
    C5 = a5.cyclic_subgroup(a5.id_of(perm_from_cycles(5, (0, 1, 2, 3, 4))))
    ind = induced_character(a5, C5, C5)
    table = left_cosets(a5, C5)
    for ci, c in enumerate(a5.conjugacy_classes()):
        g = c[0]
        fixed = sum(1 for cell in table.cells
                    if table.index_of[a5.mul(g, cell[0])] == table.index_of[cell[0]])
        assert ind.values[ci] == fixed
    assert ind.values == (12, 0, 0, 2, 2)


def test_not_a_character(s3):
    t01 = s3.cyclic_subgroup(s3.id_of(perm_from_cycles(3, (0, 1))))
    t12 = s3.cyclic_subgroup(s3.id_of(perm_from_cycles(3, (1, 2))))
    with pytest.raises(NotACharacter):  # index 3
        induced_character(s3, s3.full_subgroup(), t01)
    with pytest.raises(NotACharacter):  # not inside the subgroup
        induced_character(s3, t01, t12)


def test_mackey_identity(a5):
    C5 = a5.cyclic_subgroup(a5.id_of(perm_from_cycles(5, (0, 1, 2, 3, 4))))
    D10 = normalizer(a5, C5)
    lhs = induced_character(a5, C5, C5)
    rhs = induced_character(a5, D10, D10) + induced_character(a5, D10, C5)
    assert lhs == rhs


def test_is_inverting_involution(a5, psl27):
    m = a5.id_of(perm_from_cycles(5, (0, 1, 2, 3, 4)))
    s = a5.id_of(perm_from_cycles(5, (1, 4), (2, 3)))
    assert is_inverting_involution(a5, m, s)
    assert not is_inverting_involution(a5, m, a5.identity)
    # no involution inverts an order-7 element of the 168-element group
    u = psl27.id_of([1, 2, 3, 4, 5, 6, 0, 7])
    assert all(not is_inverting_involution(psl27, u, s) for s in range(psl27.order))


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
    triv = ClassFunction.trivial(G)
    for H in all_subgroups(G):
        for K in sign_characters(G, H):
            ind = induced_character(G, H, K)
            assert ind.degree == G.order // H.order
            lhs = ind.inner(triv)
            rhs = Fraction(sum(1 if h in K.member_set() else -1 for h in H.members), H.order)
            assert lhs == rhs


def test_sign_character_counts(s3, d4):
    # abelianizations: S3 -> C2, D4 -> C2 x C2
    assert len(sign_characters(s3, s3.full_subgroup())) == 2
    assert len(sign_characters(d4, d4.full_subgroup())) == 4
    for K in sign_characters(d4, d4.full_subgroup()):
        chi = [1 if g in K.member_set() else -1 for g in range(d4.order)]
        for a in range(d4.order):
            for b in range(d4.order):
                assert chi[d4.mul(a, b)] == chi[a] * chi[b]


def test_class_function_arithmetic(a5):
    triv = ClassFunction.trivial(a5)
    assert (2 * triv - triv) == triv
    assert (triv + triv).degree == 2
    assert (-triv).degree == -1
    assert triv.inner(triv) == 1


def test_group_json_round_trip(a5):
    obj = a5.to_jsonable()
    G2 = PermGroup(obj["generators"], degree=obj["degree"])
    assert G2.elements == a5.elements
