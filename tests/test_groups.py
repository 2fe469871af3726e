"""Stabilizer-chain groups: orders, membership, enumeration."""

import pytest
from hypothesis import given, settings, strategies as st

from piradical import DegreeMismatch, PermGroup, Permutation, TooLarge
from piradical.perms import compose_images

from .oracles import closure

P = Permutation.parse

FIXTURES = {
    "S4": ([P("(1 2)", 4), P("(1 2 3 4)")], 24),
    "A4": ([P("(1 2 3)", 4), P("(1 2)(3 4)")], 12),
    "D6": ([P("(1 2 3 4 5 6)"), P("(2 6)(3 5)", 6)], 12),
    "C12": ([P("(1 2 3 4 5 6 7 8 9 10 11 12)")], 12),
    "A5": ([P("(1 2 3)", 5), P("(3 4 5)")], 60),
}


def test_orders_match_brute_force_closure():
    for name, (gens, expected) in FIXTURES.items():
        G = PermGroup.from_generators(gens)
        assert G.order_int == expected, name
        assert len(closure(gens, G.degree)) == expected, name


def test_order_is_product_of_transversal_sizes():
    G = PermGroup.from_generators(FIXTURES["S4"][0])
    prod = 1
    for t in G.transversal_sizes:
        prod *= t
    assert prod == G.order_int == G.order.value


def test_elements_enumeration_matches_closure():
    for name, (gens, _) in FIXTURES.items():
        G = PermGroup.from_generators(gens)
        elems = G.elements()
        assert elems[0].is_identity(), name
        assert len(elems) == len(set(elems)) == G.order_int, name
        assert set(elems) == closure(gens, G.degree), name


def test_element_tuples_agrees_with_elements():
    G = PermGroup.from_generators(FIXTURES["D6"][0])
    assert G.element_tuples() == [p.images for p in G.elements()]


def listed_level_by_level(G: PermGroup) -> list[bytes]:
    """The canonical enumeration as one list per level: every product of the
    transversals, the deepest level first."""
    elems = [bytes(range(G.degree))]
    for lev in reversed(G._levels):
        elems = [compose_images(e, lev.trans[p]) for e in elems for p in lev.orbit]
    return elems


@pytest.mark.parametrize("name", [*FIXTURES, "trivial"])
def test_the_lazy_enumeration_is_the_listed_one(name):
    """Drawing elements one at a time gives the listed enumeration, element
    for element, and ``element_tuples`` lists the same."""
    G = PermGroup.trivial(3) if name == "trivial" else PermGroup.from_generators(FIXTURES[name][0])
    want = listed_level_by_level(G)
    assert list(G.iter_element_tuples()) == want == G.element_tuples()
    assert len(want) == G.order_int


def test_elements_cap_raises_too_large():
    G = PermGroup.from_generators(FIXTURES["A5"][0])
    with pytest.raises(TooLarge):
        G.elements(cap=59)


def test_membership_via_sifting():
    gens, _ = FIXTURES["A4"]
    G = PermGroup.from_generators(gens)
    assert P("(1 2 3)", 4) in G
    assert P("(1 3)(2 4)", 4) in G
    assert P("(1 2)", 4) not in G
    assert Permutation.identity(4) in G
    odd = P("(1 2 3 4)")
    assert not G.sift(odd).is_identity()


def test_membership_requires_matching_degree():
    G = PermGroup.from_generators(FIXTURES["S4"][0])
    with pytest.raises(DegreeMismatch):
        G.contains(P("(1 2)", 5))


def test_generator_degrees_must_agree():
    with pytest.raises(DegreeMismatch):
        PermGroup.from_generators([P("(1 2)", 3), P("(1 2)", 4)])


def test_trivial_group():
    T = PermGroup.trivial(5)
    assert T.order_int == 1 and T.is_trivial()
    assert T.elements() == [Permutation.identity(5)]
    assert Permutation.identity(5) in T
    assert P("(1 2)", 5) not in T


def test_extend_warm_start_equals_cold_build():
    gens = [P("(1 2 3)", 5), P("(3 4 5)")]
    A = PermGroup.from_generators(gens)
    S = A.extend(P("(1 2)", 5).images)
    assert S.order_int == 120
    assert S.same_group_as(PermGroup.from_generators(gens + [P("(1 2)", 5)]))
    assert A.extend(P("(1 2 3)", 5).images).order_int == 60  # redundant generator


def test_extend_rejects_a_tuple_of_another_degree():
    A = PermGroup.from_generators(FIXTURES["A5"][0])
    with pytest.raises(DegreeMismatch):
        A.extend((1, 0, 2, 3))


def test_generators_of_an_extension_are_the_parent_chain_then_the_new_ones():
    A = PermGroup.from_generators(FIXTURES["A5"][0])
    S = A.extend(P("(1 2)", 5).images, P("(4 5)", 5).images)
    assert S.gens == tuple(A._levels[0].gens) + (P("(1 2)", 5).images, P("(4 5)", 5).images)
    assert S.generators == tuple(Permutation(t) for t in S.gens)
    assert all(isinstance(g, Permutation) for g in S.generators)
    assert S.generators is S.generators  # wrapped once


def test_from_generators_keeps_the_given_permutations():
    gens = FIXTURES["S4"][0]
    G = PermGroup.from_generators(gens)
    assert all(a is b for a, b in zip(G.generators, gens, strict=True))
    assert G.gens == tuple(g.images for g in gens)


def test_orbit_partition_and_transitivity():
    G = PermGroup.from_generators([P("(1 2)", 5), P("(3 4 5)")])
    assert G.orbit_partition == ((1, 2), (3, 4, 5))
    assert not G.is_transitive()
    assert PermGroup.from_generators(FIXTURES["A5"][0]).is_transitive()
    assert PermGroup.trivial(1).is_transitive()


def test_subgroup_and_equality_relations():
    S4 = PermGroup.from_generators(FIXTURES["S4"][0])
    A4 = PermGroup.from_generators(FIXTURES["A4"][0])
    assert A4.is_subgroup_of(S4)
    assert not S4.is_subgroup_of(A4)
    assert A4.same_group_as(PermGroup.from_generators([P("(1 2 4)", 4), P("(2 3 4)")]))


def test_is_normal_in():
    S4 = PermGroup.from_generators(FIXTURES["S4"][0])
    A4 = PermGroup.from_generators(FIXTURES["A4"][0])
    V4 = PermGroup.from_generators([P("(1 2)(3 4)"), P("(1 3)(2 4)")])
    assert A4.is_normal_in(S4)
    assert V4.is_normal_in(S4) and V4.is_normal_in(A4)
    assert not PermGroup.from_generators([P("(1 2)", 4)]).is_normal_in(S4)


gen_sets = st.lists(
    st.permutations(tuple(range(5))).map(lambda t: Permutation(tuple(t))),
    min_size=1,
    max_size=3,
)


@settings(max_examples=40, deadline=None)
@given(gen_sets)
def test_chain_order_matches_closure_on_random_generators(gens):
    G = PermGroup.from_generators(gens, degree=5)
    elems = closure(list(gens), 5)
    assert G.order_int == len(elems)
    assert all(e in G for e in elems)
