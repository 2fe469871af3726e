"""Prime sets, conjugacy classes, normal closures, and pi-radicals."""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from piradical import (
    BudgetExhausted,
    PermGroup,
    Permutation,
    PrimeSet,
    TooLarge,
    catalog_groups,
    class_data,
    class_representatives,
    conjugation_orbit,
    element_order_spectrum,
    group_by_name,
    is_pi_group,
    is_pi_number,
    FactoredInteger,
    normal_closure,
    normal_subgroups,
    pi_radical,
    radical_is_trivial_by_orbits,
)
from piradical.structure import _closure_radical

from .oracles import (
    centralizer_size,
    closure,
    conjugacy_classes,
    normal_subgroup_sets,
    pi_radical_set,
)

P = Permutation.parse


def S4() -> PermGroup:
    return PermGroup.from_generators([P("(1 2)", 4), P("(1 2 3 4)")])


def A5() -> PermGroup:
    return PermGroup.from_generators([P("(1 2 3)", 5), P("(3 4 5)")])


def D6() -> PermGroup:
    return PermGroup.from_generators([P("(1 2 3 4 5 6)"), P("(2 6)(3 5)", 6)])


# -- prime sets ---------------------------------------------------------------


def test_prime_set_membership():
    pi = PrimeSet.of(2, 3)
    assert 2 in pi and 3 in pi and 5 not in pi
    co = PrimeSet.all_except(5, 7)
    assert 2 in co and 11 in co and 5 not in co and 7 not in co


def test_prime_set_parse_round_trip():
    for text in ["2,3,5", "7", "all-except:5,7", "all-except:"]:
        pi = PrimeSet.parse(text)
        assert PrimeSet.parse(str(pi)) == pi
    assert PrimeSet.parse("2, 3") == PrimeSet.of(2, 3)
    assert str(PrimeSet.of(5, 2)) == "2,5"
    assert str(PrimeSet.all_except()) == "all-except:"


def test_prime_set_rejects_non_primes():
    with pytest.raises(ValueError):
        PrimeSet.of(4)
    with pytest.raises(ValueError):
        PrimeSet.parse("2,6")


def test_empty_prime_set_is_valid():
    empty = PrimeSet.parse("")
    assert empty == PrimeSet.of()
    assert 2 not in empty
    assert PrimeSet.parse(str(empty)) == empty


def test_is_pi_number_and_group():
    pi = PrimeSet.of(2, 3)
    assert is_pi_number(FactoredInteger.from_int(24), pi)
    assert not is_pi_number(FactoredInteger.from_int(30), pi)
    assert is_pi_number(FactoredInteger.one(), PrimeSet.of(7))
    assert is_pi_group(S4(), pi)
    assert not is_pi_group(A5(), pi)


# -- conjugacy machinery -------------------------------------------------------


def test_conjugation_orbit_of_transposition_in_s4():
    members, wits = conjugation_orbit(S4(), P("(1 2)", 4))
    assert len(members) == 6
    # the class table holds image tuples
    members = [Permutation(m) for m in members]
    wits = [Permutation(w) for w in wits]
    assert members[0] == P("(1 2)", 4) and wits[0].is_identity()
    x = members[0]
    assert all(x**w == m for m, w in zip(members, wits))
    assert all(m.cycle_type() == (2,) for m in members)


def test_conjugation_orbit_cap_truncates():
    """The trace stops as soon as the orbit passes its cap, and refuses the
    class: a class table always holds the whole class."""
    with pytest.raises(BudgetExhausted, match="more members than its cap of 5"):
        conjugation_orbit(A5(), P("(1 2 3 4 5)"), cap=5)
    members, _ = conjugation_orbit(A5(), P("(1 2 3 4 5)"), cap=12)
    elems = closure([P("(1 2 3)", 5), P("(3 4 5)")], 5)
    assert len(members) == 12 and {Permutation(m) for m in members} <= elems


def test_class_size_times_centralizer_is_group_order():
    G = S4()
    elems = closure(G.generators, 4)
    for x in [P("(1 2)", 4), P("(1 2 3)", 4), P("(1 2 3 4)"), P("(1 2)(3 4)")]:
        members, _ = conjugation_orbit(G, x)
        assert len(members) * centralizer_size(elems, x) == 24


def test_class_representatives_of_s4():
    reps = class_representatives(S4())
    assert len(reps) == 5
    assert sum(size for _, size in reps) == 24
    assert sorted(size for _, size in reps) == [1, 3, 6, 6, 8]
    assert reps[0][0].is_identity()
    types = {rep.cycle_type() for rep, _ in reps}
    assert types == {(), (2,), (2, 2), (3,), (4,)}


def reference_scan(G: PermGroup) -> list[tuple[Permutation, int]]:
    """The first-seen element of each class, scanned over the whole list of
    ``element_tuples`` with one orbit per unseen element."""
    want = []
    seen = set()
    for e in G.element_tuples():
        if e in seen:
            continue
        members, _ = conjugation_orbit(G, Permutation(e), cap=G.order_int)
        seen.update(members)
        want.append((Permutation(e), len(members)))
    return want


def test_tuple_scan_matches_a_scan_of_orbits_over_elements():
    """The reference scan gives the same representatives and sizes, in the
    same order, as the scan that stops once the classes cover G."""
    for entry in catalog_groups(10**4):
        assert class_representatives(entry.group) == reference_scan(entry.group), entry.name


def check_class_tables(G: PermGroup) -> None:
    """Every class table from the scan's links is the table that
    ``conjugation_orbit`` traces, member for member and witness for
    witness; its members are the class found by brute force, and each
    witness conjugates the representative to its member."""
    scan = class_representatives(G)
    assert scan == reference_scan(G)
    classes = {x: cls for cls in conjugacy_classes(closure(G.generators, G.degree)) for x in cls}
    assert len(scan) == len(set(classes.values()))
    for rep, size in scan:
        members, witnesses = scan.class_table(rep.images)
        assert (members, witnesses) == conjugation_orbit(G, rep, G.order_int)
        assert len(members) == size
        assert {Permutation(m) for m in members} == classes[rep]
        assert all(rep ** Permutation(w) == Permutation(m) for m, w in zip(members, witnesses))


# direct products on disjoint points, so the classes are products of classes
PRODUCTS = {
    "S3xS4": [P("(1 2)", 7), P("(1 2 3)", 7), P("(4 5)", 7), P("(4 5 6 7)")],
    "A4xS5": [P("(1 2 3)", 9), P("(2 3 4)", 9), P("(5 6)", 9), P("(5 6 7 8 9)")],
}


def test_class_tables_from_the_scan_match_conjugation_orbits_and_the_oracle():
    for entry in catalog_groups(5040):
        check_class_tables(entry.group)
    for name, gens in PRODUCTS.items():
        G = PermGroup.from_generators(gens)
        assert G.order_int == {"S3xS4": 144, "A4xS5": 1440}[name]
        check_class_tables(G)


generating_sets_to_degree_seven = st.integers(1, 7).flatmap(
    lambda n: st.lists(
        st.permutations(range(n)).map(lambda t: Permutation(tuple(t))), min_size=1, max_size=2
    )
)


@settings(max_examples=25, deadline=None)
@given(generating_sets_to_degree_seven)
def test_class_tables_from_the_scan_on_random_groups(gens):
    check_class_tables(PermGroup.from_generators(gens, degree=gens[0].degree))


def test_the_scan_stops_once_the_classes_cover_the_group(monkeypatch):
    """Every class of S8 is met early in the canonical enumeration (within
    its first 169 elements), and the scan draws no element after that."""
    drawn = [0]
    real = PermGroup.iter_element_tuples

    def counting(self):
        for e in real(self):
            drawn[0] += 1
            yield e

    monkeypatch.setattr(PermGroup, "iter_element_tuples", counting)
    G = group_by_name("S8")
    reps = class_representatives(G)
    assert len(reps) == 22 and sum(size for _, size in reps) == G.order_int
    assert drawn[0] < G.order_int // 100


def test_a_class_table_is_served_only_for_a_representative():
    G = S4()
    data = class_data(G)
    rep = next(rep for rep, size in data.reps if size == 6 and rep.cycle_type() == (2,))
    other = rep ** P("(1 2 3 4)")
    assert other != rep
    assert data.class_table(rep)[0][0] == rep.images
    with pytest.raises(ValueError, match="not a class representative"):
        data.class_table(other)


def test_class_representatives_cap():
    with pytest.raises(TooLarge):
        class_representatives(A5(), cap=59)


def test_element_order_spectrum():
    assert element_order_spectrum(S4()) == frozenset({1, 2, 3, 4})
    assert element_order_spectrum(A5()) == frozenset({1, 2, 3, 5})


# -- normal closures and normal subgroups --------------------------------------


def test_normal_closure_examples():
    G = S4()
    assert normal_closure(G, [P("(1 2)", 4)]).order_int == 24
    assert normal_closure(G, [P("(1 2)(3 4)")]).order_int == 4
    assert normal_closure(G, [P("(1 2 3)", 4)]).order_int == 12
    assert normal_closure(G, [Permutation.identity(4)]).is_trivial()


def test_normal_closure_is_normal():
    G = A5()
    N = normal_closure(G, [P("(1 2 3)", 5)])
    assert N.is_normal_in(G) and N.order_int == 60


def test_normal_subgroups_match_oracle():
    cases = [
        (S4(), [1, 4, 12, 24]),
        (A5(), [1, 60]),
        (PermGroup.from_generators([P("(1 2 3 4 5 6)")]), [1, 2, 3, 6]),
    ]
    for G, expected_orders in cases:
        subs = normal_subgroups(G)
        assert [H.order_int for H in subs] == expected_orders
        oracle = normal_subgroup_sets(closure(G.generators, G.degree), G.degree)
        assert len(oracle) == len(subs)
        assert {frozenset(H.elements()) for H in subs} == set(oracle)


# -- pi-radicals ----------------------------------------------------------------


def test_pi_radical_of_s4():
    G = S4()
    assert pi_radical(G, PrimeSet.of(2)).order_int == 4
    assert pi_radical(G, PrimeSet.of(3)).is_trivial()
    assert pi_radical(G, PrimeSet.of(2, 3)).order_int == 24
    assert pi_radical(G, PrimeSet.of(5)).is_trivial()


def test_pi_radical_of_d6():
    G = D6()
    assert pi_radical(G, PrimeSet.of(2)).order_int == 2
    assert pi_radical(G, PrimeSet.of(3)).order_int == 3
    assert pi_radical(G, PrimeSet.all_except(2)).order_int == 3


def test_pi_radical_matches_oracle():
    fixtures = [S4(), D6(), PermGroup.from_generators([P("(1 2 3)", 4), P("(1 2)(3 4)")])]
    prime_sets = [PrimeSet.of(2), PrimeSet.of(3), PrimeSet.of(2, 3), PrimeSet.of(5)]
    for G in fixtures:
        elems = closure(G.generators, G.degree)
        for pi in prime_sets:
            got = pi_radical(G, pi)
            want = pi_radical_set(elems, G.degree, set(pi.primes))
            assert got.order_int == len(want)
            assert set(got.elements()) == want


small_generating_sets = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.permutations(range(n)).map(lambda t: Permutation(tuple(t))), min_size=1, max_size=2
    )
)


@settings(max_examples=30, deadline=None)
@given(small_generating_sets, st.sets(st.sampled_from([2, 3, 5])))
def test_radical_and_normal_subgroups_match_the_oracles_on_random_groups(gens, primes):
    degree = gens[0].degree
    G = PermGroup.from_generators(gens, degree=degree)
    elems = closure(gens, degree)
    subs = [frozenset(H.elements()) for H in normal_subgroups(G)]
    oracle = normal_subgroup_sets(elems, degree)
    assert len(subs) == len(oracle) and set(subs) == set(oracle)
    radical = pi_radical(G, PrimeSet.of(*primes))
    assert frozenset(radical.elements()) == pi_radical_set(elems, degree, primes)


def test_pi_radical_properties():
    G = A5()
    for pi in [PrimeSet.of(2), PrimeSet.of(3, 5), PrimeSet.of(2, 3)]:
        R = pi_radical(G, pi)
        assert R.is_trivial()  # A5 is simple and not a pi-group for these
    assert pi_radical(G, PrimeSet.of(2, 3, 5)).order_int == 60


def test_orbit_triviality_certificate():
    S7 = PermGroup.from_generators([P("(1 2)", 7), P("(1 2 3 4 5 6 7)")])
    assert radical_is_trivial_by_orbits(S7, PrimeSet.of(2, 3, 5))
    assert not radical_is_trivial_by_orbits(S7, PrimeSet.of(2, 3, 5, 7))
    # a composite degree: 3 does not divide 4, and O_3(S4) = 1
    assert radical_is_trivial_by_orbits(S4(), PrimeSet.of(3))
    assert pi_radical(S4(), PrimeSet.of(3)).is_trivial()
    assert not radical_is_trivial_by_orbits(S4(), PrimeSet.of(2))  # O_2(S4) = V4
    # a cofinite pi is read prime by prime
    assert radical_is_trivial_by_orbits(S4(), PrimeSet.all_except(2))
    assert not radical_is_trivial_by_orbits(S4(), PrimeSet.all_except(3))
    # every orbit counts, not the degree: the degree 7 of S3 x S4 on 3 + 4
    # points shares no prime with {3}, but O_3 = C3
    S3xS4 = PermGroup.from_generators(PRODUCTS["S3xS4"])
    assert not radical_is_trivial_by_orbits(S3xS4, PrimeSet.of(3))
    assert pi_radical(S3xS4, PrimeSet.of(3)).order_int == 3
    intransitive = PermGroup.from_generators([P("(1 2)", 5), P("(3 4 5)")])
    assert not radical_is_trivial_by_orbits(intransitive, PrimeSet.of(2, 3))
    assert radical_is_trivial_by_orbits(intransitive, PrimeSet.of(5))
    # a fixed point is an orbit of length 1, which no prime divides
    C3 = PermGroup.from_generators([P("(1 2 3)", 5)])
    assert radical_is_trivial_by_orbits(C3, PrimeSet.of(2))
    assert not radical_is_trivial_by_orbits(C3, PrimeSet.of(3))
    assert radical_is_trivial_by_orbits(PermGroup.trivial(4), PrimeSet.of(2, 3))
    # agreement with the closure route where both apply
    S5 = PermGroup.from_generators([P("(1 2)", 5), P("(1 2 3 4 5)")])
    assert radical_is_trivial_by_orbits(S5, PrimeSet.of(2, 3))
    assert _closure_radical(S5, PrimeSet.of(2, 3)).is_trivial()


# the benchmark's direct products, and a group with orbits of two lengths
CERTIFIED_EXTRA = {
    **PRODUCTS,
    "S3xA4": [P("(1 2)", 7), P("(1 2 3)", 7), P("(4 5 6)", 7), P("(5 6 7)")],
    "S4xS5": [P("(1 2)", 9), P("(1 2 3 4)", 9), P("(5 6)", 9), P("(5 6 7 8 9)")],
    "<(1 2), (3 4 5)>": [P("(1 2)", 5), P("(3 4 5)")],
}


def certified_group(name: str) -> PermGroup:
    if name in CERTIFIED_EXTRA:
        return PermGroup.from_generators(CERTIFIED_EXTRA[name])
    return group_by_name(name)


@pytest.mark.parametrize(
    "name", [e.name for e in catalog_groups(max_order=40_320)] + list(CERTIFIED_EXTRA)
)
def test_the_orbit_certificate_agrees_with_the_closure_route(name):
    """Where the certificate holds the closure route finds the trivial
    group, and ``pi_radical`` returns what the closure route returns, order
    and generators, for every nonempty set of primes dividing |G|."""
    G = certified_group(name)
    primes = sorted(G.order.prime_support)
    for k in range(1, len(primes) + 1):
        for chosen in itertools.combinations(primes, k):
            pi = PrimeSet.of(*chosen)
            closed = _closure_radical(G, pi)
            if radical_is_trivial_by_orbits(G, pi):
                assert closed.is_trivial(), (name, chosen)
            got = pi_radical(G, pi)
            assert got.order_int == closed.order_int and got.gens == closed.gens


def split_permutations(n: int, k: int):
    """Permutations of 0..n-1 that keep 0..k-1 (and so k..n-1) setwise."""
    return st.tuples(st.permutations(range(k)), st.permutations(range(k, n))).map(
        lambda t: Permutation(tuple(t[0]) + tuple(t[1]))
    )


# k = 0 leaves one block, so both transitive and intransitive groups come up
split_generating_sets = st.integers(1, 7).flatmap(
    lambda n: st.integers(0, n - 1).flatmap(
        lambda k: st.lists(split_permutations(n, k), min_size=1, max_size=2)
    )
)


@settings(max_examples=50, deadline=None)
@given(split_generating_sets)
def test_a_radical_certified_trivial_is_trivial_by_the_oracle(gens):
    """The oracle's radical is the largest normal pi-subgroup among the
    subgroups of one or two generators, a subgroup of the radical: where
    the certificate holds, it is trivial."""
    degree = gens[0].degree
    G = PermGroup.from_generators(gens, degree=degree)
    assume(G.order_int <= 144)  # the oracle closes every pair of cyclic subgroups
    elems = closure(gens, degree)
    for k in range(1, 5):
        for primes in itertools.combinations((2, 3, 5, 7), k):
            if radical_is_trivial_by_orbits(G, PrimeSet.of(*primes)):
                assert len(pi_radical_set(elems, degree, set(primes))) == 1, primes


# -- degree 9: past the old 10^5 cap --------------------------------------------


@pytest.mark.parametrize("name, classes", [("S9", 30), ("A9", 18)])
def test_degree_nine_classes_and_radicals(name, classes):
    """S9 and A9 have 30 and 18 classes, whose sizes sum to |G|.  Their only
    nontrivial normal subgroups are A9 and G, and both orders are divisible
    by 2, 3, 5 and 7, so the radical is trivial unless pi contains all four
    primes, and then it is the whole group."""
    G = group_by_name(name)
    reps = class_representatives(G)
    assert len(reps) == classes
    assert sum(size for _, size in reps) == G.order_int
    for k in range(1, 5):
        for primes in itertools.combinations((2, 3, 5, 7), k):
            radical = pi_radical(G, PrimeSet.of(*primes))
            want = G.order_int if primes == (2, 3, 5, 7) else 1
            assert radical.order_int == want, (name, primes)
