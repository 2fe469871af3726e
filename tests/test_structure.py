"""Prime sets, conjugacy classes, normal closures, and pi-radicals."""

import itertools
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, example, given, seed, settings, strategies as st
from hypothesis.internal.reflection import function_digest

from piradical import (
    BudgetExhausted,
    InvariantViolation,
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
    membership_bound,
    normal_closure,
    normal_subgroups,
    pi_radical,
    radical_is_trivial_by_orbits,
)
from piradical.perms import compose_images, conjugators
from piradical.structure import (
    _closure_radical,
    _is_giant,
    _orbit_scan,
    _scan_conjugators,
    _Tracer,
)

from .oracles import (
    centralizer_size,
    closure,
    conjugacy_classes,
    normal_subgroup_sets,
    normal_subgroup_sets_by_classes,
    pi_radical_set,
)
from . import test_width
from .test_width import random_groups

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


def test_membership_bound_agrees_with_the_benchmark_checker(monkeypatch):
    """m(pi) is the benchmark checker's on every finite pi of primes up to
    23 and on each cofinite set missing some of them; it is undefined when
    no prime lies outside pi."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import check

    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23)
    for k in range(len(primes) + 1):
        for chosen in itertools.combinations(primes, k):
            finite = PrimeSet.of(*chosen)
            assert membership_bound(finite) == check.membership_bound(finite), chosen
            if chosen:
                cofinite = PrimeSet.all_except(*chosen)
                assert membership_bound(cofinite) == check.membership_bound(cofinite), chosen
    assert membership_bound(PrimeSet.of(2, 3, 5, 7)) == 10  # r = 11
    assert membership_bound(PrimeSet.of(3)) == 2 and membership_bound(PrimeSet.of(2)) == 3
    with pytest.raises(ValueError):
        membership_bound(PrimeSet.all_except())


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


def giants():
    """Sym(n) and Alt(n) for n = 5..9, each as the catalog builds it and
    under three seeded relabellings of its points."""
    for n in range(5, 10):
        for name in (f"S{n}", f"A{n}"):
            G = group_by_name(name)
            yield G
            rng = random.Random(name)
            for _ in range(3):
                g = Permutation(tuple(rng.sample(range(n), n)))
                yield PermGroup.from_generators([x.conjugate(g) for x in G.generators])


def test_the_scan_of_a_giant_by_cycle_type_is_the_orbit_scan():
    """The scan by cycle type (fact 5 of ``structure``) gives the
    representatives, sizes and order of the breadth-first orbit scan, on
    Sym(n) and Alt(n), n = 5..9, however their points are labelled."""
    for G in giants():
        assert _is_giant(G)
        assert class_representatives(G) == _orbit_scan(G), G.order_int


# the seed that the derandomized theorem test on random groups draws from,
# so that the test below meets the same 300 groups
RANDOM_GROUPS_SEED = int.from_bytes(
    function_digest(test_width.test_the_theorem_on_random_groups.hypothesis.inner_test), "big"
)


@seed(RANDOM_GROUPS_SEED)
@settings(max_examples=300, deadline=None, database=None)
@given(random_groups())
def test_the_scan_of_a_random_giant_by_cycle_type_is_the_orbit_scan(pair):
    G = PermGroup.from_generators(pair)
    if _is_giant(G):
        assert class_representatives(G) == _orbit_scan(G)


def check_class_tables(G: PermGroup) -> None:
    """The scan's representatives and sizes are the reference scan's, and
    every class table of the class data, traced to its end, is the table
    that ``conjugation_orbit`` traces, member for member and witness for
    witness; its members are the class found by brute force, and each
    witness conjugates the representative to its member."""
    data = class_data(G)
    scan = data.reps
    assert scan == class_representatives(G) == reference_scan(G)
    classes = {x: cls for cls in conjugacy_classes(closure(G.generators, G.degree)) for x in cls}
    assert len(scan) == len(set(classes.values()))
    for rep, size in scan:
        members, witnesses = map(list, data.class_table(rep))  # traced to the end
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


# three or four generators, so that the scan tries its pairs: a pair that
# generates G is taken, and otherwise the scan falls back to the generators
larger_generating_sets_to_degree_seven = st.integers(1, 7).flatmap(
    lambda n: st.lists(
        st.permutations(range(n)).map(lambda t: Permutation(tuple(t))), min_size=3, max_size=4
    )
)


@settings(max_examples=25, deadline=None)
@given(larger_generating_sets_to_degree_seven)
@example([P("(1 2)", 7), P("(1 2 3)", 7), P("(4 5)", 7), P("(4 5 6 7)")])  # S3xS4: no pair
@example([P("(1 2)", 5), P("(1 2 3 4 5)"), P("(1 2 3)", 5)])  # S5: a pair
def test_class_tables_from_a_scan_over_a_pair_on_random_groups(gens):
    check_class_tables(PermGroup.from_generators(gens, degree=gens[0].degree))


one_to_four_generators_to_degree_seven = st.integers(1, 7).flatmap(
    lambda n: st.lists(
        st.permutations(range(n)).map(lambda t: Permutation(tuple(t))), min_size=1, max_size=4
    )
)


@settings(max_examples=40, deadline=None)
@given(one_to_four_generators_to_degree_seven, st.data())
def test_a_class_table_read_in_any_order_is_the_whole_orbit(gens, draw):
    """A class table is traced only as far as it is read, and reading it in
    a random order of indices, members and witnesses interleaved, gives
    ``conjugation_orbit``'s members and witnesses at every index."""
    G = PermGroup.from_generators(gens, degree=gens[0].degree)
    data = class_data(G)
    for rep, size in data.reps:
        members, witnesses = data.class_table(rep)
        assert len(members) == len(witnesses) == size
        orbit, orbit_witnesses = conjugation_orbit(G, rep, G.order_int)
        for i in draw.draw(st.permutations(range(size))):
            if draw.draw(st.booleans()):
                assert witnesses[i] == orbit_witnesses[i] and members[i] == orbit[i]
            else:
                assert members[i] == orbit[i] and witnesses[i] == orbit_witnesses[i]
        assert list(members) == orbit and list(witnesses) == orbit_witnesses


def test_a_class_table_is_traced_only_as_far_as_it_is_read():
    """S7's class of 5-cycles has 504 members; reading index 9 traces the
    breadth-first search only until it has 10 members (each member conjugated
    by both generators, so at most one past that), and negative indices
    count from the scan's class size."""
    G = PermGroup.from_generators(group_by_name("S7").generators)
    data = class_data(G)
    rep = next(rep for rep, size in data.reps if rep.cycle_type() == (5,))
    members, witnesses = data.class_table(rep)
    orbit, orbit_witnesses = conjugation_orbit(G, rep, G.order_int)
    assert len(members) == 504
    assert members[0] == rep.images and len(members._column) == 1
    assert witnesses[9] == orbit_witnesses[9] and 10 <= len(members._column) <= 11
    assert members[-1] == orbit[-1] and len(members._column) == 504
    with pytest.raises(IndexError):
        members[504]


@pytest.mark.parametrize("size", [11, 12])
def test_a_class_table_checks_its_length_against_the_scan(size):
    """The class of x = (1 2 3) in A5 = <(1 2 3), (3 4 5)> has 20 members.
    Traced over (1 2 3) alone it ends at x, short of any scan size, and over
    both generators it passes a size of 11 or 12: each raises
    InvariantViolation when the trace gets there, and never serves a short
    or a long class."""
    a, b = P("(1 2 3)", 5).images, P("(3 4 5)").images
    short = _Tracer(a, conjugators([a]), size, exact=True)
    with pytest.raises(InvariantViolation, match="fewer members than the scan's"):
        short.trace()
    with pytest.raises(InvariantViolation, match="fewer members than the scan's"):
        short.trace()  # and again: a failed table never reads as done
    long = _Tracer(a, conjugators([a, b]), size, exact=True)
    long.trace(5)  # a prefix within the size is served, as the orbit begins
    A5 = PermGroup.from_generators([Permutation(a), Permutation(b)])
    assert 5 <= len(long.members) < size
    assert long.members == conjugation_orbit(A5, Permutation(a))[0][: len(long.members)]
    with pytest.raises(InvariantViolation, match="more members than the scan's"):
        long.trace()
    assert len(_Tracer(a, conjugators([a, b]), 20, exact=True).members) == 1


def scan_group(name: str) -> tuple[PermGroup, PermGroup]:
    """G, and the group that the class scan's conjugating set generates."""
    G = group_by_name(name) if name not in PRODUCTS else PermGroup.from_generators(PRODUCTS[name])
    gens = [Permutation(table[: G.degree]) for _, table in _scan_conjugators(G)]
    return G, PermGroup.from_generators(gens, degree=G.degree)


@pytest.mark.parametrize("name", [e.name for e in catalog_groups(10**4)] + list(PRODUCTS))
def test_the_scan_conjugates_by_a_generating_set(name):
    """Whatever set the scan conjugates by generates G, so its orbits are
    G's classes: a pair of order |G| when one exists, else ``G.gens``."""
    G, H = scan_group(name)
    assert H.order_int == G.order_int and H.is_subgroup_of(G)


def test_the_scan_conjugates_by_a_pair_or_falls_back_to_the_generators(monkeypatch):
    """pgl2(13) is given by more than two generators and its first pair
    generates it.  No pair (g_i, the others' product) generates the direct
    product S3xS4, but the products of its even- and of its odd-indexed
    generators do, and as S3xS4 is intransitive that pair is the first and
    only chain built.  No pair at all generates C2^3, so the scan falls back
    to its three generators; and two generators need no pair."""
    G, _ = scan_group("pgl2(13)")
    assert len(G.gens) > 2 and len(_scan_conjugators(G)) == 2
    built = []
    build = PermGroup.__dict__["from_generators"].__func__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return build(cls, *args, **kwargs)

    G, _ = scan_group("S3xS4")
    monkeypatch.setattr(PermGroup, "from_generators", classmethod(counting))
    pair = _scan_conjugators(G)
    monkeypatch.undo()
    assert len(G.gens) == 4 and len(built) == 1
    gens = G.gens
    assert [table[: G.degree] for _, table in pair] == [
        compose_images(gens[0], gens[2]), compose_images(gens[1], gens[3]),
    ]
    G = PermGroup.from_generators([P("(1 2)", 6), P("(3 4)", 6), P("(5 6)", 6)])
    assert _scan_conjugators(G) == conjugators(G.gens)
    G, _ = scan_group("S5")
    assert _scan_conjugators(G) == conjugators(G.gens) and len(G.gens) == 2


def test_the_class_data_keeps_no_class_members():
    """After the scan the class data holds only its rows: S8's 40,320
    elements and their links are not kept.  A new group object, so that no
    earlier scan of the catalog's S8 is read instead."""
    G = PermGroup.from_generators(group_by_name("S8").generators)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        class_data(G).reps
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 200_000


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
    """Sym(10), of order 3,628,800, is past the 10^6 class-scan cap: it is
    refused before any element is enumerated."""
    G = group_by_name("S10")
    G.iter_element_tuples = None  # past the cap, a scan must not start enumerating
    with pytest.raises(TooLarge, match="exceeds cap 1000000"):
        class_representatives(G)


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
    and generators, for every nonempty set of primes dividing |G|; for a pi
    that covers |G|, G itself, the closure route's group."""
    G = certified_group(name)
    primes = sorted(G.order.prime_support)
    for k in range(1, len(primes) + 1):
        for chosen in itertools.combinations(primes, k):
            pi = PrimeSet.of(*chosen)
            closed = _closure_radical(G, pi)
            if radical_is_trivial_by_orbits(G, pi):
                assert closed.is_trivial(), (name, chosen)
            got = pi_radical(G, pi)
            if k == len(primes):
                assert got is G and got.same_group_as(closed), (name, chosen)
            else:
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


# -- the giant certificate ---------------------------------------------------

GIANTS = ["S5", "S6", "S7", "S8", "A5", "A6", "A7", "A8", "psl2(4)"]


def fresh(name: str) -> PermGroup:
    """A new object for a catalog group, whose class data has computed
    nothing yet (the catalog keeps the groups it builds)."""
    return PermGroup.from_generators(group_by_name(name).generators)


@pytest.mark.parametrize("name", GIANTS)
def test_the_giant_certificate_agrees_with_the_closure_route(name):
    """On every catalog giant (psl2(4) is Alt(5) on 5 points) and every
    nonempty set of primes dividing |G|, ``pi_radical`` is the closure
    route's group: trivial for a proper pi, with the closure route's
    generators, and G itself for a pi that covers |G|."""
    G = fresh(name)
    assert _is_giant(G)
    primes = sorted(G.order.prime_support)
    for k in range(1, len(primes) + 1):
        for chosen in itertools.combinations(primes, k):
            pi = PrimeSet.of(*chosen)
            got = pi_radical(G, pi)
            closed = _closure_radical(G, pi)
            assert got.same_group_as(closed), (name, chosen)
            if k == len(primes):
                assert got is G, (name, chosen)
            else:
                assert got.gens == closed.gens and got.is_trivial(), (name, chosen)


def test_the_giant_certificate_guards():
    """Each condition of the certificate is needed: dropping any one of them
    would give a wrong radical or skip no scan."""
    # n >= 5: 2|Sym(4)| >= 4!, but O_2(Sym(4)) is the Klein group
    assert not _is_giant(S4())
    klein = PermGroup.from_generators([P("(1 2)(3 4)"), P("(1 3)(2 4)")])
    assert pi_radical(S4(), PrimeSet.of(2)).same_group_as(klein)
    # a giant that is a pi-group is its own radical
    S5 = fresh("S5")
    assert _is_giant(S5)
    assert pi_radical(S5, PrimeSet.of(2, 3, 5)).same_group_as(S5)
    # Sym(5) with a fixed 6th point is not a giant of degree 6; 5 divides its
    # orbit length 5, so the closure route answers, with its class scan
    S5_on_6 = PermGroup.from_generators([P("(1 2)", 6), P("(1 2 3 4 5)", 6)])
    assert not _is_giant(S5_on_6)
    assert not radical_is_trivial_by_orbits(S5_on_6, PrimeSet.of(5))
    assert pi_radical(S5_on_6, PrimeSet.of(5)).is_trivial()
    assert class_data(S5_on_6)._reps is not None
    # Alt(8) has index 2 in Sym(8), 2 divides its orbit length 8, and the
    # giant certificate answers O_2 with no class scanned or closed
    A8 = fresh("A8")
    assert not radical_is_trivial_by_orbits(A8, PrimeSet.of(2))
    assert pi_radical(A8, PrimeSet.of(2)).is_trivial()
    assert class_data(A8)._reps is None and class_data(A8)._closures == {}


def uniform_generators(degree: int, count: int, seed: int) -> list[Permutation]:
    """``count`` uniformly random permutations of ``degree`` points, all
    from one drawn seed (a drawn shuffle lies near the identity, and drawn
    seeds repeat, so neither would often generate a giant)."""
    rng = random.Random(seed)
    return [Permutation(rng.sample(range(degree), degree)) for _ in range(count)]


# five draws in six have two generators, and two random permutations of 5..8
# points generate Alt(n) or Sym(n) in most draws (61 of 100 sets were giants)
giant_prone_generating_sets = st.builds(
    uniform_generators,
    st.integers(5, 8),
    st.sampled_from((1, 2, 2, 2, 2, 2)),
    st.integers(0, 2**32),
)


@settings(max_examples=25, deadline=None)
@given(giant_prone_generating_sets)
@example([P("(1 2)", 8), P("(1 2 3 4 5 6 7 8)")])
@example([P("(1 2 3)", 7), P("(3 4 5 6 7)")])
@example([P("(1 2 3 4 5 6)"), P("(1 2)", 6)])
def test_pi_radical_agrees_with_the_closure_route_on_random_groups(gens):
    """Whichever certificate answers, or none, ``pi_radical`` gives the
    closure route's group for every pi of primes up to 7."""
    G = PermGroup.from_generators(gens, degree=gens[0].degree)
    for k in range(5):
        for primes in itertools.combinations((2, 3, 5, 7), k):
            pi = PrimeSet.of(*primes)
            assert pi_radical(G, pi).same_group_as(_closure_radical(G, pi)), primes


# -- closures and the lattice from class sizes ---------------------------------

# the benchmark's four direct products
BENCHMARK_PRODUCTS = ["S3xS4", "S3xA4", "A4xS5", "S4xS5"]


def new_group(name: str) -> PermGroup:
    """A new object for a catalog group or a product of this module."""
    if name in CERTIFIED_EXTRA:
        return PermGroup.from_generators(CERTIFIED_EXTRA[name])
    G = group_by_name(name)
    return PermGroup.from_generators(G.generators, degree=G.degree)


@pytest.mark.parametrize(
    "name", [e.name for e in catalog_groups(max_order=10_000)] + BENCHMARK_PRODUCTS
)
def test_every_class_closure_is_the_normal_closure(name):
    """Whether the class equation certified it or ``normal_closure`` built
    it, the closure of every class is the normal closure of its
    representative, and the radical for every pi is that of the closures
    of every class.  The products have odd classes whose closures are
    proper: the closure of (1 2) in S3 x S4 has order 6."""
    assert_closures_are_normal_closures(new_group(name))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(random_groups())
def test_every_class_closure_is_the_normal_closure_on_random_groups(pair):
    assert_closures_are_normal_closures(PermGroup.from_generators(pair))


def assert_closures_are_normal_closures(G: PermGroup) -> None:
    data = class_data(G)
    every = [normal_closure(G, [rep]) for rep, _ in data.reps]
    for (rep, _), want in zip(data.reps, every):
        assert data.closure(rep).same_group_as(want), rep
    primes = sorted(G.order.prime_support)
    for k in range(1, len(primes) + 1):
        for chosen in itertools.combinations(primes, k):
            pi = PrimeSet.of(*chosen)
            kept = [g for cl in every if is_pi_group(cl, pi) for g in cl.generators]
            want = PermGroup.from_generators(kept, degree=G.degree)
            assert pi_radical(G, pi).same_group_as(want), chosen


# prime-power classes, and those of them that ``normal_closure`` builds
CERTIFIED_CLOSURES = {
    "C16": (15, 15), "A7": (7, 0), "psl2(13)": (7, 0), "S7": (9, 1),
    "pgl2(13)": (8, 1), "S3xS4": (10, 9), "S4xS5": (19, 15),
}


@pytest.mark.parametrize("name", list(CERTIFIED_CLOSURES))
def test_the_class_equation_certifies_closures_without_a_build(monkeypatch, name):
    """The class equation certifies every closure of a simple group, none of
    a cyclic 2-group (every subgroup is normal, and each order a sum of
    class sizes), and some of the others; the rest are built."""
    import piradical.structure as structure

    built = []
    real = structure.normal_closure
    monkeypatch.setattr(
        structure, "normal_closure", lambda G, xs: built.append(xs) or real(G, xs)
    )
    G = new_group(name)
    closures = [class_data(G).closure(rep) for rep in class_data(G).prime_power_reps()]
    assert (len(closures), len(built)) == CERTIFIED_CLOSURES[name]


@pytest.mark.parametrize("name", ["S4", "D12", "psl2(7)", "pgl2(7)", "S6", *BENCHMARK_PRODUCTS])
def test_a_closure_does_not_depend_on_the_order_of_the_requests(name):
    """Closures asked for in reverse class order give the generators of scan
    order, and a radical's generators do not depend on whether the lattice
    was found first."""
    forward, backward = new_group(name), new_group(name)
    reps = [rep for rep, _ in class_data(forward).reps]
    ahead = [class_data(forward).closure(rep).gens for rep in reps]
    behind = [class_data(backward).closure(rep).gens for rep in reversed(reps)]
    assert ahead == behind[::-1]
    primes = sorted(forward.order.prime_support)
    for k in range(1, len(primes) + 1):
        for chosen in itertools.combinations(primes, k):
            pi = PrimeSet.of(*chosen)
            plain = pi_radical(new_group(name), pi)
            lattice_first = new_group(name)
            normal_subgroups(lattice_first)
            assert pi_radical(lattice_first, pi).gens == plain.gens, (name, chosen)


@settings(max_examples=40, deadline=None)
@given(generating_sets_to_degree_seven)
@example([P("(1 2)", 6), P("(3 4)(5 6)")])
@example([P("(1 2 3)", 7), P("(4 5)(6 7)")])
@example([P("(1 2)", 6), P("(3 4)", 6), P("(5 6)")])  # joins that G's mask contains
def test_radical_and_lattice_match_the_class_oracle_to_degree_seven(gens):
    """``normal_subgroups`` is the oracle's list of normal subgroups, and
    ``pi_radical`` its largest pi-member, for every pi of primes up to 7."""
    G = PermGroup.from_generators(gens, degree=gens[0].degree)
    assume(G.order_int <= 720)
    elems = closure(gens, G.degree)
    oracle = normal_subgroup_sets_by_classes(elems, G.degree)
    subs = normal_subgroups(G)
    assert len(subs) == len(oracle)
    assert {frozenset(H.elements()) for H in subs} == set(oracle)
    for k in range(5):
        for primes in itertools.combinations((2, 3, 5, 7), k):
            pi = PrimeSet.of(*primes)
            pi_members = [N for N in oracle if is_pi_number(FactoredInteger.from_int(len(N)), pi)]
            got = pi_radical(G, pi)
            assert frozenset(got.elements()) == max(pi_members, key=len), primes


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
