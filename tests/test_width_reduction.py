"""The C_L(x) reduction of the width search against two independent routes:
the unreduced engine (the same driver with no group) and the brute-force
closure oracle over unpinned tuples with repetition."""

import itertools
import math
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings

from piradical import (
    AlmostSimpleContext,
    FactoredInteger,
    InvariantViolation,
    PermGroup,
    Permutation,
    PrimeSet,
    alpha,
    alternating_group,
    baer_suzuki_check,
    beta,
    bs_membership,
    catalog_groups,
    class_data,
    class_representatives,
    conjugation_orbit,
    group_by_name,
    is_pi_number,
    is_prime,
    min_width_search,
    minimal_membership_width,
    projective_semilinear_9,
)
from piradical import width
from piradical.perms import conjugate_images
from piradical.width import (
    LEVEL_TWO_PREFIX,
    _centralizer,
    _CentralizerOrbits,
    _normalising,
    _orbit_representatives,
)

from .oracles import min_generating_width
from .test_acceptance import every_context
from .test_structure import BENCHMARK_PRODUCTS, new_group
from .test_width import random_groups

P = Permutation.parse


def unreduced_search(ctx: AlmostSimpleContext, pred):
    return min_width_search(ctx.element, ctx.conjugates, ctx.witnesses, pred)


@contextmanager
def unreduced_engine(monkeypatch):
    """Run the membership and pair checks with the group withheld from the
    search, i.e. on the unreduced engine."""
    search = width.min_width_search
    with monkeypatch.context() as m:
        m.setattr(width, "min_width_search", lambda *a, group=None, **k: search(*a, **k))
        yield


def non_pi(pi: PrimeSet):
    return lambda o: not is_pi_number(FactoredInteger.from_int(o), pi)


def assert_witness_is_sound(res, x: Permutation, pred) -> None:
    assert res.revalidate(pred)
    assert all(x**w == m for w, m in zip(res.witness, res.members))


# -- pruned against unreduced ------------------------------------------------------


def test_pruned_engine_agrees_with_unreduced_on_every_context():
    pruned_states = unreduced_states = 0
    for label, ctx, rs in every_context():
        target = ctx.ambient.order_int
        cases = [("alpha", alpha(ctx), lambda o: o == target)]
        cases += [(f"beta[{r}]", beta(ctx, r), lambda o, r=r: o % r == 0) for r in rs]
        for kind, pruned, pred in cases:
            plain = unreduced_search(ctx, pred)
            fields = ("value", "explored_width", "saturated", "exhaustive")
            assert [getattr(pruned, f) for f in fields] == [
                getattr(plain, f) for f in fields
            ], (label, kind)
            assert pruned.value is not None, (label, kind)
            assert_witness_is_sound(pruned, ctx.element, pred)
            pruned_states += pruned.states_visited
            unreduced_states += plain.states_visited
    assert pruned_states < unreduced_states / 2  # the reduction really ran


@pytest.mark.parametrize("name", ["S5", "A6", "S6", "S7", "psl2(7)"])
def test_pruned_engine_agrees_with_unreduced_on_membership_and_pairs(name, monkeypatch):
    G = group_by_name(name)
    primes = sorted(G.order.prime_support)
    prime_sets = [
        PrimeSet.of(*sub)
        for k in range(1, len(primes))
        for sub in itertools.combinations(primes, k)
    ]

    def run():
        return (
            [bs_membership(G, pi, 2) for pi in prime_sets],
            [minimal_membership_width(G, pi) for pi in prime_sets],
            [baer_suzuki_check(G, p) for p in primes],
        )

    def masked(results):
        """The results with every record's ``states_visited`` set to 0, and
        the counts, in record order; the pair checks are membership results
        too."""
        memberships, widths, pairs = results
        states = [rec.states_visited for res in memberships + pairs for rec in res.records]

        def zeroed(results):
            return [
                replace(res, records=[replace(rec, states_visited=0) for rec in res.records])
                for res in results
            ]

        return (zeroed(memberships), widths, zeroed(pairs)), states

    pruned, pruned_states = masked(run())
    class_data(G).searches.clear()  # else the kept pruned searches answer again
    with unreduced_engine(monkeypatch):
        plain, plain_states = masked(run())
    assert pruned == plain
    assert all(p <= u for p, u in zip(pruned_states, plain_states, strict=True))
    for res in pruned[0]:
        for rec in res.records:
            if rec.witness is not None:
                H = PermGroup.from_generators(rec.witness)
                assert H.order_int == rec.witness_order.value
                assert non_pi(res.pi)(H.order_int)


def test_states_visited_counts_are_pinned_on_the_unreduced_engine(monkeypatch):
    """Unreduced counts: a state is every chain child before deduplication,
    but only a new partition; these guard that rule across refactors."""
    def ctx(n, x):
        return AlmostSimpleContext.build(alternating_group(n), P(x, n))

    def count(c, pred):
        return unreduced_search(c, pred).states_visited

    def whole(c):
        return lambda o: o == c.ambient.order_int

    c9, c8 = ctx(9, "(1 2)"), ctx(8, "(1 2)")
    assert count(c9, whole(c9)) == 4140
    assert count(c8, whole(c8)) == 877
    assert count(c8, lambda o: o % 7 == 0) == 814
    c7, c6 = ctx(7, "(1 2)(3 4)"), ctx(6, "(1 2)(3 4)(5 6)")
    assert count(c7, whole(c7)) == 223
    assert count(c6, whole(c6)) == 408
    with unreduced_engine(monkeypatch):
        res = bs_membership(group_by_name("S7"), PrimeSet.of(2, 3), 2)
    assert [r.states_visited for r in res.records] == [
        0, 16, 2, 2, 1, 1, 3, 3, 2, 1, 6, 3, 2, 2, 4
    ]


# -- the centralizer ------------------------------------------------------------------


def test_centralizer_of_a_double_transposition_in_alt8():
    """|C| = 20160 / 210 = 96, and C has 10 orbits on the 210 conjugates."""
    ctx = AlmostSimpleContext.build(alternating_group(8), P("(1 2)(3 4)", 8))
    index = {y: i for i, y in enumerate(ctx.conjugates)}
    C = _centralizer(ctx.socle, ctx.conjugates, ctx.witnesses, index)
    assert C.order_int == 96
    assert PermGroup.from_generators(C.generators).order_int == 96
    assert C.is_subgroup_of(ctx.socle)
    assert all(ctx.element ** c == ctx.element for c in C.generators)
    everything = [(None, (0, j)) for j in range(len(ctx.conjugates))]
    orbits = _CentralizerOrbits(ctx.socle, ctx.conjugates, ctx.witnesses)
    list(orbits.level_two())  # builds C and labels every orbit
    kept = orbits.first_per_orbit(everything)
    assert len(kept) == 10
    assert kept[0] == (None, (0, 0))  # x is its own orbit


def test_centralizer_order_check_raises_when_c_falls_short():
    ctx = AlmostSimpleContext.build(alternating_group(6), P("(1 2 3)", 6))
    index = {y: i for i, y in enumerate(ctx.conjugates)}
    # a group whose claimed order is twice the real one: the Schreier
    # generators close at |C_L(x)| and never reach the claimed order
    doubled = SimpleNamespace(
        gens=ctx.socle.gens,
        order_int=2 * ctx.socle.order_int,
        degree=ctx.socle.degree,
    )
    with pytest.raises(InvariantViolation, match="centralizer reached order"):
        _centralizer(doubled, ctx.conjugates, ctx.witnesses, index)


def test_centralizer_rejects_inconsistent_class_tables():
    ctx = AlmostSimpleContext.build(alternating_group(6), P("(1 2 3)", 6))
    index = {y: i for i, y in enumerate(ctx.conjugates)}
    swapped = list(ctx.witnesses)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    with pytest.raises(InvariantViolation, match="does not centralize"):
        _centralizer(ctx.socle, ctx.conjugates, swapped, index)
    partial = {y: i for i, y in enumerate(ctx.conjugates[:10])}
    with pytest.raises(InvariantViolation, match="outside the class"):
        _centralizer(ctx.socle, ctx.conjugates, ctx.witnesses, partial)


def test_searches_ending_by_width_two_never_build_the_centralizer(monkeypatch):
    def fail(*_args):
        raise AssertionError("centralizer built for a width <= 2 search")

    monkeypatch.setattr(width, "_centralizer", fail)
    ctx = AlmostSimpleContext.build(alternating_group(7), P("(1 2 3)", 7))
    res = width.beta(ctx, 5)
    assert res.value == 2
    bs_membership(group_by_name("S6"), PrimeSet.of(2, 3), 2)
    baer_suzuki_check(group_by_name("S6"), 3)


def level_two_cases():
    """(Alt(8), (1 2)(3 4)), every prime-order class of Alt(7) over Alt(7),
    and the PGammaL(2,9) outer involution over the degree-10 Alt(6)."""
    yield alternating_group(8), P("(1 2)(3 4)", 8)
    A7 = alternating_group(7)
    yield from ((A7, rep) for rep, _ in class_representatives(A7) if is_prime(rep.order()))
    semilinear = projective_semilinear_9()
    yield semilinear.socle, semilinear.involution_outside_s6


def test_level_two_builds_the_prefix_and_one_child_per_orbit_it_does_not_meet():
    """The C_L(x)-orbits on the class, counted here from the listed elements
    of C: (Alt(8), (1 2)(3 4)) has 210 conjugates in 10 orbits.  Level 2
    extends <x> by the first ``LEVEL_TWO_PREFIX`` conjugates, then by the
    least index of each orbit the prefix does not meet, and by nothing else;
    a class of at most ``LEVEL_TWO_PREFIX`` members has no orbit past it."""
    for socle, x in level_two_cases():
        ctx = AlmostSimpleContext.build(socle, x)
        conjugates = ctx.conjugates
        index = {y: i for i, y in enumerate(conjugates)}
        elements = _centralizer(ctx.socle, conjugates, ctx.witnesses, index).element_tuples()
        orbits = {frozenset(index[conjugate_images(y, c)] for c in elements) for y in conjugates}
        if socle.degree == 8:
            assert len(conjugates) == 210 and len(orbits) == 10
        prefix = range(min(LEVEL_TWO_PREFIX, len(conjugates)))
        unmet = sorted(min(o) for o in orbits if o.isdisjoint(prefix))
        assert all(i >= LEVEL_TWO_PREFIX for i in unmet)
        assert bool(unmet) == (len(conjugates) > LEVEL_TWO_PREFIX)
        orbit_search = _CentralizerOrbits(ctx.socle, conjugates, ctx.witnesses)
        assert list(orbit_search.level_two()) == [*prefix, *unmet]
        # <x> at level 1, then a level-2 state for every candidate outside <x>
        # (for an involution, every candidate but x itself)
        cyclic = PermGroup.from_generators([x])
        inside = [i for i in [*prefix, *unmet] if cyclic.contains(Permutation(conjugates[i]))]
        res = min_width_search(
            ctx.element, conjugates, ctx.witnesses, lambda o: False,
            max_width=2, group=ctx.socle,
        )
        assert res.status == "width_budget"
        assert res.states_visited == 1 + len(prefix) + len(unmet) - len(inside)
        if x.order() == 2:
            assert inside == [0]


def test_a_search_past_the_level_two_prefix_traces_the_whole_class(monkeypatch):
    """A search reads a class table only as far as it tries conjugates.  On
    S7's 70 three-cycles, one that succeeds at width 2 among the first
    ``LEVEL_TWO_PREFIX`` conjugates leaves the table traced about that far
    and builds no C; one that goes past the prefix builds C on the whole
    class, which traces the table to its end, and finds the same C-orbit
    labels as over ``conjugation_orbit``'s lists."""
    G = PermGroup.from_generators(group_by_name("S7").generators)  # fresh class data
    data = class_data(G)
    x = next(rep for rep, _ in data.reps if rep.cycle_type() == (3,))
    members, witnesses = data.class_table(x)
    assert len(members) == 70 > LEVEL_TWO_PREFIX
    built = []
    monkeypatch.setattr(width, "_centralizer", lambda *a: built.append(a) or _centralizer(*a))
    shallow = min_width_search(x, members, witnesses, lambda o: o > 3, group=G)
    assert (shallow.value, shallow.states_visited, built) == (2, 2, [])
    assert len(members._column) <= LEVEL_TWO_PREFIX
    deep = min_width_search(x, members, witnesses, lambda o: False, max_width=2, group=G)
    assert deep.status == "width_budget" and len(built) == 1
    assert len(members._column) == len(witnesses._column) == 70
    lists = conjugation_orbit(G, x, G.order_int)
    lazily = _CentralizerOrbits(G, members, witnesses)
    assert list(lazily.level_two()) == list(_CentralizerOrbits(G, *lists).level_two())
    assert deep == min_width_search(x, *lists, lambda o: False, max_width=2, group=G)


def test_alpha_of_a_triple_transposition_in_alt10_is_pinned():
    """alpha = 3 on (Alt(10), (1 2)(3 4)(5 6)), a class of 3,150, in 147
    states: level 2 extends <x> by 34 of the conjugates."""
    ctx = AlmostSimpleContext.build(alternating_group(10), P("(1 2)(3 4)(5 6)", 10))
    level_two = _CentralizerOrbits(ctx.socle, ctx.conjugates, ctx.witnesses).level_two()
    assert len(ctx.conjugates) == 3150 and len(list(level_two)) == 34
    res = alpha(ctx)
    assert (res.value, res.status, res.states_visited) == (3, "found", 147)
    assert [str(w) for w in res.witness] == [
        "()", "(2 3 4 5 6 7 8 9 10)", "(1 7 3)(2 8 4 9 5 10 6)"
    ]
    assert [str(m) for m in res.members] == [
        "(1 2)(3 4)(5 6)", "(1 3)(4 5)(6 7)", "(1 9)(2 10)(7 8)"
    ]
    assert_witness_is_sound(res, ctx.element, lambda o: o == ctx.ambient.order_int)


# -- the per-state reduction below level 2 ---------------------------------------------


def test_three_cycles_of_alt9_agree_with_the_unreduced_engine():
    """The gain grows at degree 9: alpha takes 100 states where the
    unreduced engine takes 9,491."""
    ctx = AlmostSimpleContext.build(alternating_group(9), P("(1 2 3)", 9))
    target = ctx.ambient.order_int
    for pred, states in [(lambda o: o == target, (100, 9491)), (lambda o: o % 7 == 0, (28, 331))]:
        pruned = min_width_search(
            ctx.element, ctx.conjugates, ctx.witnesses, pred, group=ctx.socle
        )
        plain = unreduced_search(ctx, pred)
        assert (pruned.value, pruned.explored_width, pruned.status) == (
            plain.value, plain.explored_width, plain.status
        )
        assert (pruned.states_visited, plain.states_visited) == states
        assert_witness_is_sound(pruned, ctx.element, pred)


def test_a_centralizer_over_the_listed_cap_keeps_only_level_two_reduction(monkeypatch):
    """|x^L| = 112 and |C| = 180 for (Alt(8), (1 2 3)).  A ``LISTED_CAP``
    between them lists no element of C, so the search takes the 431 states
    of the level-2 reduction alone, to the same value and members."""
    ctx = AlmostSimpleContext.build(alternating_group(8), P("(1 2 3)", 8))
    default = alpha(ctx)
    assert default.states_visited == 57
    monkeypatch.setattr(width, "LISTED_CAP", 150)
    unlisted = alpha(ctx)
    assert unlisted.states_visited == 431
    assert replace(unlisted, states_visited=default.states_visited) == default
    assert [str(m) for m in unlisted.members] == [str(m) for m in default.members]


@pytest.mark.parametrize("n,rep", [(6, "(1 2)(3 4)"), (7, "(1 2 3)"), (6, "(1 2 3)(4 5 6)")])
def test_orbit_representatives_reach_every_order(n, rep):
    """For states at widths 2 and 3, the orders of <H, y> over the kept
    representatives are those over every conjugate.  At width 2 the listed
    normaliser is all of N_C(H); at width 3 it is a subgroup of N_C(H)."""
    ctx = AlmostSimpleContext.build(alternating_group(n), P(rep, n))
    conjugates = ctx.conjugates
    index = {y: i for i, y in enumerate(conjugates)}
    elements = _centralizer(ctx.socle, conjugates, ctx.witnesses, index).element_tuples()
    root = PermGroup.from_generators([ctx.element])

    def normalises(c, H):
        return all(H._contains_tuple(conjugate_images(g, c)) for g in H.gens)

    kept = []

    def same_orders(H, listed):
        reps = _orbit_representatives(listed, conjugates, index)
        kept.append(len(reps))
        orders = [H.extend(y).order_int for y in conjugates]
        return {orders[i] for i in reps} == set(orders)

    for j in range(1, len(conjugates), 7):
        H = root.extend(conjugates[j])
        listed = _normalising(H, conjugates[j], elements)
        assert sorted(listed) == sorted(c for c in elements if normalises(c, H))
        assert same_orders(H, listed)
        for i in range(j % 5, len(conjugates), 23):
            K = H.extend(conjugates[i])
            deeper = _normalising(K, conjugates[i], listed)
            assert all(normalises(c, K) for c in deeper)
            as_group = PermGroup.from_generators([Permutation(c) for c in deeper], n)
            assert as_group.order_int == len(deeper)  # listed as a whole subgroup
            assert same_orders(K, deeper)
    assert len(kept) >= 10 and min(kept) < len(conjugates)


# -- pruned against the brute-force oracle -------------------------------------------


ORACLE_CONTEXTS = [
    (5, "(1 2)"), (5, "(1 2)(3 4)"), (5, "(1 2 3)"), (5, "(1 2 3 4 5)"),
    (6, "(1 2 3)"), (6, "(1 2 3)(4 5 6)"), (6, "(1 2)(3 4)"), (6, "(1 2 3 4 5)"),
]


@pytest.mark.parametrize("n,rep", ORACLE_CONTEXTS)
def test_alpha_and_beta_match_the_brute_force_oracle(n, rep):
    ctx = AlmostSimpleContext.build(alternating_group(n), P(rep, n))
    target = ctx.ambient.order_int
    cases = [(lambda o: o == target)]
    cases += [(lambda o, r=r: o % r == 0) for r in (2, 3, 5, 7)]
    for pred in cases:
        res = min_width_search(
            ctx.element, ctx.conjugates, ctx.witnesses, pred, group=ctx.socle
        )
        members = [Permutation(y) for y in ctx.conjugates]
        assert res.value == min_generating_width(members, n, pred)
        if res.value is None:  # beta_7: absent at every width
            assert res.saturated and res.exhaustive
        else:
            assert_witness_is_sound(res, ctx.element, pred)


@pytest.mark.parametrize("name", ["S5", "A5", "psl2(7)", "D8", "D10"])
def test_non_pi_widths_match_the_brute_force_oracle(name):
    """Every class of G and every prime set inside |G|'s support (the empty
    and the full set included, so absent verdicts are covered too)."""
    G = group_by_name(name)
    primes = sorted(G.order.prime_support)
    absent = 0
    for rep, _ in class_representatives(G):
        members, wits = conjugation_orbit(G, rep)
        for k in range(len(primes) + 1):
            for sub in itertools.combinations(primes, k):
                pred = non_pi(PrimeSet.of(*sub))
                res = min_width_search(rep, members, wits, pred, group=G)
                as_perms = [Permutation(y) for y in members]
                assert res.value == min_generating_width(as_perms, G.degree, pred), (
                    rep, sub,
                )
                if res.value is None:
                    absent += 1
                    assert res.saturated and res.exhaustive
                else:
                    assert_witness_is_sound(res, rep, pred)
    assert absent > 0


# -- shape keys for transposition states ----------------------------------------------


def assert_shapes_agree_with_exact_partitions(monkeypatch, x, conjugates, witnesses, group, pred):
    """The shape-keyed search returns the value, witness and members of the
    same search keyed by exact partitions (the certificate refused), and its
    status and explored width whenever either one is found; one that finds
    nothing may end at another width with fewer states (see the module
    docstring of ``width``)."""
    def search():
        return min_width_search(x, conjugates, witnesses, pred, group=group)

    keyed = search()
    with monkeypatch.context() as m:
        m.setattr(width, "_shapes_are_orbits", lambda *a: False)
        exact = search()
    fields = ("value", "witness", "members", "certificate_order")
    assert [getattr(keyed, f) for f in fields] == [getattr(exact, f) for f in fields], x
    if "found" in (keyed.status, exact.status):
        assert (keyed.status, keyed.explored_width) == (exact.status, exact.explored_width)
        assert keyed.states_visited <= exact.states_visited


def assert_shapes_agree_on_transposition_classes(monkeypatch, G: PermGroup) -> int:
    """Every transposition class of G, for the order predicates the engine
    asks (the whole group, divisibility by each prime, non-pi for each
    pi); returns the number of classes whose shapes are certified."""
    primes = sorted(G.order.prime_support)
    preds = [lambda o: o == G.order_int] + [lambda o, r=r: o % r == 0 for r in primes]
    preds += [
        non_pi(PrimeSet.of(*sub))
        for k in range(len(primes) + 1)
        for sub in itertools.combinations(primes, k)
    ]
    certified = 0
    for rep, size in class_data(G).reps:
        if not rep.is_transposition():
            continue
        members, witnesses = conjugation_orbit(G, rep)
        certified += width._shapes_are_orbits(G, rep, size)
        for pred in preds:
            assert_shapes_agree_with_exact_partitions(monkeypatch, rep, members, witnesses, G, pred)
    return certified


def test_shape_keys_agree_with_exact_partitions_on_the_catalog_and_products(monkeypatch):
    names = [e.name for e in catalog_groups(max_order=10**4)] + BENCHMARK_PRODUCTS
    certified = sum(
        assert_shapes_agree_on_transposition_classes(monkeypatch, new_group(name))
        for name in names
    )
    assert certified >= 6  # S2, ..., S7 at least; no benchmark product is certified


def test_shape_keys_agree_with_exact_partitions_on_every_context(monkeypatch):
    for label, ctx, rs in every_context():
        if not ctx.element.is_transposition():
            continue
        assert width._shapes_are_orbits(ctx.socle, ctx.element, len(ctx.conjugates)), label
        target = ctx.ambient.order_int
        for pred in [lambda o: o == target] + [lambda o, r=r: o % r == 0 for r in rs]:
            assert_shapes_agree_with_exact_partitions(
                monkeypatch, ctx.element, ctx.conjugates, ctx.witnesses, ctx.socle, pred
            )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(random_groups())
@example((P("(1 2)", 6), P("(1 3 5)(2 4 6)")))  # S2 wr C3: (1 2) not certified
@example((P("(1 2)", 7), P("(1 2 3 4 5 6 7)")))  # Sym(7): certified
def test_shape_keys_agree_with_exact_partitions_on_random_groups(pair):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_shapes_agree_on_transposition_classes(monkeypatch, PermGroup.from_generators(pair))


def brute_force_projection(G: PermGroup, x: Permutation) -> set[tuple[int, ...]]:
    """The images on the points x fixes of every element of C_G(x)."""
    fixed = [i for i, image in enumerate(x.images) if image == i]
    return {
        tuple(g[i] for i in fixed)
        for g in G.element_tuples()
        if conjugate_images(x.images, g) == x.images
    }


@pytest.mark.parametrize(
    "gens, x, certified",
    [
        (["(1 2 3)", "(1 2 3 4 5 6)"], "(1 2)", True),  # Alt(6), x outside it
        (["(1 2)", "(1 2 3 4 5 6)"], "(1 2)", True),  # Sym(6)
        (["(1 2)", "(1 3 5)(2 4 6)", "(1 3)(2 4)"], "(1 2)", False),  # S2 wr S3
        (["(1 2)", "(3 4)", "(3 4 5 6 7)"], "(1 2)", True),  # S2 x S5, intransitive
        (["(1 2)", "(1 2 3)", "(4 5)", "(4 5 6 7)"], "(1 2)", False),  # S3 x S4
    ],
)
def test_the_shape_certificate_is_the_projection_of_the_centralizer(gens, x, certified):
    """``_shapes_are_orbits`` holds exactly when C_G(x) induces all of
    Sym(F) on the points F that x fixes, counted here by brute force: on
    S2 wr S3, |C| = 16 and the projection has order 8 < 4!; on S3 x S4,
    C = <(1 2)> x S4 fixes the point 3 of F = {3, ..., 7}."""
    degree = max(len(P(g).images) for g in gens)
    G = PermGroup.from_generators([P(g, degree) for g in gens])
    t = P(x, degree)
    members, _ = conjugation_orbit(G, t)
    assert width._shapes_are_orbits(G, t, len(members)) is certified
    projection = brute_force_projection(G, t)
    assert (len(projection) == math.factorial(degree - 2)) is certified
    if gens[1] == "(1 3 5)(2 4 6)":
        assert (G.order_int // len(members), len(projection)) == (16, 8)


def test_a_shape_keyed_search_builds_no_centralizer(monkeypatch):
    """alpha of (1 2) on Alt(n) visits one state per shape it reaches: 45 on
    Alt(9) (1,562 by exact partitions), at most 100 on Alt(11) (38,165),
    and builds no C on the way."""
    def fail(*_args):
        raise AssertionError("centralizer built for a shape-keyed search")

    monkeypatch.setattr(width, "_CentralizerOrbits", fail)
    for n, states in [(9, 45), (11, 97)]:
        ctx = AlmostSimpleContext.build(alternating_group(n), P("(1 2)", n))
        res = alpha(ctx)
        assert (res.value, res.status) == (n - 1, "found")
        assert res.states_visited == states <= 100
        assert [str(m) for m in res.members] == [f"({i} {i + 1})" for i in range(1, n)]
