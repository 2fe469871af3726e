"""Width searches: generation counts, radical membership, pair checks."""

import contextlib
import dataclasses
import gc
import itertools
import math
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from piradical import (
    AlmostSimpleContext,
    BudgetExhausted,
    CentralizesSocle,
    FactoredInteger,
    InvariantViolation,
    NotAlmostSimple,
    NotATransposition,
    NotNormalizing,
    PermGroup,
    Permutation,
    PrimeSet,
    RNotDividingOrder,
    alpha,
    alternating_group,
    baer_suzuki_check,
    beta,
    bs_membership,
    catalog_groups,
    class_data,
    cyclic_group,
    dihedral_group,
    is_pi_group,
    is_pi_number,
    is_prime,
    min_width_search,
    minimal_membership_width,
    normal_subgroups,
    pi_radical,
    prime_order_class_representatives,
    projective_semilinear_9,
    symmetric_group,
    transposition_pi_sweep,
)
from piradical import structure, width
from piradical.width import _Chains, _Partitions, _merged, _partition_order, _search

from .oracles import transposition_shape_histogram

P = Permutation.parse


def ctx_a5(x_text: str) -> AlmostSimpleContext:
    return AlmostSimpleContext.build(alternating_group(5), P(x_text, 5))


# -- alpha and beta on hand-checked instances ---------------------------------


def test_alpha_of_transposition_on_five_points():
    res = alpha(ctx_a5("(1 2)"))
    assert res.value == 4
    assert res.exhaustive and res.revalidate()
    assert res.certificate_order.value == 120


def test_alpha_of_three_cycle_on_five_points():
    res = alpha(ctx_a5("(1 2 3)"))
    assert res.value == 2
    assert res.certificate_order.value == 60
    assert res.revalidate()


def test_beta_three_of_transposition_on_five_points():
    res = beta(ctx_a5("(1 2)"), 3)
    assert res.value == 2
    assert res.states_visited <= 10
    assert res.revalidate(lambda o: o % 3 == 0)


def test_beta_five_of_transposition_on_five_points():
    res = beta(ctx_a5("(1 2)"), 5)
    assert res.value == 4
    assert res.revalidate(lambda o: o % 5 == 0)


def test_beta_two_of_three_cycle_on_five_points():
    res = beta(ctx_a5("(1 2 3)"), 2)
    assert res.value == 2


def test_beta_three_of_semilinear_involution():
    nine = projective_semilinear_9()
    ctx = AlmostSimpleContext.build(nine.socle, nine.involution_outside_s6)
    res = beta(ctx, 3)
    assert res.value == 3
    assert res.exhaustive and res.revalidate(lambda o: o % 3 == 0)


def test_beta_requires_prime_dividing_ambient_order():
    with pytest.raises(RNotDividingOrder):
        beta(ctx_a5("(1 2)"), 7)
    with pytest.raises(ValueError):
        beta(ctx_a5("(1 2)"), 6)


def test_beta_never_exceeds_alpha():
    for x_text in ["(1 2)", "(1 2)(3 4)", "(1 2 3)", "(1 2 3 4 5)"]:
        ctx = ctx_a5(x_text)
        a = alpha(ctx)
        for r in (2, 3, 5):
            b = beta(ctx, r)
            assert b.value is not None and b.value <= a.value


# -- the raw search engine ------------------------------------------------------


def test_trivial_predicate_is_width_one():
    ctx = ctx_a5("(1 2 3)")
    res = min_width_search(
        ctx.element, ctx.conjugates, ctx.witnesses, lambda o: o % 1 == 0
    )
    assert res.value == 1
    assert res.members == (ctx.element,)


def test_unsatisfiable_predicate_saturates():
    ctx = ctx_a5("(1 2 3)")
    res = min_width_search(
        ctx.element, ctx.conjugates, ctx.witnesses, lambda o: o % 7 == 0
    )
    assert res.value is None and res.status == "absent"
    assert res.saturated and res.exhaustive
    assert not res.revalidate()


def test_width_budget_reports_honest_lower_bound():
    ctx = ctx_a5("(1 2)")
    res = beta(ctx, 5, max_width=2)
    assert res.value is None
    assert res.explored_width == 2 and res.lower_bound == 3
    assert not res.saturated


STATUS_CASES = {
    # status: (socle degree, x, max_width, state cap or None, value)
    "found": (5, "(1 2)", width.MAX_WIDTH, None, 4),
    # <x^L> is the Klein four-group, a proper normal subgroup of Alt(4)
    "absent": (4, "(1 2)(3 4)", width.MAX_WIDTH, None, None),
    "width_budget": (5, "(1 2 3)", 1, None, None),
    "state_budget": (5, "(1 2)(3 4)", 2, 5, None),
}


@pytest.mark.parametrize("status", list(STATUS_CASES))
def test_each_status_through_the_library(status, monkeypatch):
    """One status per way a search ends; ``exhaustive`` only for found and
    absent, ``saturated`` only for absent.  ``width.STATE_CAP`` is lowered
    for ``state_budget``."""
    n, x, max_width, state_cap, value = STATUS_CASES[status]
    if state_cap is not None:
        monkeypatch.setattr(width, "STATE_CAP", state_cap)
    ctx = AlmostSimpleContext.build(alternating_group(n), P(x, n))
    res = alpha(ctx, max_width)
    assert res.status == status and res.value == value
    assert res.exhaustive == (status in ("found", "absent"))
    assert res.saturated == (status == "absent")
    if value is not None:
        assert res.revalidate(lambda o: o == ctx.ambient.order_int)


def no_search(*args, **kwargs):
    raise AssertionError("a class over the class cap was searched")


def test_membership_checks_raise_only_when_nothing_was_searched_to_width(monkeypatch):
    """A search stopped at width m still searched every tuple up to m; one
    stopped by ``width.STATE_CAP`` (lowered here, on fresh groups, so that
    no kept search answers) did not, and raises.  A class over
    ``structure.CLASS_CAP`` is refused before any search, even where a
    search of part of it would find a value."""
    G = symmetric_group(5)
    pi = PrimeSet.of(2, 3)
    res = bs_membership(G, pi, 3)
    transposition = next(r for r in res.records if r.representative.is_transposition())
    assert transposition.violation_width is None and transposition.exhaustive
    with pytest.raises(BudgetExhausted):
        minimal_membership_width(G, pi, max_width=3)
    monkeypatch.setattr(width, "STATE_CAP", 1)
    with pytest.raises(BudgetExhausted):
        bs_membership(symmetric_group(5), pi, 3)
    with pytest.raises(BudgetExhausted):
        baer_suzuki_check(symmetric_group(5), 2)
    monkeypatch.undo()
    monkeypatch.setattr(structure, "CLASS_CAP", 3)
    with pytest.raises(BudgetExhausted):
        bs_membership(symmetric_group(5), pi, 3)
    # O_2(S5) is trivial, so the first class searched is the 10 transpositions
    monkeypatch.setattr(structure, "CLASS_CAP", 5)
    monkeypatch.setattr(width, "min_width_search", no_search)
    H = symmetric_group(5)
    with pytest.raises(BudgetExhausted, match="10 members, more than the class cap of 5"):
        bs_membership(H, PrimeSet.of(2), 2)


def test_a_class_of_non_pi_order_over_the_cap_is_answered_at_width_one(monkeypatch):
    """<x> alone is not a pi-group when the order of x is not a pi-number, so
    such a class needs no class table, and the class cap does not refuse it:
    on S5 with pi = {2,3} and a cap of 1, the 24 five-cycles read width 1
    and the 10 transpositions are refused."""
    G = symmetric_group(5)
    pi = PrimeSet.of(2, 3)
    monkeypatch.setattr(structure, "CLASS_CAP", 1)
    monkeypatch.setattr(width, "min_width_search", no_search)
    res = width._class_search(G, P("(1 2 3 4 5)"), pi, width.MAX_WIDTH)
    assert (res.value, res.status, res.members) == (1, "found", (P("(1 2 3 4 5)"),))
    with pytest.raises(BudgetExhausted, match="10 members, more than the class cap of 1"):
        width._class_search(G, P("(1 2)", 5), pi, width.MAX_WIDTH)


def test_first_conjugate_must_be_the_element():
    ctx = ctx_a5("(1 2)")
    with pytest.raises(ValueError):
        min_width_search(
            P("(1 3)", 5), ctx.conjugates, ctx.witnesses, lambda o: o > 1
        )


def test_witnesses_conjugate_the_element():
    ctx = ctx_a5("(1 2)(3 4)")
    assert len(ctx.conjugates) == 15
    assert all(
        ctx.element ** Permutation(w) == Permutation(m)
        for w, m in zip(ctx.witnesses, ctx.conjugates)
    )


def test_transposition_fast_path_matches_generic_search():
    """The partition states of a transposition class (the fast path) against
    the chain states that serve every class, through the same driver: every
    field but the state count agrees, for alpha and every beta_r.  The
    counts differ by design: chain children are counted before
    deduplication, partitions only when new."""
    for n in (5, 6, 7):
        ctx = AlmostSimpleContext.build(alternating_group(n), P("(1 2)", n))
        target = ctx.ambient.order_int
        preds = {"alpha": lambda o: o == target}
        for r in (2, 3, 5, 7):
            if r <= n:
                preds[f"beta[{r}]"] = lambda o, r=r: o % r == 0
        for kind, pred in preds.items():
            fast = min_width_search(ctx.element, ctx.conjugates, ctx.witnesses, pred)
            chains = _search(
                _Chains(ctx.element, ctx.conjugates), ctx.conjugates,
                ctx.witnesses, pred, width.MAX_WIDTH,
            )
            assert fast.value is not None and fast.exhaustive, (n, kind)
            assert dataclasses.replace(fast, states_visited=0) == dataclasses.replace(
                chains, states_visited=0
            ), (n, kind)
            assert PermGroup.from_generators(fast.members).same_group_as(
                PermGroup.from_generators(chains.members)
            )


def test_states_visited_counts_are_pinned():
    """A state is every chain child before deduplication, but only a new
    partition.  Level 2 extends <x> by the first ``LEVEL_TWO_PREFIX``
    conjugates, then by the least conjugate of each C_L(x)-orbit they do not
    meet, and keeps one state per orbit; a chain state from width 2 on is
    extended only by the least conjugate of each orbit of its listed
    normaliser, and a chain child inside an earlier sibling is counted but
    never built.  These counts guard those rules across refactors (the
    unreduced counts are pinned in test_width_reduction).  The transposition
    classes run on partitions, kept one per shape, which here is one per
    C_L(x)-orbit, with no prefix: alpha of (1 2) on Alt(n) visits one state
    per shape it reaches.  Of the S7 membership searches at m = 2, the one
    on (1 2), whose class has 21 members and no pair generating a non-pi
    group, visits <x> and the two shapes of a pair, one point shared or
    none; the others succeed within the prefix and count as the unreduced
    engine does."""
    def ctx(n, x):
        return AlmostSimpleContext.build(alternating_group(n), P(x, n))

    assert alpha(ctx(9, "(1 2)")).states_visited == 45
    assert alpha(ctx(8, "(1 2)")).states_visited == 30
    assert beta(ctx(8, "(1 2)"), 7).states_visited == 24
    assert alpha(ctx(8, "(1 2)(3 4)")).states_visited == 346
    assert beta(ctx(8, "(1 2)(3 4)(5 6)(7 8)"), 5).states_visited == 98
    assert alpha(ctx(8, "(1 2 3)")).states_visited == 49
    assert beta(ctx(8, "(1 2)(3 4)"), 7).states_visited == 35
    assert alpha(ctx(7, "(1 2)(3 4)")).states_visited == 35
    assert alpha(ctx(6, "(1 2)(3 4)(5 6)")).states_visited == 52
    res = bs_membership(symmetric_group(7), PrimeSet.of(2, 3), 2)
    assert [r.states_visited for r in res.records] == [
        0, 3, 2, 2, 1, 1, 3, 3, 2, 1, 6, 3, 2, 2, 4
    ]


def test_pair_scan_honours_the_state_budget(monkeypatch):
    """A search that ends at width 2, over the pairs <x, y>, counts each
    pair against ``width.STATE_CAP`` (lowered here) like any other child: it
    stops at the first state past the cap."""
    monkeypatch.setattr(width, "STATE_CAP", 5)
    res = alpha(ctx_a5("(1 2)(3 4)"), max_width=2)
    assert res.status == "state_budget" and not res.exhaustive
    assert res.states_visited == 6
    assert res.value is None and res.explored_width == 1
    monkeypatch.undo()
    full = alpha(ctx_a5("(1 2)(3 4)"), max_width=2)
    assert full.status == "width_budget" and full.states_visited == 15


@pytest.mark.parametrize(
    "max_width, status, explored, states",
    [
        (1, "width_budget", 1, 1),
        (2, "width_budget", 2, 3),
        (3, "absent", 3, 3),
        (4, "absent", 3, 3),
    ],
)
def test_a_search_ends_at_its_last_width_as_its_frontier_says(max_width, status, explored, states):
    """The frontier of (Alt(4), (1 2)(3 4)) is <x>, then the Klein
    four-group, then empty at width 3.  A search stopped by ``max_width``
    with states left to extend reports ``width_budget``; one whose last
    width added no state reports ``absent``, at the width where it
    emptied."""
    ctx = AlmostSimpleContext.build(alternating_group(4), P("(1 2)(3 4)", 4))
    res = alpha(ctx, max_width)
    assert (res.status, res.explored_width, res.states_visited) == (status, explored, states)


def test_chain_buckets_by_order_never_merge_two_subgroups():
    """Subgroups of one order share a bucket whatever their orbits; the
    generator sifts alone tell them apart, and a known subgroup built from
    other generators is refused.  Every state holds the root x as its first
    generator, as in a search, so only the others are sifted."""
    def grp(*gens):
        return PermGroup.from_generators([P(g, 4) for g in ("(1 2)", *gens)], 4)

    x = P("(1 2)", 4)
    chains = _Chains(x, [x.images])
    for H in (
        grp(),
        grp("(3 4)"),  # orbits {1, 2}, {3, 4}
        grp("(1 3)"),  # Sym{1, 2, 3}
        grp("(1 4)"),  # Sym{1, 2, 4}: the same order, other orbits
        grp("(3 4)", "(1 3)(2 4)"),  # transitive
        grp("(1 3 4)"),  # Sym(4)
    ):
        assert chains.admit(H)
    assert sorted(map(len, chains.buckets.values())) == [1, 1, 1, 1, 2]
    assert not chains.admit(grp("(2 3)"))
    assert not chains.admit(grp("(2 4)", "(1 4)"))
    assert not chains.admit(grp("(1 2)(3 4)"))
    assert not chains.admit(grp("(1 3)(2 4)", "(1 4)(2 3)"))
    assert not chains.admit(grp())


def test_a_search_rejects_a_width_below_one():
    ctx = ctx_a5("(1 2)")
    for max_width in (0, -1):
        with pytest.raises(ValueError, match="max_width"):
            min_width_search(
                ctx.element, ctx.conjugates, ctx.witnesses, bool, max_width=max_width
            )
        with pytest.raises(ValueError, match="max_width"):
            alpha(ctx, max_width)
    assert min_width_search(
        ctx.element, ctx.conjugates, ctx.witnesses, bool, max_width=1
    ).value == 1


# -- context construction guards ------------------------------------------------


def test_build_rejects_non_normalizing_element():
    socle = PermGroup.from_generators([P("(1 2 3 4)")])
    with pytest.raises(NotNormalizing):
        AlmostSimpleContext.build(socle, P("(1 2)", 4))


def test_build_rejects_centralizing_element():
    socle = PermGroup.from_generators([P("(1 2 3)", 7), P("(3 4 5)", 7)])
    with pytest.raises(CentralizesSocle):
        AlmostSimpleContext.build(socle, P("(6 7)", 7))


def test_build_rejects_a_context_that_is_not_almost_simple():
    """The 8-cycle is D8's own rotation, so the ambient group is D8, whose
    centre holds the half-turn (1 5)(2 6)(3 7)(4 8).  That is the caller's
    input, not a bug of the package, so it is a ValueError and not an
    InvariantViolation."""
    with pytest.raises(NotAlmostSimple, match=r"contains \(1 5\)\(2 6\)\(3 7\)\(4 8\)") as exc:
        AlmostSimpleContext.build(dihedral_group(8), P("(1 2 3 4 5 6 7 8)"))
    assert isinstance(exc.value, ValueError)
    assert not isinstance(exc.value, InvariantViolation)


def giant_contexts():
    """(socle, x) for every prime-order class of Sym(n) over Alt(n), n = 5..9
    (the odd x among them lie outside the socle), and every class of Sym(n)
    but the identity over Sym(n), n = 5..8."""
    for n in range(5, 10):
        A = alternating_group(n)
        yield from ((A, rep) for rep, _, _ in prime_order_class_representatives(n))
    for n in range(5, 9):
        S = symmetric_group(n)
        yield from ((S, rep) for rep, _ in structure.class_representatives(S)[1:])


def test_a_giant_context_reads_its_class_size_off_the_cycle_type():
    """Over Alt(n) or Sym(n) a context's class is as long as the cycle type
    of x says, and traced to the end it is ``conjugation_orbit``'s class,
    member for member and witness for witness, of that size."""
    for socle, x in giant_contexts():
        ctx = AlmostSimpleContext.build(socle, x)
        members, witnesses = structure.conjugation_orbit(socle, x, socle.order_int)
        assert len(ctx.conjugates) == len(ctx.witnesses) == len(members), (socle.order_int, x)
        assert list(ctx.conjugates) == members and list(ctx.witnesses) == witnesses


def test_the_ambient_group_is_the_socle_when_x_lies_in_it():
    """x in L: <L, x> is L, the socle object itself; x outside L: a group
    of twice its order, and alpha asks each for its own ambient order."""
    A5 = alternating_group(5)
    inside = AlmostSimpleContext.build(A5, P("(1 2 3)", 5))
    assert inside.ambient is A5
    outside = AlmostSimpleContext.build(A5, P("(1 2)", 5))
    assert outside.ambient is not A5 and outside.ambient.order_int == 120
    nine = projective_semilinear_9()
    assert AlmostSimpleContext.build(nine.socle, nine.involution_outside_s6).ambient is not nine.socle
    assert (alpha(inside).value, alpha(outside).value) == (2, 4)


def test_a_giant_context_over_the_class_cap_is_refused_before_any_trace(monkeypatch):
    """A class over ``structure.CLASS_CAP`` (lowered here) on a giant socle
    is refused from its size alone: no member is conjugated."""
    traced = []
    trace = structure._Tracer.trace
    monkeypatch.setattr(structure._Tracer, "trace", lambda t, *a: traced.append(t) or trace(t, *a))
    monkeypatch.setattr(structure, "CLASS_CAP", 69)
    with pytest.raises(BudgetExhausted, match="70 members, more than the class cap of 69"):
        AlmostSimpleContext.build(alternating_group(7), P("(1 2 3)", 7))
    assert traced == []
    monkeypatch.setattr(structure, "CLASS_CAP", 70)
    ctx = AlmostSimpleContext.build(alternating_group(7), P("(1 2 3)", 7))
    assert traced == [] and len(ctx.conjugates) == 70


def test_a_lazy_class_table_reads_like_a_list():
    """Indices, negative indices and slices of a class table traced as it is
    read give what they give on the list of the whole class, on a fresh
    table and on one traced to its end; a class table of the class data
    slices the same way."""
    socle, x = symmetric_group(6), P("(1 2 3)", 6)
    whole, _ = structure.conjugation_orbit(socle, x, socle.order_int)
    reads = [0, 5, -1, -40, 39, slice(1, None), slice(-3, None), slice(None, 10, 3),
             slice(30, 2, -7), slice(5, 5)]
    for read_all_first in (False, True):
        for i in reads:
            ctx = AlmostSimpleContext.build(socle, x)  # a table not yet traced
            if read_all_first:
                list(ctx.conjugates)
            assert ctx.conjugates[i] == whole[i], i
        for bad in (40, -41):
            with pytest.raises(IndexError):
                ctx.conjugates[bad]
    G = PermGroup.from_generators(socle.generators)  # fresh class data
    data = class_data(G)
    rep = next(rep for rep, _ in data.reps if rep.cycle_type() == (3,))
    members, _ = data.class_table(rep)
    assert members[1:] == structure.conjugation_orbit(G, rep)[0][1:]


def brute_force_centralizer(ambient: PermGroup, socle: PermGroup) -> list[Permutation]:
    """The elements of ``ambient`` other than the identity that commute with
    every generator of ``socle``, in enumeration order."""
    return [
        e for e in map(Permutation, ambient.element_tuples()[1:])
        if all(e * g == g * e for g in socle.generators)
    ]


def assert_centralizer_element_is_right(ambient: PermGroup, socle: PermGroup) -> None:
    """None exactly when the brute-force scan finds nothing; otherwise an
    element it finds, and for a transitive socle the one with the least
    image of point 1."""
    found = width._nontrivial_centralizer_element(ambient, socle)
    central = brute_force_centralizer(ambient, socle)
    if not central:
        assert found is None
        return
    assert found in central
    if socle.is_transitive():
        assert found == min(central, key=lambda c: c.apply(1))


@pytest.mark.parametrize(
    "entry", catalog_groups(max_order=10**4), ids=lambda entry: entry.name
)
def test_the_centralizer_element_of_a_catalog_group_matches_a_scan(entry):
    assert_centralizer_element_is_right(entry.group, entry.group)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 7).flatmap(
        lambda n: st.lists(
            st.permutations(range(n)).map(lambda t: Permutation(tuple(t))),
            min_size=2,
            max_size=4,
        )
    )
)
def test_the_centralizer_element_of_a_random_socle_matches_a_scan(perms):
    """A socle of 1-3 random permutations, inside the ambient group it
    generates with one more."""
    *gens, extra = perms
    socle = PermGroup.from_generators(gens)
    assert_centralizer_element_is_right(socle.extend(extra.images), socle)


def test_the_centralizer_element_is_read_off_a_chain_not_based_at_point_one():
    """The reflection of the 8-gon that fixes point 1 comes first, so the
    socle's chain starts at point 2; the half-turn is still found."""
    reflection, rotation = P("(2 8)(3 7)(4 6)", 8), P("(1 2 3 4 5 6 7 8)")
    D8 = PermGroup.from_generators([reflection, rotation])
    assert D8.base[0] != 1
    found = width._nontrivial_centralizer_element(D8, D8)
    assert str(found) == "(1 5)(2 6)(3 7)(4 8)"


def test_ambient_is_socle_extended_by_element():
    ctx = ctx_a5("(1 2)")
    assert ctx.ambient.order_int == 120
    assert ctx.socle.is_normal_in(ctx.ambient)
    assert len(ctx.conjugates) == 10  # all transpositions form one socle class


# -- membership width against the radical ----------------------------------------


def test_membership_width_three_fails_on_five_points():
    G = symmetric_group(5)
    res = bs_membership(G, PrimeSet.of(2, 3), 3)
    assert not res.holds
    assert res.violating_element.is_transposition()
    assert res.radical_order.is_one()
    assert res.exhaustive


def test_membership_width_eleven_holds_on_five_points():
    G = symmetric_group(5)
    res = bs_membership(G, PrimeSet.of(2, 3), 11)
    assert res.holds and res.violating_element is None


def test_membership_width_is_monotone_in_m():
    G = symmetric_group(5)
    pi = PrimeSet.of(2, 3)
    verdicts = [bs_membership(G, pi, m).holds for m in (1, 2, 3, 4, 5)]
    assert verdicts == [False, False, False, True, True]
    for earlier, later in zip(verdicts, verdicts[1:]):
        assert later or not earlier  # holds never reverts as m grows


small_generating_sets = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.permutations(range(n)).map(lambda t: Permutation(tuple(t))), min_size=1, max_size=2
    )
)


@settings(max_examples=50, deadline=None)
@given(small_generating_sets, st.sets(st.sampled_from([2, 3, 5])))
def test_membership_verdict_turns_true_once_at_the_minimal_width(gens, primes):
    """On random groups of degree at most 6, as m goes from 1 to 4, the
    verdict of bs_membership never turns false again, and it turns true
    exactly at minimal_membership_width (never, when that exceeds 4)."""
    G = PermGroup.from_generators(gens, degree=gens[0].degree)
    pi = PrimeSet.of(*primes)
    verdicts = [bs_membership(G, pi, m).holds for m in (1, 2, 3, 4)]
    assert verdicts == sorted(verdicts)  # False before True
    m_min, _ = minimal_membership_width(G, pi)
    assert verdicts == [m >= m_min for m in (1, 2, 3, 4)]


@st.composite
def random_groups(draw) -> tuple[Permutation, Permutation]:
    """Two permutations of n = 6..8 points, which half the time preserve
    the blocks of b consecutive points for a proper divisor b > 1 of n (so
    they generate a subgroup of a wreath product, often with a nontrivial
    radical): each is a permutation of the blocks with one of each block's
    points."""
    n = draw(st.integers(6, 8))
    sizes = [b for b in range(2, n) if n % b == 0]
    b = draw(st.sampled_from(sizes)) if sizes and draw(st.booleans()) else n

    def draw_permutation() -> Permutation:
        outer = draw(st.permutations(range(n // b)))
        inner = [draw(st.permutations(range(b))) for _ in outer]
        blocks = range(n // b)
        return Permutation(tuple(outer[i] * b + inner[i][j] for i in blocks for j in range(b)))

    return draw_permutation(), draw_permutation()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(random_groups())
def test_the_theorem_on_random_groups(pair):
    """The paper's main theorem on groups it never names: for every nonempty
    proper pi of the primes dividing |G|, width m(pi) settles membership in
    O_pi(G), width 2 settles it for pi = {p} (Baer-Suzuki), and the radical
    agrees with the closure route, which asks no certificate."""
    G = PermGroup.from_generators(pair)
    primes = sorted(G.order.prime_support)
    for k in range(1, len(primes)):
        for chosen in itertools.combinations(primes, k):
            pi = PrimeSet.of(*chosen)
            m, _ = minimal_membership_width(G, pi)
            assert m <= structure.membership_bound(pi), (pair, pi)
            if k == 1:
                assert m <= 2, (pair, pi)
            assert pi_radical(G, pi).same_group_as(structure._closure_radical(G, pi))


def test_minimal_membership_width_on_five_points():
    G = symmetric_group(5)
    m, per_rep = minimal_membership_width(G, PrimeSet.of(2, 3))
    assert m == 4
    widths = {str(rep): w for rep, w in per_rep}
    assert widths["(1 2)"] == 4
    assert max(widths.values()) == m
    assert all(w >= 1 for w in widths.values())


@pytest.mark.parametrize("cap", [6, 8])
def test_minimal_membership_width_refuses_a_class_over_the_budget(cap, monkeypatch):
    """A width found over part of a class need not be the class's minimum:
    on S6, (1 5 2 4)(3 6) reaches a non-{2,3} subgroup at width 2 over its
    90 conjugates, but only at width 3 over some of their subsets.  So a
    class over ``structure.CLASS_CAP`` (lowered here, after the minimum was
    found under the default one) is refused before any search."""
    G = symmetric_group(6)
    pi = PrimeSet.of(2, 3)
    _, per_rep = minimal_membership_width(G, pi)
    rep = next(r for r, _ in per_rep if str(r) == "(1 5 2 4)(3 6)")
    assert dict(per_rep)[rep] == 2
    monkeypatch.setattr(width, "min_width_search", no_search)
    monkeypatch.setattr(structure, "CLASS_CAP", cap)
    message = f"90 members, more than the class cap of {cap}"
    with pytest.raises(BudgetExhausted, match=message):
        width._class_search(symmetric_group(6), rep, pi, width.MAX_WIDTH)
    with pytest.raises(BudgetExhausted, match="more than the class cap"):
        minimal_membership_width(symmetric_group(6), pi)


@pytest.mark.parametrize(
    "state_cap,cap",
    [(None, None), (4, None), (None, 20)],
    ids=["budget0", "budget1", "budget2"],
)
def test_a_kept_class_search_answers_as_a_new_search_would(state_cap, cap, monkeypatch):
    """``minimal_membership_width`` keeps a found search for every class of
    S5 of {2,3}-order outside O_{2,3} that it reaches under the class cap (a
    cap of 20 refuses the 30 four-cycles); a later membership check reuses
    one only where a new search at its own width, and under the state cap
    then in force (lowered to 4 after the searches were kept), would return
    the same result, so every width m reads the same on that group as on a
    fresh copy."""
    if cap is not None:
        monkeypatch.setattr(structure, "CLASS_CAP", cap)
    pi = PrimeSet.of(2, 3)
    G = symmetric_group(5)
    with contextlib.suppress(BudgetExhausted):
        minimal_membership_width(G, pi)
    if state_cap is not None:
        monkeypatch.setattr(width, "STATE_CAP", state_cap)

    def check(group, m):
        try:
            return bs_membership(group, pi, m)
        except BudgetExhausted as e:
            return str(e)

    for m in (1, 2, 3, 4, 5):
        assert check(G, m) == check(symmetric_group(5), m), m


@pytest.mark.parametrize("state_cap", [None, 30], ids=["budget0", "budget1"])
def test_a_kept_search_answers_as_a_fresh_one_under_a_tight_class_budget(
    state_cap, monkeypatch
):
    """On S6 with pi = {2,3}, (1 4)(2 5)(3 6) has 15 conjugates and
    |C| = 48.  A class cap of 15 lets its class be searched, and the search
    kept under the default caps (width 4) must be what a fresh search under
    that class cap, and a state cap of 30 in one case, returns, or raises:
    the class cap never changes how a search runs."""
    pi = PrimeSet.of(2, 3)
    G = symmetric_group(6)
    minimal_membership_width(G, pi)
    monkeypatch.setattr(structure, "CLASS_CAP", 15)
    if state_cap is not None:
        monkeypatch.setattr(width, "STATE_CAP", state_cap)
    rep = P("(1 4)(2 5)(3 6)", 6)

    def search(group):
        try:
            return width._class_search(group, rep, pi, width.MAX_WIDTH)
        except BudgetExhausted as e:
            return str(e)

    kept = search(G)
    assert kept.value == 4
    assert kept == search(symmetric_group(6))


def test_membership_width_one_when_radical_is_everything():
    G = symmetric_group(4)
    res = bs_membership(G, PrimeSet.of(2, 3), 1)
    assert res.holds
    assert res.radical_order.value == 24
    assert all(rec.in_radical for rec in res.records)


def test_group_class_data_reuses_radicals():
    G = symmetric_group(4)
    data = class_data(G)
    pi = PrimeSet.of(2)
    assert pi_radical(G, pi) is pi_radical(G, pi)
    assert pi_radical(G, pi).order_int == 4
    assert sum(size for _, size in data.reps) == 24
    # every class table, traced to its end, holds the whole class
    assert all(len(list(data.class_table(rep)[0])) == size for rep, size in data.reps)


def test_class_data_is_computed_once_per_group_object(monkeypatch):
    """Every radical, lattice and membership call on one group object reads
    the classes of ``class_data(G)``; an equal but distinct group object
    has its own."""
    calls = []
    real = structure.class_representatives

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(structure, "class_representatives", counting)
    G = symmetric_group(5)
    pi = PrimeSet.of(2, 3)
    pi_radical(G, pi)
    normal_subgroups(G)
    bs_membership(G, pi, 2)
    minimal_membership_width(G, pi)
    baer_suzuki_check(G, 2)
    assert calls == [G]
    H = symmetric_group(5)
    bs_membership(H, pi, 2)
    assert calls == [G, H]


def test_a_group_is_never_answered_from_another_groups_classes():
    """With Alt(5)'s class data computed, Sym(5) still gets Sym(5)'s
    answers, and no call takes class data or closures as an argument."""
    A5 = alternating_group(5)
    data = class_data(A5)
    data.closures
    S5 = symmetric_group(5)
    pi = PrimeSet.of(2, 3)
    assert not bs_membership(S5, pi, 3).holds
    assert minimal_membership_width(S5, pi)[0] == 4
    assert pi_radical(S5, PrimeSet.of(2, 3, 5)).order_int == 120
    assert class_data(S5) is not data and class_data(S5).group is S5
    for call in [
        lambda: bs_membership(S5, pi, 3, data=data),
        lambda: minimal_membership_width(S5, pi, data=data),
        lambda: baer_suzuki_check(S5, 2, data=data),
        lambda: pi_radical(S5, pi, closures=data.closures),
        lambda: normal_subgroups(S5, closures=data.closures),
    ]:
        with pytest.raises(TypeError):
            call()


def test_class_data_is_freed_with_its_group_without_the_collector():
    """The class data refers to its group weakly, so reference counting
    alone frees both; class data kept past its group says so."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        G = symmetric_group(5)
        pi_radical(G, PrimeSet.of(2))
        bs_membership(G, PrimeSet.of(2, 3), 2)
        baer_suzuki_check(G, 3)
        group_ref, data_ref = weakref.ref(G), weakref.ref(class_data(G))
        del G
        assert group_ref() is None
        assert data_ref() is None
        kept = class_data(symmetric_group(3))
        with pytest.raises(ReferenceError):
            kept.reps
    finally:
        if enabled:
            gc.enable()


# -- pair checks -----------------------------------------------------------------


def test_classical_pair_equivalence_on_fixtures():
    """Every class outside O_p(G) has a witness pair, rebuilt here to
    generate a non-p group, and no class inside it is searched."""
    for G in [symmetric_group(4), alternating_group(5), dihedral_group(6)]:
        for p in sorted(G.order.prime_support):
            res = baer_suzuki_check(G, p)
            assert res.holds and res.pi == PrimeSet.of(p) and res.m == 2
            for rec in res.records:
                assert (rec.witness is None) == rec.in_radical
                if rec.witness is not None:
                    a, b = rec.witness[0], rec.witness[-1]
                    H = PermGroup.from_generators([a, b])
                    assert H.order_int == rec.witness_order.value
                    assert H.order.prime_support - {p}


def test_baer_suzuki_check_raises_on_a_failed_equivalence():
    """The raise is the check's only certificate: with O_2(S4) = V4 replaced
    by the trivial group, the class of (1 2)(3 4) is outside the "radical"
    yet all its pairs generate 2-groups."""
    G = symmetric_group(4)
    class_data(G)._radicals[PrimeSet.of(2)] = PermGroup.trivial(4)
    with pytest.raises(InvariantViolation, match="Baer-Suzuki equivalence failed"):
        baer_suzuki_check(G, 2)


@pytest.mark.parametrize(
    "generators",
    [["(1 2)(3 4)", "(1 2 3)"], ["(1 4)", "(1 2 4 3)"]],
    ids=["A4, not a 2-group", "D8, not normal"],
)
def test_baer_suzuki_check_raises_on_a_radical_that_is_not_a_normal_p_group(generators):
    """No class inside the radical is searched, so the radical itself is
    checked: O_2(S4) = V4 replaced by A4, which is not a 2-group, or by the
    Sylow 2-subgroup <(1 4), (1 2 4 3)>, which is not normal, raises, although
    every class outside either one has a pair generating a non-2-group."""
    G = symmetric_group(4)
    fake = PermGroup.from_generators([P(g, 4) for g in generators])
    class_data(G)._radicals[PrimeSet.of(2)] = fake
    with pytest.raises(InvariantViolation, match="Baer-Suzuki equivalence failed"):
        baer_suzuki_check(G, 2)


def test_pair_check_on_p_group_marks_everything_in_radical():
    G = cyclic_group(8)
    report = baer_suzuki_check(G, 2)
    assert report.radical_order.value == 8
    assert all(rec.in_radical for rec in report.records)


def test_two_conjugates_suffice_for_odd_prime_sets():
    cases = [
        (symmetric_group(4), PrimeSet.of(3)),
        (alternating_group(5), PrimeSet.of(3, 5)),
        (symmetric_group(5), PrimeSet.of(5)),
    ]
    for G, pi in cases:
        res = bs_membership(G, pi, 2)
        assert res.holds and res.m == 2


# -- the transposition partition model ---------------------------------------------


def partition_of(transpositions, degree):
    """The engine's partition of the points that ``transpositions`` glue
    together, folded with ``_merged``, and its blocks as 1-based tuples."""
    labels = tuple(range(degree))
    for t in transpositions:
        a, b = (point - 1 for point in t.moved_points())
        labels = _merged(labels, a, b) or labels
    blocks = {}
    for point, label in enumerate(labels):
        blocks.setdefault(label, []).append(point + 1)
    return labels, tuple(map(tuple, blocks.values()))


def matches_chain_build(transpositions, degree, labels, blocks):
    G = PermGroup.from_generators(transpositions, degree)
    return G.order_int == _partition_order(labels) and G.orbit_partition == blocks


def test_transposition_graph_components():
    T = [P("(1 2)", 5), P("(3 4)", 5)]
    labels, blocks = partition_of(T, 5)
    assert blocks == ((1, 2), (3, 4), (5,))
    assert _partition_order(labels) == 4
    assert is_pi_number(FactoredInteger.from_int(_partition_order(labels)), PrimeSet.of(2))
    assert matches_chain_build(T, 5, labels, blocks)


def test_transposition_graph_star_generates_everything():
    star = [P(f"(1 {k})", 5) for k in range(2, 6)]
    labels, blocks = partition_of(star, 5)
    assert blocks == ((1, 2, 3, 4, 5),)
    assert _partition_order(labels) == 120
    assert not is_pi_number(FactoredInteger.from_int(_partition_order(labels)), PrimeSet.of(2, 3))
    assert matches_chain_build(star, 5, labels, blocks)


def test_transposition_graph_empty_set():
    labels, blocks = partition_of([], 4)
    assert blocks == ((1,), (2,), (3,), (4,))
    assert _partition_order(labels) == 1
    assert matches_chain_build([], 4, labels, blocks)
    assert _merged(labels, 2, 2) is None  # a point is one block with itself
    with pytest.raises(ValueError):
        min_width_search(P("(1 2)", 4), [], [], lambda o: True)


def test_transposition_graph_rejects_non_transpositions():
    with pytest.raises(NotATransposition):
        _Partitions(P("(1 2)", 3), [P("(1 2 3)", 3).images])
    # and through the search, which picks the partition model for x = (1 2)
    x = P("(1 2)", 3)
    with pytest.raises(NotATransposition):
        min_width_search(
            x, [x.images, P("(1 2 3)", 3).images], [x.images, x.images], lambda o: o > 2
        )


def test_transposition_sweep_small_prime_exact():
    report = transposition_pi_sweep(5)
    assert report.r == 5 and report.exhaustive
    assert report.all_small_subsets_pi
    assert report.subsets_checked == 120  # C(10, 3) triples of the 10 transpositions
    # 5 x 16 trees on four points, 10 x 3 paths with an edge, 10 triangles
    assert report.shape_counts == {(4, 1): 80, (3, 2): 30, (3, 1, 1): 10}
    assert report.crosschecks == len(report.shape_counts) + 1  # and the star
    assert report.radical_order.is_one()
    assert report.implied_lower_bound == 4
    star = PermGroup.from_generators(report.witness_subset)
    assert star.order_int == report.witness_order.value == 120
    assert not is_pi_group(star, report.pi)


def test_transposition_sweep_crosschecks_every_subset_at_stride_one():
    """Every one of the 120 triples of transpositions of Sym(5), generated
    directly: its order is that of its shape, a pi-number, and the shapes
    tally to the sweep's counts."""
    report = transposition_pi_sweep(5)
    edges = [(a, b) for a in range(1, 6) for b in range(a + 1, 6)]
    tally: dict[tuple[int, ...], int] = {}
    for subset in itertools.combinations(edges, 3):
        G = PermGroup.from_generators(
            [Permutation.from_cycles([edge], degree=5) for edge in subset], 5
        )
        shape = tuple(sorted(map(len, G.orbit_partition), reverse=True))
        assert G.order_int == math.prod(map(math.factorial, shape))
        assert is_pi_group(G, report.pi)
        tally[shape] = tally.get(shape, 0) + 1
    assert tally == report.shape_counts
    assert report.subsets_checked == sum(tally.values()) == 120


@pytest.mark.parametrize("r", [3, 5, 7])
def test_transposition_sweep_shape_counts_match_the_enumerating_oracle(r):
    histogram = transposition_shape_histogram(r)
    assert transposition_pi_sweep(r).shape_counts == histogram
    assert max(max(shape) for shape in histogram) < r  # so every order is a pi-number


def test_transposition_sweep_is_exhaustive_at_every_supported_prime():
    for r in [p for p in range(3, width.SWEEP_MAX_R + 1) if is_prime(p)]:
        report = transposition_pi_sweep(r)
        assert report.exhaustive and report.all_small_subsets_pi
        assert report.subsets_checked == math.comb(r * (r - 1) // 2, r - 2)
        assert report.implied_lower_bound == r - 1


def test_transposition_sweep_catches_a_wrong_connected_graph_count(monkeypatch):
    """A wrong c(k, e) changes a shape count, so the counts no longer cover
    every subset."""
    # the right values first: the cached recurrence must never see the wrong one
    right = {(k, e): width._connected_graphs(k, e) for k in range(1, 6) for e in range(4)}
    monkeypatch.setattr(
        width, "_connected_graphs", lambda k, e: right[k, e] + ((k, e) == (3, 2))
    )
    with pytest.raises(InvariantViolation, match="cover"):
        transposition_pi_sweep(5)


def test_transposition_sweep_catches_a_wrong_partition_order(monkeypatch):
    """The chain built for each shape is a live crosscheck of the partition
    model's order."""
    monkeypatch.setattr(width, "_partition_order", lambda labels: 2 * _partition_order(labels))
    with pytest.raises(InvariantViolation, match="disagreed with direct generation"):
        transposition_pi_sweep(5)


def test_transposition_sweep_crosschecks_the_radical_by_the_closure_route(monkeypatch):
    """Below the enumeration cap the closure route must give the radical's
    group; a closure route that returns the whole of Sym(5) is caught."""
    monkeypatch.setattr(width, "_closure_radical", lambda G, pi: G)
    with pytest.raises(InvariantViolation, match="closure route"):
        transposition_pi_sweep(5)


@pytest.mark.parametrize("r", [-1, 0, 2, 9, 29])
def test_transposition_sweep_rejects_r_outside_its_range(r):
    with pytest.raises(ValueError, match="prime from 3 to 23"):
        transposition_pi_sweep(r)
