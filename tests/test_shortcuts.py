"""Each piece of structure work an answer can skip gives that answer unchanged.

Three shortcuts are checked against the full route they replace:

* a class whose representative's order is not a pi-number is answered
  at width 1 without a search, with no chain and no class table;
* the pi-radical is trivial, with no class closed, where the orbit
  certificate or the giant certificate holds, and otherwise joins the pi
  closures of the prime-power classes of pi-order, closing no prime-power
  class after the last of those;
* ``normal_subgroups`` starts from the closures of the prime-power classes,
  joins each pair of subgroups once, and builds no join that a known
  subgroup's class mask and order identify.
"""

import dataclasses
import itertools

import pytest

from piradical import width
from piradical import (
    FactoredInteger,
    PermGroup,
    Permutation,
    PrimeSet,
    class_data,
    conjugation_orbit,
    group_by_name,
    is_pi_group,
    is_pi_number,
    min_width_search,
    normal_closure,
    normal_subgroups,
    pi_radical,
    radical_is_trivial_by_orbits,
)
from piradical.structure import _is_giant
from piradical.width import SearchBudget, _class_search, _non_pi_predicate


def is_pi_element(x: Permutation, pi: PrimeSet) -> bool:
    """True when the order of ``x``, computed from ``x`` and not read off
    the class scan, is a pi-number."""
    return is_pi_number(FactoredInteger.from_int(x.order()), pi)


# the catalog groups, and direct products whose lattices take several passes
PRODUCTS = {
    "C2^3": ["(1 2)", "(3 4)", "(5 6)"],
    "C3^2": ["(1 2 3)", "(4 5 6)"],
    "S3xS3": ["(1 2)", "(1 2 3)", "(4 5)", "(4 5 6)"],
    "D8xC2": ["(1 2 3 4)", "(1 3)", "(5 6)"],
}
GROUPS = ["S4", "D12", "S5", "S6", "A7", "psl2(7)", "pgl2(7)", *PRODUCTS]


def make(name: str) -> PermGroup:
    """A new group object, whose class data has computed nothing yet (the
    catalog keeps the groups it builds)."""
    if name in PRODUCTS:
        return PermGroup.from_generators([Permutation.parse(c, 6) for c in PRODUCTS[name]])
    return PermGroup.from_generators(group_by_name(name).generators)


def proper_prime_sets(G: PermGroup) -> list[PrimeSet]:
    primes = sorted(G.order.prime_support)
    return [
        PrimeSet.of(*chosen)
        for k in range(1, len(primes))
        for chosen in itertools.combinations(primes, k)
    ]


def all_pairs_normal_subgroups(G: PermGroup) -> list[PermGroup]:
    """The join-closure of the closures of every class, each built by
    ``normal_closure``, joining every pair of known subgroups in every pass
    until a pass adds nothing."""
    found = [PermGroup.trivial(G.degree)]

    def known(H: PermGroup) -> bool:
        return any(H.same_group_as(K) for K in found if K.order_int == H.order_int)

    for rep, _ in class_data(G).reps:
        cl = normal_closure(G, [rep])
        if not known(cl):
            found.append(cl)
    added = True
    while added:
        added = False
        snapshot = list(found)
        for i, A in enumerate(snapshot):
            for B in snapshot[i + 1 :]:
                J = PermGroup.from_generators(
                    list(A.generators) + list(B.generators), degree=G.degree
                )
                if not known(J):
                    found.append(J)
                    added = True
    return sorted(found, key=lambda H: (H.order_int, H.orbit_partition))


@pytest.mark.parametrize("name", GROUPS)
def test_a_class_of_non_pi_order_is_answered_as_its_whole_table_answers(name):
    G = make(name)
    data = class_data(G)
    budget = SearchBudget()
    shortcuts = 0
    for pi in proper_prime_sets(G):
        for rep, _ in data.reps:
            if is_pi_element(rep, pi):
                continue
            short = _class_search(G, rep, pi, budget)
            assert rep.images not in data._tables  # no class table was read
            members, wits = conjugation_orbit(G, rep, G.order_int)
            full = min_width_search(
                rep, members, wits, _non_pi_predicate(pi), budget=budget, group=G
            )
            for field in dataclasses.fields(full):
                assert getattr(short, field.name) == getattr(full, field.name), field.name
            assert short.value == 1
            shortcuts += 1
    assert shortcuts > 0 or len(G.order.prime_support) == 1  # a p-group has no proper pi


def test_a_class_search_reads_the_orders_the_scan_found(monkeypatch):
    """``_class_search`` reads each representative's order from the class
    data, where the scan found it once, and walks no cycles of its own: over
    every class of Sym(7), π = {2,3}, the searches and the answers at width 1
    call ``Permutation.order`` not once."""
    G = make("S7")
    reps = class_data(G).reps
    calls = []
    real = Permutation.order
    monkeypatch.setattr(Permutation, "order", lambda self: calls.append(self) or real(self))
    for rep, _ in reps:
        _class_search(G, rep, PrimeSet.of(2, 3), SearchBudget())
    assert calls == []


def test_a_class_of_non_pi_order_does_no_engine_work(monkeypatch):
    """No width search, chain build or chain extension answers a class of
    non-{2,3} order of Sym(7)."""
    G = make("S7")
    pi = PrimeSet.of(2, 3)
    non_pi = [(rep, size) for rep, size in class_data(G).reps if not is_pi_element(rep, pi)]
    calls = []

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(width, "min_width_search", counted("search", width.min_width_search))
    build = PermGroup.__dict__["from_generators"].__func__
    monkeypatch.setattr(PermGroup, "from_generators", classmethod(counted("build", build)))
    monkeypatch.setattr(PermGroup, "extend", counted("extend", PermGroup.extend))
    for rep, _ in non_pi:
        assert _class_search(G, rep, pi, SearchBudget()).value == 1
    assert len(non_pi) == 3  # the classes of orders 5, 7 and 10
    assert calls == []


@pytest.mark.parametrize("name", GROUPS)
def test_the_radical_is_the_join_of_the_pi_closures_of_every_class(name):
    G = make(name)
    reps = [rep for rep, _ in class_data(G).reps]
    every_closure = [normal_closure(G, [rep]) for rep in reps]
    for pi in proper_prime_sets(G):
        kept = [cl for cl in every_closure if is_pi_group(cl, pi)]
        reference = PermGroup.from_generators(
            [g for cl in kept for g in cl.generators], degree=G.degree
        )
        fresh = make(name)
        radical = pi_radical(fresh, pi)
        assert radical.same_group_as(reference)
        assert radical.gens == reference.gens  # the report's generators too
        if radical_is_trivial_by_orbits(fresh, pi) or (
            _is_giant(fresh) and not is_pi_group(fresh, pi)
        ):
            closed = []  # a certificate answers, and no class is closed
        else:
            # the prime-power classes up to the last one of pi-order, in scan order
            prime_power = class_data(fresh).prime_power_reps()
            pi_order = [k for k, rep in enumerate(prime_power) if is_pi_element(rep, pi)]
            closed = prime_power[: pi_order[-1] + 1]
        assert set(class_data(fresh)._closures) == {rep.images for rep in closed}


@pytest.mark.parametrize("name", GROUPS)
def test_normal_subgroups_are_those_of_the_all_pairs_loop_in_its_order(name):
    """The same groups, sorted by order; their generators may differ, as a
    join that a class mask identifies is not built again."""
    G = make(name)
    got = normal_subgroups(G)
    reference = all_pairs_normal_subgroups(G)
    assert [H.order_int for H in got] == [H.order_int for H in reference]
    for H in got:
        assert sum(H.same_group_as(K) for K in reference) == 1


@pytest.mark.parametrize("name", GROUPS)
def test_normal_subgroups_build_only_the_joins_that_are_new(name, monkeypatch):
    """Past the closures, each join built is a normal subgroup found nowhere
    else: the lattice is the trivial group, G and the distinct closures,
    and the built joins."""
    import piradical.structure as structure

    G = make(name)
    data = class_data(G)
    for rep in data.prime_power_reps():
        data.closure(rep)
    known = [H for H, _ in data._known]
    built = []
    real = structure._join
    monkeypatch.setattr(structure, "_join", lambda G, parts: built.append(real(G, parts)) or built[-1])
    lattice = normal_subgroups(G)
    assert len(lattice) == 1 + len(known) + len(built)
    for i, J in enumerate(built):
        assert not any(J.same_group_as(K) for K in known + built[:i])
