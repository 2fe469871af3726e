"""Minimal numbers of conjugates needed to generate "large" subgroups.

Setting: a socle group L and an element x normalizing it, with ambient group
A = <L, x>.  For the class x^L of L-conjugates of x this module computes

* ``alpha``: the least k such that some k of the conjugates generate all of A;
* ``beta``:  the least k such that some k of the conjugates generate a
  subgroup of order divisible by a given prime r;
* ``bs_membership``: for a group G, a prime set pi and a width m, whether
  every element all of whose m-tuples of G-conjugates generate pi-subgroups
  already lies in the pi-radical O_pi(G);
* ``baer_suzuki_check``: the classical p-group special case, as an exact
  per-class equivalence test (a failure is an implementation bug, never a
  result).

Engine.  All predicates used here depend only on the *order* of the generated
subgroup and are therefore invariant under conjugation.  The search is one
breadth-first driver over subgroup states: level 1 is <x>, and a state at
level k+1 is obtained by adjoining one conjugate not already inside a
level-k state.  The driver owns the levels, the width and state budgets,
saturation and the result record; a state model says what a state is, how a
conjugate extends it, and when two states are one subgroup.
Four soundness notes justify the pruning:

* Pinning: a tuple (y_1, ..., y_m) of conjugates may be conjugated (by an
  element of L) so that its first entry is x; the generated subgroup maps to
  a conjugate of the same order.  Searching only tuples starting at x is
  therefore exact for order predicates.
* Skipping redundant entries: a tuple with repeated (or already-generated)
  entries generates the same subgroup as the sub-tuple of its "new" entries,
  and any shorter witness pads to any larger width by repeating entries.
  Hence minimal widths and all-width failure certificates over tuples *with*
  repetition equal those over the non-redundant chains enumerated here.
* Centralizer pruning: conjugating a pinned chain (x, y_2, ..., y_k) by any c
  in C = C_L(x) fixes x, permutes x^L and maps the generated subgroup to a
  conjugate of the same order.  Before width 3 is searched, the level-2
  frontier therefore keeps only its first state for each C-orbit of y_2:
  every subgroup a chain of k conjugates reaches first at width k still has
  a C-conjugate that the search reaches at width k, so minimal widths,
  failures up to the explored width and an emptied frontier certify what
  they certify without the pruning.  C is built only then, from the
  Schreier generators of the class-table orbit, and checked to reach order
  |L| / |x^L|.  This needs x fixed (every search is pinned), the whole
  class (C acts on it) and a predicate that depends only on the order;
  without the group L the search is unreduced.
* Normaliser orbits (the cheap form of canonical augmentation; McKay,
  "Isomorph-free exhaustive generation", *J. Algorithms* 26, 1998): from
  width 2 on, a chain state H = <x, y_2, ..., y_k> is extended only by the
  least conjugate of each orbit, on x^L, of a subgroup N of N_C(H).  For c
  in N, <H, y^c> = <H, y>^c, and conjugation by C keeps orders and the
  least number of pinned conjugates that generate a subgroup, so the
  centralizer note's argument holds state by state.  The frontier may empty
  a width later than without it (a state C-conjugate to an earlier one is
  new to the exact deduplication; for pgl2(7), x = (1 8)(2 7)(3 4)(5 6) and
  a predicate that never holds, both prunings end absent at width 5, not
  4), but the absence is the same.  N is found by filtering a list: c in C
  normalises H exactly when each y_i^c lies in H, because c fixes x.  A
  level-2 state filters the elements of C, listed only when |C| is within
  ``max_class_size`` (the bound on any list of elements the engine holds;
  above it, this note does not apply), and a deeper state filters its
  parent's list by its newest generator, leaving the group N_parent ∩
  N_C(H).  The partitions model keeps the level-2 pruning only.

Exhausting every level below k certifies minimality of a level-k success;
an emptied frontier certifies that no width at all succeeds.  A result's
``status`` says how the search ended, and it is the one record of what the
result certifies:

* ``found``: the value is the minimal width;
* ``absent``: the frontier emptied, so no width at all succeeds;
* ``width_budget``: every width up to the explored one failed, and
  ``max_width`` stopped the search there;
* ``state_budget``: ``max_states`` stopped the search part-way through a
  width.

Only ``found`` and ``absent`` are exhaustive.  The membership checks ask
less: every tuple up to their width m was searched, which ``width_budget``
also gives.  A search always runs over the whole class: a class larger than
``max_class_size`` raises :class:`BudgetExhausted` before any search starts.

Two exact state models, cross-checked against each other in the test suite:

* chains (any class): a state is a subgroup with its stabilizer chain,
  deduplicated exactly: bucket by order, then confirm by sifting
  generators, so distinct subgroups are never merged;
* partitions (all generators transpositions): <T> is the direct product of
  symmetric groups on the connected components of the edge graph of T (a
  textbook fact, also behind :func:`transposition_pi_sweep`), so a state
  *is* the partition of points it glues together, and a chain is built only
  for the witness.

A class arrives as ``bytes`` elements, one byte per point (a class table
of :mod:`~piradical.structure`), and the engine never leaves them: a chain
is built from the root conjugate, then extended by ``bytes`` elements
(:meth:`PermGroup.extend`), and states are compared on their ``bytes``
generators.  A :class:`Permutation` is wrapped only for the
root of a chain search and for the witness and members of a found result.

A state, as counted by ``states_visited`` and capped by ``max_states``, is
every chain child before deduplication, but only a partition not seen
before.  States after width 2 are counted after the centralizer pruning, so
they are children of the kept level-2 states only, and a chain state's
children are counted only for the conjugates it is extended by: the
reductions change the count, never the value.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Literal, Sequence

from .errors import (
    BudgetExhausted,
    CentralizesSocle,
    DegreeMismatch,
    InvariantViolation,
    NotAlmostSimple,
    NotATransposition,
    NotNormalizing,
    RNotDividingOrder,
)
from .factored import FactoredInteger, is_prime
from .groups import Images, PermGroup
from .perms import TAIL, Permutation, conjugate_images, conjugators, with_tables
from .structure import (
    PrimeSet,
    _closure_radical,
    class_data,
    conjugation_orbit,
    is_pi_number,
    pi_radical,
    radical_is_trivial_by_orbits,
)

OrderPredicate = Callable[[int], bool]
Status = Literal["found", "absent", "width_budget", "state_budget"]


# ---------------------------------------------------------------------------
# budgets and results


@dataclass(frozen=True)
class SearchBudget:
    """Resource limits for a width search.

    ``max_width``: deepest tuple width explored.
    ``max_states``: cap on subgroup states created across all levels.
    ``max_class_size``: a conjugacy class larger than this is not searched;
    asking about it raises :class:`BudgetExhausted`.
    Each limit must be at least 1 (``ValueError`` otherwise).
    """

    max_width: int = 12
    max_states: int = 100_000
    max_class_size: int = 100_000

    def __post_init__(self):
        for name in ("max_width", "max_states", "max_class_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class WidthResult:
    """Outcome of a width search.

    ``value`` is the minimal width at which the predicate held, or None.
    ``status`` says how the search ended and what that certifies (see the
    module docstring); ``exhaustive`` and ``saturated`` are read off it.
    When ``value`` is None, ``explored_width`` is the deepest width whose
    states were all built and tested (so the true value, if any, exceeds
    it).  ``witness`` holds conjugating elements l_i with x ** l_i the
    chosen conjugates (``members``); ``certificate_order`` is the order of
    the successful subgroup.
    """

    value: int | None
    witness: tuple[Permutation, ...] | None
    members: tuple[Permutation, ...] | None
    certificate_order: FactoredInteger | None
    explored_width: int
    status: Status
    states_visited: int

    @property
    def exhaustive(self) -> bool:
        """The value is certified minimal, or its absence at every width is
        certified."""
        return self.status in ("found", "absent")

    @property
    def saturated(self) -> bool:
        """The state space closed: no width at all succeeds."""
        return self.status == "absent"

    @property
    def lower_bound(self) -> int:
        """Widths up to this bound (exclusive) are certified failures."""
        return self.explored_width + 1

    def revalidate(self, order_predicate: OrderPredicate | None = None) -> bool:
        """Rebuild the witness subgroup from ``members`` and confirm the
        claimed order (and predicate, when given).  A successful result must
        always revalidate; used as an engine self-check."""
        if self.value is None or self.members is None:
            return False
        H = PermGroup.from_generators(self.members)
        if self.certificate_order is None or H.order_int != self.certificate_order.value:
            return False
        if order_predicate is not None and not order_predicate(H.order_int):
            return False
        return True


# ---------------------------------------------------------------------------
# the search: one breadth-first driver over two state models


def min_width_search(
    x: Permutation,
    conjugates: Sequence[Images],
    witnesses: Sequence[Images],
    order_predicate: OrderPredicate,
    *,
    budget: SearchBudget = SearchBudget(),
    group: PermGroup | None = None,
) -> WidthResult:
    """Minimal number of the given conjugates generating a subgroup whose
    order satisfies ``order_predicate`` (see the module docstring for the
    search semantics).  The conjugates and witnesses are ``bytes``, as in a
    class table: ``conjugates[0]`` must be ``x.images`` and
    ``witnesses[i]`` must conjugate ``x`` to ``conjugates[i]``.

    ``group`` is the group whose whole conjugation orbit of ``x`` the
    conjugates are.  When it is given, the level-2 states are reduced to one
    per C_group(x)-orbit before width 3 is searched; without it the search
    is unreduced."""
    if not conjugates or conjugates[0] != x.images:
        raise ValueError("conjugates[0] must be x itself")
    model = _Partitions if x.is_transposition() else _Chains
    return _search(
        model(x, conjugates), conjugates, witnesses, order_predicate, budget, group
    )


def _search(model, conjugates, witnesses, pred, budget, group=None) -> WidthResult:
    """The breadth-first search over ``model``'s states.  Level 1 holds
    <x> alone, the child of ``model.initial`` by conjugate 0; a child is
    counted as a state when the model returns it, and searched further when
    the model admits it.  With ``group``, the level-2 frontier is pruned by
    :func:`_one_per_centralizer_orbit` before it grows, and from then on a
    state is extended by :func:`_orbit_representatives` when it lists a
    normaliser.  A frontier entry is (state, ids, listed): ``listed`` is
    every element of a subgroup of C that normalises the parent state, or
    None when the state is extended by every conjugate."""
    states = 0

    def result(explored, status, found=None):
        ids = found[1] if found else ()
        return WidthResult(
            value=explored + 1 if found else None,
            witness=tuple(Permutation(witnesses[i]) for i in ids) if found else None,
            members=tuple(Permutation(conjugates[i]) for i in ids) if found else None,
            certificate_order=model.group(*found).order if found else None,
            explored_width=explored,
            status=status,
            states_visited=states,
        )

    frontier = [(model.initial, (), None)]
    every = range(len(conjugates))
    width = 0
    while frontier and width < budget.max_width:
        if width == 2 and group is not None:
            index = {y: i for i, y in enumerate(conjugates)}
            C = _centralizer(group, conjugates, witnesses, index)
            frontier = _one_per_centralizer_orbit(frontier, C, conjugates, index)
            if model.per_state_reduction and C.order_int <= budget.max_class_size:
                listed = C.element_tuples()  # C normalises <x>, the parent
                frontier = [(state, ids, listed) for state, ids, _ in frontier]
        next_frontier = []
        for state, ids, listed in frontier:
            if listed is None:
                candidates = (0,) if width == 0 else every
            else:
                listed = _normalising(state, conjugates[ids[-1]], listed)
                candidates = _orbit_representatives(listed, conjugates, index)
            for idx in candidates:
                child = model.child(state, idx)
                if child is None:
                    continue
                states += 1
                if states > budget.max_states:
                    return result(width, "state_budget")
                if not model.admit(child):
                    continue
                entry = (child, ids + (idx,))
                if pred(model.order(child)):
                    return result(width, "found", entry)
                next_frontier.append((*entry, listed))
        frontier = next_frontier
        width += 1
    return result(width, "width_budget" if frontier else "absent")


def _centralizer(
    group: PermGroup,
    conjugates: Sequence[Images],
    witnesses: Sequence[Images],
    index: dict[Images, int],
) -> PermGroup:
    """C = C_group(x), x = conjugates[0], with its chain; its ``gens`` are
    Schreier generators.

    Each edge of the conjugation orbit, member i moved by a generator g of
    ``group`` to member j, gives the Schreier generator w_i g w_j^-1 of the
    stabilizer of x (Schreier's lemma).  They are sifted into a chain until
    it reaches |C| = |group| / |x^group|; a generator that moves x, a member
    mapped outside the class, or a chain that never reaches that order
    raises :class:`InvariantViolation`."""
    x = conjugates[0]
    target, rest = divmod(group.order_int, len(conjugates))
    if rest:
        raise InvariantViolation(
            f"class size {len(conjugates)} does not divide |group| = {group.order_int}"
        )
    n = group.degree
    identity, tail = TAIL[:n], TAIL[n:]
    gens = conjugators(group.gens)
    C = PermGroup.trivial(n)
    edges = ((y, w, inv, table) for y, w in zip(conjugates, witnesses) for inv, table in gens)
    for y, w, inv, table in edges:
        if C.order_int == target:
            break
        j = index.get(inv.translate(y.translate(table) + tail))  # g^-1 y g
        if j is None:
            raise InvariantViolation(
                f"{Permutation(y)} ** {Permutation(table[:n])} lies outside the class"
            )
        # w, then g, then the inverse of w_j, whose table maketrans gives
        s = w.translate(table).translate(bytes.maketrans(witnesses[j], identity))
        if conjugate_images(x, s) != x:
            raise InvariantViolation("a Schreier generator does not centralize x")
        if not C._contains_tuple(s):
            C = C.extend(s)
    if C.order_int != target:
        raise InvariantViolation(
            f"the centralizer reached order {C.order_int}, not |group| / |class| = {target}"
        )
    return C


def _one_per_centralizer_orbit(frontier, C, conjugates, index):
    """The level-2 frontier (states <x, y_j>, ids (0, j)) reduced to its
    first entry for each C-orbit of j, in frontier order.  The orbits on the
    class indices are traced lazily from C's generators, one per kept
    entry."""
    tail = TAIL[C.degree:]
    gens = conjugators(C.gens)
    kept = []
    covered: set[int] = set()
    for entry in frontier:
        j = entry[1][1]
        if j in covered:
            continue
        kept.append(entry)
        covered.add(j)
        orbit = [j]
        for k in orbit:
            for inv, table in gens:
                i = index[inv.translate(conjugates[k].translate(table) + tail)]
                if i not in covered:
                    covered.add(i)
                    orbit.append(i)
    return kept


def _normalising(H: PermGroup, y: Images, listed: Sequence[Images]) -> list[Images]:
    """The elements c of ``listed`` with y^c in H.  When every c normalises
    the parent state and fixes x, and H is that parent with y adjoined, these
    are exactly the c that normalise H: one sift each."""
    return [c for c in listed if H._contains_tuple(conjugate_images(y, c))]


def _orbit_representatives(
    listed: Sequence[Images], conjugates: Sequence[Images], index: dict[Images, int]
) -> Sequence[int]:
    """The least class index of each orbit of the group whose every element
    is ``listed`` (the identity first): the orbit of i is {i^c : c listed},
    with no closure to take."""
    if len(listed) == 1:
        return range(len(conjugates))
    tail = TAIL[len(conjugates[0]):]
    gens = conjugators(listed[1:])
    covered = bytearray(len(conjugates))
    reps = []
    for i, y in enumerate(conjugates):
        if covered[i]:
            continue
        reps.append(i)
        for inv, table in gens:
            covered[index[inv.translate(y.translate(table) + tail)]] = 1
    return reps


class _Chains:
    """States are subgroups with stabilizer chains (``None`` before the
    roots); any class.  Only the root conjugate becomes a
    :class:`Permutation`; every child is an extension by a ``bytes`` element."""

    initial = None
    per_state_reduction = True

    def __init__(self, x: Permutation, conjugates: Sequence[Images]):
        self.conjugates = conjugates
        self.degree = x.degree
        self.buckets: dict[int, list[PermGroup]] = {}

    def child(self, grp, idx):
        """<grp, y> for the idx-th conjugate y, or None when y lies in grp."""
        y = self.conjugates[idx]
        if grp is None:
            return PermGroup.from_generators([Permutation(y)], self.degree)
        if grp._contains_tuple(y):
            return None
        return grp.extend(y)

    def order(self, state) -> int:
        return state.order_int

    def admit(self, state) -> bool:
        """Record a new subgroup; False when it is already known.  The test is
        exact: a known subgroup of the same order that contains every
        generator of ``state`` is ``state``."""
        bucket = self.buckets.setdefault(state.order_int, [])
        for t in bucket:
            if all(t._contains_tuple(g) for g in state.gens):
                return False
        bucket.append(state)
        return True

    def group(self, state, ids) -> PermGroup:
        return state


Labels = tuple[int, ...]  # a point partition, not a permutation


def _merged(labels: Labels, a: int, b: int) -> Labels | None:
    """The point partition ``labels`` (each point labelled by the least point
    of its block, a canonical key whatever the merge order) with the blocks
    of points a and b merged; None when they already are one block."""
    lo, hi = sorted((labels[a], labels[b]))
    if lo == hi:
        return None
    return tuple(lo if label == hi else label for label in labels)


def _partition_order(labels: Labels) -> int:
    """The order of the product of Sym(block) over the blocks of ``labels``:
    the order of the group that transpositions gluing those blocks
    generate."""
    return math.prod(math.factorial(k) for k in Counter(labels).values())


class _Partitions:
    """States for all-transposition classes: <T> is the product of
    Sym(component) over the edge-graph components of T, so a state *is* the
    partition of points it glues together, as :func:`_merged` labels it.
    Only the level-2 frontier is reduced by C."""

    per_state_reduction = False

    def __init__(self, x: Permutation, conjugates: Sequence[Images]):
        self.conjugates = conjugates
        self.degree = x.degree
        self.initial = tuple(range(x.degree))
        self.seen: set[Labels] = set()
        self.edges: list[tuple[int, ...]] = []
        for y in conjugates:
            moved = tuple(i for i, image in enumerate(y) if image != i)
            if len(moved) != 2:
                # conjugates of a transposition are transpositions; reaching
                # this means the caller passed an inconsistent class
                raise NotATransposition(f"{Permutation(y)} in the class of transposition {x}")
            self.edges.append(moved)

    def child(self, labels, idx):
        """The partition with the idx-th edge's blocks merged, or None when
        they already are one block (the conjugate lies in the subgroup) or
        the merged partition was seen."""
        merged = _merged(labels, *self.edges[idx])
        if merged is None or merged in self.seen:
            return None
        self.seen.add(merged)
        return merged

    order = staticmethod(_partition_order)

    def admit(self, labels) -> bool:
        return True  # ``child`` returns only partitions not seen before

    def group(self, labels, ids) -> PermGroup:
        grp = PermGroup.from_generators(
            [Permutation(self.conjugates[i]) for i in ids], self.degree
        )
        if grp.order_int != self.order(labels):  # engine self-check
            raise InvariantViolation("partition model disagrees with the built subgroup")
        return grp


# ---------------------------------------------------------------------------
# almost-simple contexts


def _nontrivial_centralizer_element(
    ambient: PermGroup, socle: PermGroup
) -> Permutation | None:
    """An element of C_ambient(socle) other than the identity, or None.

    For a transitive socle, a centralizing permutation is determined by the
    image of one point (semiregularity) and is found by propagating that
    image along the socle's Schreier graph; each candidate is then screened
    for ambient membership.  Intransitive socles fall back to scanning the
    ambient group's elements (TooLarge above the enumeration cap).
    """
    degree = ambient.degree
    gens = socle.gens
    if socle.is_transitive() and gens:
        for t in range(1, degree):
            c = [-1] * degree
            c[0] = t
            queue = [0]
            ok = True
            while queue and ok:
                i = queue.pop()
                for g in gens:
                    j = g[i]
                    want = g[c[i]]
                    if c[j] == -1:
                        c[j] = want
                        queue.append(j)
                    elif c[j] != want:
                        ok = False
                        break
            if not ok or -1 in c:
                continue
            if len(set(c)) != degree:
                continue
            ct = bytes(c)
            # propagation used a spanning tree; verify every constraint
            if any(g[c[i]] != c[g[i]] for g in gens for i in range(degree)):
                continue
            if ambient._contains_tuple(ct):
                return Permutation(ct)
        return None
    # intransitive fallback: direct scan (the identity comes first)
    tables = with_tables(gens)
    for e in ambient.element_tuples(10**5)[1:]:
        padded = e + TAIL[degree:]
        if all(e.translate(table) == g.translate(padded) for g, table in tables):  # eg == ge
            return Permutation(e)
    return None


@dataclass
class AlmostSimpleContext:
    """A socle L, an element x normalizing it, the ambient group <L, x>,
    and the class x^L with conjugating witnesses (x first), both as tuples
    of ``bytes`` elements, as :func:`min_width_search` takes them.

    ``build`` validates: degrees match; x normalizes L (else
    :class:`NotNormalizing`); x does not centralize L (else
    :class:`CentralizesSocle`); the ambient centralizer of L is trivial
    (else :class:`NotAlmostSimple`), which is the almost-simplicity
    certificate for a simple socle; and x^L has at most
    ``budget.max_class_size`` members (else :class:`BudgetExhausted`, as
    soon as the class trace passes that size).
    """

    socle: PermGroup
    element: Permutation
    ambient: PermGroup
    conjugates: tuple[Images, ...]
    witnesses: tuple[Images, ...]

    @classmethod
    def build(
        cls,
        socle: PermGroup,
        element: Permutation,
        *,
        budget: SearchBudget = SearchBudget(),
    ) -> "AlmostSimpleContext":
        if element.degree != socle.degree:
            raise DegreeMismatch(
                f"element degree {element.degree} vs socle degree {socle.degree}"
            )
        for s in socle.generators:
            if not socle.contains(s ** element):
                raise NotNormalizing(f"{element} does not normalize the socle")
        if element.is_identity() or all(
            (s ** element) == s for s in socle.generators
        ):
            raise CentralizesSocle(f"{element} centralizes the socle")
        ambient = socle.extend(element.images)
        witness = _nontrivial_centralizer_element(ambient, socle)
        if witness is not None:
            raise NotAlmostSimple(
                f"ambient centralizer of the socle contains {witness}; "
                "the context is not almost simple"
            )
        members, wits = conjugation_orbit(socle, element, cap=budget.max_class_size)
        return cls(
            socle=socle,
            element=element,
            ambient=ambient,
            conjugates=tuple(members),
            witnesses=tuple(wits),
        )


def alpha(ctx: AlmostSimpleContext, budget: SearchBudget = SearchBudget()) -> WidthResult:
    """Minimal number of socle-conjugates of x generating the whole ambient
    group (generated subgroups always lie inside it, so order equality is
    group equality)."""
    target = ctx.ambient.order_int
    return min_width_search(
        ctx.element,
        ctx.conjugates,
        ctx.witnesses,
        lambda o: o == target,
        budget=budget,
        group=ctx.socle,
    )


def beta(
    ctx: AlmostSimpleContext,
    r: int,
    budget: SearchBudget = SearchBudget(),
) -> WidthResult:
    """Minimal number of socle-conjugates of x generating a subgroup of
    order divisible by the prime r."""
    if not is_prime(r):
        raise ValueError(f"r must be prime, got {r}")
    if not ctx.ambient.order.divisible_by(r):
        raise RNotDividingOrder(
            f"{r} does not divide the ambient order {ctx.ambient.order}"
        )
    return min_width_search(
        ctx.element,
        ctx.conjugates,
        ctx.witnesses,
        lambda o: o % r == 0,
        budget=budget,
        group=ctx.socle,
    )


# ---------------------------------------------------------------------------
# membership checks against the radical


@dataclass
class ClassMembershipRecord:
    representative: Permutation
    class_size: int
    in_radical: bool
    # for representatives outside the radical: the minimal width at which a
    # non-pi subgroup appeared (None when none exists up to the tested width)
    violation_width: int | None
    witness: tuple[Permutation, ...] | None
    witness_order: FactoredInteger | None
    # every tuple up to width m was searched: always true, since a class
    # search that could not do so raises BudgetExhausted
    exhaustive: bool
    states_visited: int


@dataclass
class BSMembershipResult:
    """Verdict of the width-m membership test against O_pi(G).

    ``holds`` is True when every representative outside the radical exhibits
    some <=m-tuple of conjugates generating a non-pi subgroup (then no
    element outside O_pi survives the m-tuple test).  When False,
    ``violating_element`` lies outside O_pi yet every one of its m-tuples
    generates a pi-group — its record carries the exhausted-search
    certificate: a violation is certified by an exhaustive absence, not by
    a tuple.
    """

    pi: PrimeSet
    m: int
    holds: bool
    violating_element: Permutation | None
    radical_order: FactoredInteger
    records: list[ClassMembershipRecord]
    exhaustive: bool  # always true, as for every record


def _non_pi_predicate(pi: PrimeSet) -> OrderPredicate:
    return lambda o: not is_pi_number(FactoredInteger.from_int(o), pi)


def _class_search(
    G: PermGroup, rep: Permutation, size: int, pi: PrimeSet, budget: SearchBudget
) -> WidthResult:
    """The search for a non-pi subgroup over the G-class of ``rep``, of
    ``size`` members (as ``class_data(G).reps`` gives it), on the class
    table kept in ``class_data(G)``.  Raises :class:`BudgetExhausted` before
    any search when the class is larger than ``budget.max_class_size``, and
    when the search found nothing and was cut off before every tuple up to
    ``budget.max_width`` was searched.

    A representative whose order is not a pi-number has width 1 by <rep>
    alone: it is answered without a search, chain or class table, with the
    result the engine would return under any budget.

    A ``found`` search is kept in ``class_data(G)`` under (rep, pi) and
    returned again whenever ``budget`` lets a new search reach it: its
    value is within ``max_width`` and its states within ``max_states``.  The
    breadth-first search meets the same states in the same order under any
    such budget, so it would return the same result."""
    if size > budget.max_class_size:
        raise BudgetExhausted(
            f"the class of {rep} has {size} members, more than the class "
            f"budget of {budget.max_class_size}"
        )
    order = FactoredInteger.from_int(rep.order())
    if not is_pi_number(order, pi):
        return WidthResult(
            value=1,
            witness=(Permutation.identity(rep.degree),),
            members=(rep,),
            certificate_order=order,
            explored_width=0,
            status="found",
            states_visited=1,
        )
    data = class_data(G)
    kept = data.searches.get((rep.images, pi))
    if (
        kept is not None
        and kept.value <= budget.max_width
        and kept.states_visited <= budget.max_states
    ):
        return kept
    members, wits = data.class_table(rep)
    res = min_width_search(rep, members, wits, _non_pi_predicate(pi), budget=budget, group=G)
    if res.status == "found":
        data.searches[(rep.images, pi)] = res
    if res.status == "state_budget":  # the only end short of max_width
        raise BudgetExhausted(
            f"search for {rep} ended with status {res.status} before certification"
        )
    return res


def bs_membership(
    G: PermGroup,
    pi: PrimeSet,
    m: int,
    budget: SearchBudget = SearchBudget(),
) -> BSMembershipResult:
    """Does width m suffice for membership testing against O_pi(G)?

    For each class representative x outside the radical, search for a
    <=m-tuple of G-conjugates of x generating a non-pi subgroup (elements of
    the radical need no search: their conjugates generate subgroups of the
    radical, which are pi-groups).  Raises :class:`BudgetExhausted` if some
    representative's class is larger than the class budget, or its search
    found nothing and was cut off before every tuple up to width m was
    searched.

    The radical (:func:`pi_radical`), the classes and their tables come from
    ``class_data(G)``, so every membership call on one group object shares
    them.
    """
    if m < 1:
        raise ValueError(f"width m must be >= 1, got {m}")
    radical = pi_radical(G, pi)
    searched = replace(budget, max_width=m)
    records: list[ClassMembershipRecord] = []
    for rep, size in class_data(G).reps:
        in_radical = radical.contains(rep)
        res = None if in_radical else _class_search(G, rep, size, pi, searched)
        records.append(
            ClassMembershipRecord(
                representative=rep,
                class_size=size,
                in_radical=in_radical,
                violation_width=res.value if res else None,
                witness=res.members if res else None,
                witness_order=res.certificate_order if res else None,
                exhaustive=True,
                states_visited=res.states_visited if res else 0,
            )
        )
    # outside O_pi, yet every one of its m-tuples generates a pi-group
    violating = next(
        (r.representative for r in records if not r.in_radical and r.violation_width is None),
        None,
    )
    return BSMembershipResult(
        pi=pi,
        m=m,
        holds=violating is None,
        violating_element=violating,
        radical_order=radical.order,
        records=records,
        exhaustive=True,
    )


def minimal_membership_width(
    G: PermGroup,
    pi: PrimeSet,
    budget: SearchBudget = SearchBudget(),
) -> tuple[int, list[tuple[Permutation, int]]]:
    """The least m for which :func:`bs_membership` holds, with the per-class
    minimal non-pi widths that determine it (max over representatives
    outside the radical; 1 when the radical is everything).

    These are the records of :func:`bs_membership` at width
    ``budget.max_width``.  Every representative outside the radical reaches
    a non-pi subgroup at some width (its class generates the non-pi normal
    closure), so one without a width there raises :class:`BudgetExhausted`,
    as do a state budget and a class over the class budget.
    """
    res = bs_membership(G, pi, budget.max_width, budget)
    if res.violating_element is not None:
        raise BudgetExhausted(
            f"no certified non-pi width for {res.violating_element}: every "
            f"tuple of up to {budget.max_width} of its conjugates generates "
            f"a pi-group"
        )
    per_rep = [
        (r.representative, r.violation_width) for r in res.records if not r.in_radical
    ]
    return max((w for _, w in per_rep), default=1), per_rep


# ---------------------------------------------------------------------------
# classical Baer-Suzuki: exact equivalence per class


@dataclass
class ClassPairRecord:
    representative: Permutation
    in_radical: bool
    all_pairs_p_groups: bool
    witness_pair: tuple[Permutation, Permutation] | None
    witness_order: FactoredInteger | None


@dataclass
class BaerSuzukiReport:
    p: int
    radical_order: FactoredInteger
    records: list[ClassPairRecord]


def baer_suzuki_check(
    G: PermGroup,
    p: int,
    budget: SearchBudget = SearchBudget(),
) -> BaerSuzukiReport:
    """The Baer-Suzuki theorem, verified per conjugacy class: x lies in
    O_p(G) exactly when every pair <x, x^g> is a p-group.  A failed
    equivalence is an implementation bug and raises
    :class:`InvariantViolation` — it is never a returned result.  Reads the
    radical and the classes of ``class_data(G)``, as :func:`bs_membership`
    does.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    pi = PrimeSet.of(p)
    radical = pi_radical(G, pi)
    records: list[ClassPairRecord] = []
    for rep, size in class_data(G).reps:
        in_rad = radical.contains(rep)
        # a pair whose order has a prime other than p
        res = _class_search(G, rep, size, pi, replace(budget, max_width=2))
        all_pairs = res.value is None
        witness_pair = None
        if res.value is not None:
            ms = res.members
            witness_pair = (ms[0], ms[-1] if len(ms) > 1 else ms[0])
        if all_pairs != in_rad:
            raise InvariantViolation(
                f"Baer-Suzuki equivalence failed for {rep} at p={p}: "
                f"in_radical={in_rad}, all pairs p-groups={all_pairs}"
            )
        records.append(
            ClassPairRecord(
                representative=rep,
                in_radical=in_rad,
                all_pairs_p_groups=all_pairs,
                witness_pair=witness_pair,
                witness_order=res.certificate_order,
            )
        )
    return BaerSuzukiReport(p=p, radical_order=radical.order, records=records)


# ---------------------------------------------------------------------------
# the small-subset lower bound on transpositions, counted by partition shape

# The sweep builds one chain per partition shape of r, so its time grows with
# the number of partitions: r = 23 (1,103 shapes with subsets) takes about
# 3 s on one core of a 2-core Intel Xeon VM under CPython 3.11, and there are
# p(29) = 4,565 and p(31) = 6,842 shapes beyond it.
SWEEP_MAX_R = 23


@functools.cache
def _connected_graphs(k: int, e: int) -> int:
    """c(k, e), the number of labelled connected graphs on k vertices with e
    edges, by the standard recurrence (Harary & Palmer, *Graphical
    Enumeration*, ch. 1): all graphs, less those in which vertex 1 lies in a
    component of j < k vertices."""
    total = math.comb(math.comb(k, 2), e)
    for j in range(1, k):
        outside = math.comb(k - j, 2)  # the possible edges off that component
        total -= math.comb(k - 1, j - 1) * sum(
            _connected_graphs(j, f) * math.comb(outside, e - f) for f in range(j - 1, e + 1)
        )
    return total


def _shapes(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    """The partitions of n into parts of at most ``largest``, largest part
    first."""
    if n == 0:
        yield ()
    for k in range(min(n, largest), 0, -1):
        for rest in _shapes(n - k, k):
            yield (k, *rest)


def _subsets_of_shape(shape: tuple[int, ...], edges: int) -> int:
    """The number of sets of ``edges`` transpositions on sum(shape) points
    whose edge graph has components of exactly the sizes in ``shape``: the
    set partitions of that shape, times the ways to put a connected graph
    on each block with ``edges`` edges in all."""
    ways = [1] + [0] * edges  # ways[e]: e edges in all on the blocks so far
    for k in shape:
        ways = [
            sum(ways[e - f] * _connected_graphs(k, f) for f in range(k - 1, e + 1))
            for e in range(edges + 1)
        ]
    blocks = math.prod(math.factorial(k) for k in shape)
    repeats = math.prod(math.factorial(m) for m in Counter(shape).values())
    return math.factorial(sum(shape)) // (blocks * repeats) * ways[edges]


@dataclass
class TranspositionSweepReport:
    r: int
    pi: PrimeSet
    subsets_checked: int
    shape_counts: dict[tuple[int, ...], int]  # block sizes, largest first -> subsets
    all_small_subsets_pi: bool
    witness_subset: tuple[Permutation, ...]
    witness_order: FactoredInteger
    radical_order: FactoredInteger
    crosschecks: int  # chains built: one per shape, and the star
    exhaustive: bool
    implied_lower_bound: int  # width r-2 cannot separate transpositions from O_pi


def transposition_pi_sweep(r: int) -> TranspositionSweepReport:
    """The lower bound r-1 on the width that membership in O_pi needs, for
    pi = {primes < r}: every (r-2)-subset of the transpositions of Sym(r)
    generates a pi-group, the star of r-1 transpositions does not, and
    O_pi(Sym(r)) is trivial.  r is a prime from 3 to ``SWEEP_MAX_R``, else
    ``ValueError``.

    The subsets are counted, not listed.  A set of transpositions generates
    the product of Sym(block) over the components of its edge graph, so the
    subsets are grouped by the shape (block sizes) of that point partition.
    The subsets of one shape number its set partitions times a product of
    connected-graph counts (:func:`_connected_graphs`).  Each shape with
    subsets is checked against pi by its order prod k_i!
    (:func:`_partition_order`), and that order is crosschecked by building
    the chain of one spanning forest of the shape (a path on each block):
    the same order and the blocks as its orbits.  The sweep is exhaustive
    because the shape counts sum to C(r(r-1)/2, r-2).  A shortfall, a shape
    outside pi or a failed crosscheck is a bug and raises
    :class:`InvariantViolation`.
    """
    if not is_prime(r) or not 3 <= r <= SWEEP_MAX_R:
        raise ValueError(f"r must be a prime from 3 to {SWEEP_MAX_R}, got {r}")
    pi = PrimeSet.of(*[p for p in range(2, r) if is_prime(p)])

    def transpositions(edges: list[tuple[int, int]]) -> tuple[Permutation, ...]:
        return tuple(Permutation.from_cycles([(a + 1, b + 1)], degree=r) for a, b in edges)

    def generated_order(edges: list[tuple[int, int]]) -> FactoredInteger:
        """The order of the group that the transpositions on ``edges``
        generate, from the partition model, crosschecked against a chain
        built from them."""
        labels = tuple(range(r))
        for a, b in edges:
            labels = _merged(labels, a, b) or labels
        order = _partition_order(labels)
        G = PermGroup.from_generators(transpositions(edges), r)
        blocks: dict[int, list[int]] = {}
        for point, label in enumerate(labels):
            blocks.setdefault(label, []).append(point + 1)
        if G.order_int != order or G.orbit_partition != tuple(map(tuple, blocks.values())):
            raise InvariantViolation(
                "transposition partition model disagreed with direct generation"
            )
        return FactoredInteger.from_int(order)

    shape_counts: dict[tuple[int, ...], int] = {}
    for shape in _shapes(r, r):
        count = _subsets_of_shape(shape, r - 2)
        if count == 0:
            continue
        starts = itertools.accumulate(shape, initial=0)
        forest = [(s + i, s + i + 1) for s, k in zip(starts, shape) for i in range(k - 1)]
        order = generated_order(forest)
        if not is_pi_number(order, pi):
            raise InvariantViolation(
                f"{count} subsets of shape {shape} generate order {order}, outside pi={pi}"
            )
        shape_counts[shape] = count
    subsets = math.comb(r * (r - 1) // 2, r - 2)
    covered = sum(shape_counts.values())
    if covered != subsets:
        raise InvariantViolation(
            f"the shape counts cover {covered} of the {subsets} (r-2)-subsets at r={r}"
        )
    # a witness (r-1)-subset that escapes pi: the star (1 b), b = 2..r
    star = [(0, b) for b in range(1, r)]
    star_order = generated_order(star)
    if is_pi_number(star_order, pi):
        raise InvariantViolation(
            f"the star on {r} points generated a pi-group; sweep is inconsistent"
        )
    sym_r = PermGroup.from_generators(
        [*transpositions(star[:1]), Permutation.from_cycles([tuple(range(1, r + 1))], degree=r)]
    )
    # Triviality of the radical: the orbit certificate applies for every
    # valid r (one orbit, of prime length r outside pi); below the
    # enumeration cap the closure route, which does not ask the certificate,
    # must agree.
    if not radical_is_trivial_by_orbits(sym_r, pi):
        raise InvariantViolation(
            f"orbit certificate unexpectedly inapplicable for r={r}"
        )
    radical_order = FactoredInteger.one()
    if sym_r.order_int <= 10**5 and not _closure_radical(sym_r, pi).order.is_one():
        raise InvariantViolation(
            f"direct radical computation contradicts the orbit certificate for r={r}"
        )
    return TranspositionSweepReport(
        r=r,
        pi=pi,
        subsets_checked=covered,
        shape_counts=shape_counts,
        all_small_subsets_pi=True,
        witness_subset=transpositions(star),
        witness_order=star_order,
        radical_order=radical_order,
        crosschecks=len(shape_counts) + 1,
        exhaustive=True,
        implied_lower_bound=r - 1,
    )
