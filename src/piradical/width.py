"""Minimal numbers of conjugates needed to generate "large" subgroups.

Setting: a socle group L and an element x normalizing it, with ambient group
A = <L, x>.  For the class x^L of L-conjugates of x this module computes

* ``alpha``: the least k such that some k of the conjugates generate all of A;
* ``beta``:  the least k such that some k of the conjugates generate a
  subgroup of order divisible by a given prime r;
* ``bs_membership``: for a group G, a prime set pi and a width m, whether
  every element all of whose m-tuples of G-conjugates generate pi-subgroups
  already lies in the pi-radical O_pi(G);
* ``baer_suzuki_check``: the classical case pi = {p}, m = 2 of
  ``bs_membership``, certified in both directions (a failure is an
  implementation bug, never a result).

Engine.  All predicates used here depend only on the *order* of the generated
subgroup and are therefore invariant under conjugation.  The search is one
breadth-first driver over subgroup states: level 1 is <x>, and a state at
level k+1 is obtained by adjoining one conjugate not already inside a
level-k state.  The driver owns the levels, the width and state caps,
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
  conjugate of the same order.  So level 2 extends <x> by the first
  ``LEVEL_TWO_PREFIX`` conjugates, then by the least one of each C-orbit
  they do not meet, and keeps its first state per C-orbit of y_2: every
  subgroup a chain of k conjugates reaches first at width k still has a
  C-conjugate that the search reaches at width k, so minimal widths,
  failures up to the explored width and an emptied frontier certify what
  they certify without the pruning; the first level-2 success is the
  unpruned one, the least index of its orbit.  C (:func:`_centralizer`)
  is built past the prefix or before width 3.  This needs x fixed (every
  search is pinned), the whole class (C acts on it) and an order
  predicate; without the group L the search is unreduced.
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
  level-2 state filters the elements of C, listed only when |C| is at most
  ``LISTED_CAP`` (above it, this note does not apply),
  and a deeper state filters its parent's list by its newest generator,
  leaving the group N_parent ∩ N_C(H).  The partitions model keeps the
  level-2 pruning only.

Exhausting every level below k certifies minimality of a level-k success;
an emptied frontier certifies that no width at all succeeds.  A result's
``status`` says how the search ended, and it is the one record of what the
result certifies:

* ``found``: the value is the minimal width;
* ``absent``: the frontier emptied, so no width at all succeeds;
* ``width_budget``: every width up to the explored one failed, and
  ``max_width`` stopped the search there;
* ``state_budget``: the fixed ``STATE_CAP`` stopped the search part-way
  through a width.

Only ``found`` and ``absent`` are exhaustive.  The membership checks ask
less: every tuple up to their width m was searched, which ``width_budget``
also gives.  A search always runs over the whole class, and only its
width and ``STATE_CAP`` cut it.  A class table holds at most
``structure.CLASS_CAP`` members: its producer refuses a larger class with
:class:`BudgetExhausted` before any trace, so before any search starts.

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
A class table of the class data is traced only as far as it is read: a
search that succeeds within the level-2 prefix reads a few conjugates, and
building C or the partition model traces the whole class once; the search
reads the class table it is given throughout.

A state, as counted by ``states_visited`` and capped by ``STATE_CAP``, is
every chain child before deduplication, but only a partition not seen
before.  A state's children are counted only for the conjugates it is
extended by (at level 2, the prefix and one per C-orbit it does not meet),
and only the kept level-2 states have children: the reductions change the
count, never the value.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Literal, Sequence

from . import structure
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
    is_pi_group,
    is_pi_number,
    pi_radical,
)

OrderPredicate = Callable[[int], bool]
Status = Literal["found", "absent", "width_budget", "state_budget"]


# ---------------------------------------------------------------------------
# bounds and results


# The deepest tuple width a search explores unless its caller passes another:
# above the widths the paper bounds for the groups in reach (alpha <= n - 1 on
# Alt(n), beta_r <= r - 1), so a search there ends found or absent.
MAX_WIDTH = 12

# A search that counts more states ends with status ``state_budget``: a chain
# state holds a stabilizer chain, so this bounds memory (the benchmark's
# searches stay under 400).  Read at call time, so a test can lower it.
STATE_CAP = 100_000


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
    max_width: int = MAX_WIDTH,
    group: PermGroup | None = None,
) -> WidthResult:
    """Minimal number of the given conjugates generating a subgroup whose
    order satisfies ``order_predicate`` (see the module docstring for the
    search semantics).  The conjugates and witnesses are ``bytes``, as in a
    class table: ``conjugates[0]`` must be ``x.images`` and
    ``witnesses[i]`` must conjugate ``x`` to ``conjugates[i]``.

    ``group`` is the group whose whole conjugation orbit of ``x`` the
    conjugates are.  When it is given, level 2 is built from one conjugate
    per C_group(x)-orbit past its first ``LEVEL_TWO_PREFIX``, and keeps one
    state per orbit; without it the search is unreduced.  ``max_width`` is
    the deepest width searched (``ValueError`` below 1)."""
    if max_width < 1:
        raise ValueError(f"max_width must be >= 1, got {max_width}")
    if not conjugates or conjugates[0] != x.images:
        raise ValueError("conjugates[0] must be x itself")
    model = _Partitions if x.is_transposition() else _Chains
    return _search(
        model(x, conjugates), conjugates, witnesses, order_predicate, max_width, group
    )


def _search(model, conjugates, witnesses, pred, max_width, group=None) -> WidthResult:
    """The breadth-first search over ``model``'s states.  Level 1 holds
    <x> alone, the child of ``model.initial`` by conjugate 0; a child is
    counted as a state when the model returns it, and searched further when
    the model admits it.  With ``group``, level 2 is built and pruned by
    :class:`_CentralizerOrbits`, and from then on a state is extended by
    :func:`_orbit_representatives` when it lists a normaliser.  A frontier
    entry is (state, ids, listed): ``listed`` is every element of a subgroup
    of C that normalises the parent state, or None when the state is
    extended by every conjugate."""
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
    orbits = None if group is None else _CentralizerOrbits(group, conjugates, witnesses)
    width = 0
    while frontier and width < max_width:
        if width == 2 and orbits is not None:
            frontier = orbits.first_per_orbit(frontier)
            if model.per_state_reduction and orbits.C.order_int <= LISTED_CAP:
                listed = orbits.C.element_tuples()  # C normalises <x>, the parent
                frontier = [(state, ids, listed) for state, ids, _ in frontier]
        next_frontier = []
        for state, ids, listed in frontier:
            if listed is not None:
                listed = _normalising(state, conjugates[ids[-1]], listed)
                candidates = _orbit_representatives(listed, conjugates, orbits.index)
            elif width == 1 and orbits is not None:
                candidates = orbits.level_two()
            else:
                candidates = (0,) if width == 0 else every
            for idx in candidates:
                child = model.child(state, idx)
                if child is None:
                    continue
                states += 1
                if states > STATE_CAP:
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
    padded = ((y + tail, w) for y, w in zip(conjugates, witnesses))
    edges = ((y, w, inv, table) for y, w in padded for inv, table in gens)
    for y, w, inv, table in edges:
        if C.order_int == target:
            break
        j = index.get(inv.translate(y).translate(table))  # g^-1 y g
        if j is None:
            raise InvariantViolation(
                f"{Permutation(y[:n])} ** {Permutation(table[:n])} lies outside the class"
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


# Level 2 extends <x> by this many conjugates before C is built, so a search
# that succeeds among them never builds C (chosen by benchmark medians).
LEVEL_TWO_PREFIX = 16

# C is listed for the per-state normaliser reduction up to this order, at any
# width: filtering the list costs one sift per listed element per state.
LISTED_CAP = 100_000


class _CentralizerOrbits:
    """The orbits of C = C_group(x) on the class indices, each labelled by
    its least index and traced when first met; C is built when first needed,
    on the whole class, which it traces to the end."""

    def __init__(self, group, conjugates, witnesses):
        self.group, self.conjugates, self.witnesses, self.C = group, conjugates, witnesses, None

    def _build(self) -> None:
        if self.C is None:
            self.index = {y: i for i, y in enumerate(self.conjugates)}
            self.C = _centralizer(self.group, self.conjugates, self.witnesses, self.index)
            self.gens = conjugators(self.C.gens)
            self.least = [-1] * len(self.conjugates)
            for i in range(min(LEVEL_TWO_PREFIX, len(self.conjugates))):
                self._trace(i)

    def _trace(self, i: int) -> bool:
        """Label the orbit of i, found by the class scan's counting loop
        over C's generators, by i; False when i is already labelled."""
        if self.least[i] >= 0:
            return False
        orbit = structure._orbit(self.conjugates[i], self.gens, set(), len(self.conjugates))
        for y in orbit:
            self.least[self.index[y]] = i
        return True

    def level_two(self) -> Iterator[int]:
        """The first ``LEVEL_TWO_PREFIX`` indices, then, with C built, the
        least index of each C-orbit they do not meet."""
        n = len(self.conjugates)
        yield from range(min(LEVEL_TWO_PREFIX, n))
        if n > LEVEL_TWO_PREFIX:
            self._build()
            yield from (i for i in range(LEVEL_TWO_PREFIX, n) if self._trace(i))

    def first_per_orbit(self, frontier):
        """The level-2 frontier (states <x, y_j>, ids (0, j)) reduced to its
        first entry for each C-orbit of j, in frontier order."""
        self._build()
        kept = {}
        for entry in frontier:
            kept.setdefault(self.least[entry[1][1]], entry)
        return list(kept.values())


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
    tail = TAIL[len(conjugates[0]):]
    gens = conjugators(listed[1:])
    covered = bytearray(len(conjugates))
    reps = []
    for i, y in enumerate(conjugates):
        if covered[i]:
            continue
        reps.append(i)
        y += tail
        for inv, table in gens:
            covered[index[inv.translate(y).translate(table)]] = 1  # g^-1 y g
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

    A permutation c commuting with a transitive socle is fixed by one image:
    c(p) = u_p(c(b)), with b the base point of the socle's first chain level
    and u_p its transversal element taking b to p.  For t = 1, ..., n-1, c
    with c(b) = u_0^-1(t), so c(0) = t, is read off the transversal and kept
    when it is a permutation, commutes with every generator and lies in the
    ambient group.  Intransitive socles fall back to scanning the ambient
    group's elements (TooLarge above the enumeration cap).
    """
    degree = ambient.degree
    tables = with_tables(socle.gens)

    def centralizes(c: Images) -> bool:  # cg == gc for every generator g
        padded = c + TAIL[degree:]
        return all(c.translate(table) == g.translate(padded) for g, table in tables)

    if socle.is_transitive() and tables:
        for t in range(1, degree):  # none at degree 1, whose chain has no level
            level = socle._levels[0]
            cb = level.trans_inv[0][t]
            c = bytes(level.trans[p][cb] for p in range(degree))
            if len(set(c)) == degree and centralizes(c) and ambient._contains_tuple(c):
                return Permutation(c)
        return None
    # intransitive fallback: direct scan (the identity comes first)
    for e in ambient.element_tuples(10**5)[1:]:
        if centralizes(e):
            return Permutation(e)
    return None


@dataclass
class AlmostSimpleContext:
    """A socle L, an element x normalizing it, the ambient group <L, x>,
    and the class x^L with conjugating witnesses (x first), both as tuples
    of ``bytes`` elements, as :func:`min_width_search` takes them.

    ``build`` validates: degrees match; x normalizes L (else
    :class:`NotNormalizing`); x does not centralize L (else
    :class:`CentralizesSocle`), both read off the socle's generators
    conjugated by x once; the ambient centralizer of L is trivial
    (else :class:`NotAlmostSimple`), which is the almost-simplicity
    certificate for a simple socle; and x^L has at most
    ``structure.CLASS_CAP`` members (else :class:`BudgetExhausted`, as
    soon as the class trace passes that size).
    """

    socle: PermGroup
    element: Permutation
    ambient: PermGroup
    conjugates: tuple[Images, ...]
    witnesses: tuple[Images, ...]

    @classmethod
    def build(cls, socle: PermGroup, element: Permutation) -> "AlmostSimpleContext":
        if element.degree != socle.degree:
            raise DegreeMismatch(
                f"element degree {element.degree} vs socle degree {socle.degree}"
            )
        conjugated = [conjugate_images(s, element.images) for s in socle.gens]
        if not all(socle._contains_tuple(s) for s in conjugated):
            raise NotNormalizing(f"{element} does not normalize the socle")
        if conjugated == list(socle.gens):  # x = 1 included
            raise CentralizesSocle(f"{element} centralizes the socle")
        ambient = socle.extend(element.images)
        witness = _nontrivial_centralizer_element(ambient, socle)
        if witness is not None:
            raise NotAlmostSimple(
                f"ambient centralizer of the socle contains {witness}; "
                "the context is not almost simple"
            )
        members, wits = conjugation_orbit(socle, element)
        return cls(
            socle=socle,
            element=element,
            ambient=ambient,
            conjugates=tuple(members),
            witnesses=tuple(wits),
        )


def alpha(ctx: AlmostSimpleContext, max_width: int = MAX_WIDTH) -> WidthResult:
    """Minimal number of socle-conjugates of x generating the whole ambient
    group (generated subgroups always lie inside it, so order equality is
    group equality)."""
    target = ctx.ambient.order_int
    return min_width_search(
        ctx.element,
        ctx.conjugates,
        ctx.witnesses,
        lambda o: o == target,
        max_width=max_width,
        group=ctx.socle,
    )


def beta(
    ctx: AlmostSimpleContext,
    r: int,
    max_width: int = MAX_WIDTH,
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
        max_width=max_width,
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


def _class_search(G: PermGroup, rep: Permutation, pi: PrimeSet, m: int) -> WidthResult:
    """The search up to width m for a non-pi subgroup over the G-class of
    ``rep``, on the class table kept in ``class_data(G)``, traced as far as
    the search reads it.  Raises :class:`BudgetExhausted` when the class
    table does (a class of more than ``structure.CLASS_CAP`` members, before
    any search), and when the search passed ``STATE_CAP`` states before
    every tuple up to width m was searched.

    A representative whose order (the scan's, ``class_data(G).order``) is
    not a pi-number has width 1 by <rep> alone: it is answered without a
    search, chain or class table, with the result the engine would return
    at any width.

    A ``found`` search is kept in ``class_data(G)`` under (rep, pi) and
    returned again whenever a new search would reach it: its value is at
    most m and its states at most ``STATE_CAP``, read now.  Nothing else
    cuts a search, so the rule is exact: a new search meets the same states
    in the same order."""
    data = class_data(G)
    order = data.order(rep)
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
    kept = data.searches.get((rep.images, pi))
    if kept is not None and kept.value <= m and kept.states_visited <= STATE_CAP:
        return kept
    members, wits = data.class_table(rep)
    res = min_width_search(rep, members, wits, _non_pi_predicate(pi), max_width=m, group=G)
    if res.status == "found":
        data.searches[(rep.images, pi)] = res
    if res.status == "state_budget":  # the only end short of width m
        raise BudgetExhausted(
            f"search for {rep} ended with status {res.status} before certification"
        )
    return res


def bs_membership(G: PermGroup, pi: PrimeSet, m: int) -> BSMembershipResult:
    """Does width m suffice for membership testing against O_pi(G)?

    For each class representative x outside the radical, search for a
    <=m-tuple of G-conjugates of x generating a non-pi subgroup (elements of
    the radical need no search: their conjugates generate subgroups of the
    radical, which are pi-groups).  Raises :class:`BudgetExhausted` if such
    a representative of pi-number order has a class of more than
    ``structure.CLASS_CAP`` members, or its search found nothing and passed
    ``STATE_CAP`` states before every tuple up to width m was searched.

    The radical (:func:`pi_radical`), the classes and their tables come from
    ``class_data(G)``, so every membership call on one group object shares
    them.
    """
    if m < 1:
        raise ValueError(f"width m must be >= 1, got {m}")
    radical = pi_radical(G, pi)
    records: list[ClassMembershipRecord] = []
    for rep, size in class_data(G).reps:
        in_radical = radical.contains(rep)
        res = None if in_radical else _class_search(G, rep, pi, m)
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
    G: PermGroup, pi: PrimeSet, max_width: int = MAX_WIDTH
) -> tuple[int, list[tuple[Permutation, int]]]:
    """The least m for which :func:`bs_membership` holds, with the per-class
    minimal non-pi widths that determine it (max over representatives
    outside the radical; 1 when the radical is everything).

    These are the records of :func:`bs_membership` at width ``max_width``.
    Every representative outside the radical reaches a non-pi subgroup at
    some width (its class generates the non-pi normal closure), so one
    without a width there raises :class:`BudgetExhausted`, as do a search
    past ``STATE_CAP`` states and a class over ``structure.CLASS_CAP``.
    """
    res = bs_membership(G, pi, max_width)
    if res.violating_element is not None:
        raise BudgetExhausted(
            f"no certified non-pi width for {res.violating_element}: every "
            f"tuple of up to {max_width} of its conjugates generates "
            f"a pi-group"
        )
    per_rep = [
        (r.representative, r.violation_width) for r in res.records if not r.in_radical
    ]
    return max((w for _, w in per_rep), default=1), per_rep


# ---------------------------------------------------------------------------
# classical Baer-Suzuki: the membership test at pi = {p}, m = 2, certified


def baer_suzuki_check(G: PermGroup, p: int) -> BSMembershipResult:
    """The Baer-Suzuki theorem for G and p: x lies in O_p(G) exactly when
    every pair <x, x^g> is a p-group.  This is :func:`bs_membership` at
    pi = {p} and width 2, with each direction certified once; a failure is
    an implementation bug and raises :class:`InvariantViolation`, never a
    returned result.  Outside the radical, the result must hold: every class
    shows a pair generating a non-p group.  Inside it, ``pi_radical(G, {p})``
    must be a normal p-subgroup of G, so every pair of conjugates of its
    elements generates a p-group and no class in it is searched.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    pi = PrimeSet.of(p)
    res = bs_membership(G, pi, 2)
    if not res.holds:
        raise InvariantViolation(
            f"Baer-Suzuki equivalence failed at p={p}: {res.violating_element} is "
            f"outside O_p(G), yet every pair of its conjugates generates a p-group"
        )
    radical = pi_radical(G, pi)
    if not (is_pi_group(radical, pi) and radical.is_normal_in(G)):
        raise InvariantViolation(
            f"Baer-Suzuki equivalence failed at p={p}: O_p(G) of order "
            f"{radical.order} is not a normal p-subgroup"
        )
    return res


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
    because the shape counts sum to C(r(r-1)/2, r-2).  The reported radical
    is :func:`pi_radical`'s; for r <= 7 the closure route, which asks no
    certificate, must give the same group.  A shortfall, a shape
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
    radical = pi_radical(sym_r, pi)
    if sym_r.order_int <= 10**5 and not _closure_radical(sym_r, pi).same_group_as(radical):
        raise InvariantViolation(f"the closure route contradicts O_pi(Sym({r}))")
    return TranspositionSweepReport(
        r=r,
        pi=pi,
        subsets_checked=covered,
        shape_counts=shape_counts,
        all_small_subsets_pi=True,
        witness_subset=transpositions(star),
        witness_order=star_order,
        radical_order=radical.order,
        crosschecks=len(shape_counts) + 1,
        exhaustive=True,
        implied_lower_bound=r - 1,
    )
