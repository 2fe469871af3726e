"""Prime sets, conjugacy classes, normal closures, and the pi-radical.

A group's class data is part of the group: :func:`class_data` builds one
:class:`GroupClassData` for G on first use and keeps it on G, and every
radical, lattice and membership question about G reads it from there.  It
holds G's class representatives and sizes, from one counting scan of the
element enumeration (by a pair of elements when a pair generates G, and by
cycle type for Alt(n) and Sym(n)), with each representative's order; each
class table (members with their conjugating witnesses), traced as far as it
is read; and each class closure and pi-radical, every one computed at most
once per group object.  Elements are ``bytes``, one byte per point, as in
:mod:`piradical.groups`: a conjugate g^-1 m g is
``inv.translate(m + tail).translate(table)``, with g^-1 and g padded built
once per loop (:func:`~piradical.perms.conjugators`), so it runs in C.

For a set of primes pi, a pi-number has all its prime divisors in pi and a
pi-group has pi-number order.  The pi-radical ``O_pi(G)`` is the largest
normal pi-subgroup of G.  Four exact facts let the class sizes of the scan
answer most of the work without a stabilizer chain, and a fifth gives the
classes of Alt(n) and Sym(n) without conjugating at all:

1. *Only classes of prime-power order are closed.*  O_pi(G) is the join
   of the closures ``<x^G>`` that are pi-groups: each is a normal
   pi-subgroup, and O_pi(G) holds the closure of each of its elements.  The
   p-parts x_p of x are powers of x whose product is x, so ``<x^G>`` is the
   join of the ``<x_p^G>``, and a join of normal subgroups is a pi-group
   exactly when each is.  So every normal subgroup is the join of the
   closures of the prime-power classes it contains, and O_pi(G) is the join
   of the pi closures of the prime-power classes (of p-elements, p in pi).
2. *The class equation certifies a closure.*  Let N be a known normal
   subgroup containing y.  ``<y^G>`` lies in N, is a union of G-classes of
   N containing {1} and y^G, and its order divides |N|.  If no proper
   divisor of |N| is 1 + |y^G| + a sum of sizes of N's other classes, then
   ``<y^G>`` = N.  Signs sharpen the sums, since a normal subgroup that
   holds an odd permutation is exactly half odd.  For an odd y, d must be
   even, with d/2 = |y^G| + a sum of sizes of odd classes and d/2 = 1 + a
   sum of sizes of even ones; for an even y, d = 1 + |y^G| + a sum of
   sizes of even classes, or d/2 is a nonempty sum of sizes of odd classes
   and d/2 = 1 + |y^G| + a sum of sizes of even ones.  The known subgroups
   are G and the distinct closures of the prime-power classes before y in
   scan order, which are closed in that order, so a closure depends on G
   and y alone.
3. *Class masks decide the lattice.*  A normal subgroup is the union of the
   classes it meets, so its bitmask over the representatives decides it:
   equal masks are equal subgroups, and a mask inside another a subgroup.
   For normal A and B, AB is their join, |AB| = |A||B|/|A n B|, and
   |A n B| is the sum of the class sizes of ``a & b``.  A known subgroup
   whose mask contains ``a | b`` contains AB, and is AB when the orders
   agree; only a join that is new is built.
4. *A pi-group is its own radical*: G is then a normal pi-subgroup of G.
5. *A giant's classes are cycle types.*  Two permutations are conjugate in
   Sym(n) exactly when they have one cycle type, a partition of n with m_k
   parts k (fixed points are parts of 1), and that class has n!/z members,
   z = prod k^m_k m_k!, the order of the centraliser.  An even class is one
   Alt(n)-class unless its parts are distinct and odd: then the centraliser
   (the cycles' own powers) is even, and the class is two Alt(n)-classes of
   n!/2z members each (James and Kerber, *The Representation Theory of the
   Symmetric Group*, 1981, ch. 1).  For such e and f, list each one's
   cycles by length into a word; the permutation taking e's word to f's
   conjugates e to f, and its parity is that of the two words' (as
   one-line permutations) together, which the start of an odd cycle does
   not change, so e and f are Alt(n)-conjugate exactly when their words
   have one parity.  The scan of a giant keys each element by its cycle
   type, and by that parity for a type that splits, and reads each size
   off the type (:func:`_giant_scan`).

Before the closures the radical asks two more certificates: the orbit
certificate (:func:`radical_is_trivial_by_orbits`), when no prime of pi
divides an orbit length of G, and the giant certificate (:func:`_is_giant`),
when G is Alt(n) or Sym(n), n >= 5, and not a pi-group.  Either gives
``O_pi(G) = 1``; with fact 4, a giant's radical needs no scan at any degree.
"""

from __future__ import annotations

import functools
import math
import weakref
from collections import Counter
from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING

from .errors import BudgetExhausted, InvariantViolation, NotAMember, TooLarge
from .factored import FactoredInteger, is_prime
from .groups import Images, PermGroup
from .perms import TAIL, Permutation, compose_images, conjugators

if TYPE_CHECKING:
    from .width import WidthResult

# ---------------------------------------------------------------------------
# prime sets


@dataclass(frozen=True)
class PrimeSet:
    """A finite or cofinite set of primes.

    ``cofinite=False``: the set is exactly ``primes``.
    ``cofinite=True``: the set is all primes except ``primes``.

    Text syntax: ``"2,3,5"`` for a finite set, ``"all-except:5,7"`` for a
    cofinite one (``"all-except:"`` is the set of all primes, ``""`` the
    empty set).
    """

    primes: frozenset[int] = frozenset()
    cofinite: bool = False

    @classmethod
    def of(cls, *primes: int) -> "PrimeSet":
        return cls(cls._validate(primes), False)

    @classmethod
    def all_except(cls, *primes: int) -> "PrimeSet":
        return cls(cls._validate(primes), True)

    @staticmethod
    def _validate(primes: Iterable[int]) -> frozenset[int]:
        ps = frozenset(primes)
        for p in ps:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        return ps

    @classmethod
    def parse(cls, text: str) -> "PrimeSet":
        s = text.strip()
        cofinite = False
        if s.startswith("all-except:"):
            cofinite = True
            s = s[len("all-except:") :]
        parts = [t for t in s.replace(",", " ").split() if t]
        try:
            nums = [int(t) for t in parts]
        except ValueError:
            raise ValueError(f"bad prime set {text!r}: non-integer entry")
        return cls(cls._validate(nums), cofinite)

    def contains(self, p: int) -> bool:
        return (p not in self.primes) if self.cofinite else (p in self.primes)

    def __contains__(self, p: int) -> bool:
        return self.contains(p)

    def __str__(self) -> str:
        body = ",".join(str(p) for p in sorted(self.primes))
        return f"all-except:{body}" if self.cofinite else body


def is_pi_number(n: FactoredInteger, pi: PrimeSet) -> bool:
    """True when every prime divisor of ``n`` lies in ``pi``."""
    return all(pi.contains(p) for p in n.prime_support)


def is_pi_group(G: PermGroup, pi: PrimeSet) -> bool:
    return is_pi_number(G.order, pi)


def membership_bound(pi: PrimeSet) -> int:
    """m(pi) of the paper's main theorem: with r the least prime outside pi,
    width r settles membership in ``O_pi`` when r is 2 or 3, and r - 1 when
    r >= 5.  ``ValueError`` when no prime lies outside pi."""
    if pi.cofinite and not pi.primes:
        raise ValueError("every prime lies in pi, so m(pi) is undefined")
    r = 2
    while r in pi or not is_prime(r):
        r += 1
    return r if r <= 3 else r - 1


# ---------------------------------------------------------------------------
# conjugacy

# (members, conjugating witnesses) of a class, as bytes: the width engine
# reads them as they are, and wraps a Permutation only for what leaves it
ClassTable = tuple[Sequence[Images], Sequence[Images]]
Conjugators = list[tuple[Images, Images]]  # (g^-1, g padded): perms.conjugators


def _orbit(x: Images, gens: Conjugators, seen: set[Images], cap: int) -> list[Images]:
    """The members of the class of ``x`` by breadth-first search, conjugating
    by ``gens`` and adding each to ``seen``.  Raises :class:`BudgetExhausted`
    as soon as the class passes ``cap`` members."""
    tail = TAIL[len(x):]
    seen.add(x)
    members = [x]
    for m in members:  # grows while it is read
        m += tail
        for inv, table in gens:
            y = inv.translate(m).translate(table)  # g^-1 m g
            if y not in seen:
                if len(members) >= cap:
                    raise BudgetExhausted(
                        f"the class of {Permutation(x)} has more members than its cap of {cap}"
                    )
                seen.add(y)
                members.append(y)
    return members


class _Tracer:
    """The class of ``x`` by breadth-first search over ``gens``, with a
    conjugating witness for each member: the identity for ``x``, then the
    witness of the member it was reached from followed by the generator
    that reached it (a Schreier tree; Holt, *Handbook of CGT*, ch. 4).
    ``members`` and ``witnesses`` are the prefix traced so far, and
    :meth:`trace` resumes where it stopped, in the same order.  Past ``cap``
    members it raises :class:`BudgetExhausted`; when ``exact``, the class has
    exactly ``cap`` members, and passing or ending short of that raises
    :class:`InvariantViolation`."""

    def __init__(self, x: Images, gens: Conjugators, cap: int, exact: bool = False):
        self.members, self.witnesses = [x], [TAIL[: len(x)]]
        self.gens, self.cap, self.exact = gens, cap, exact
        self._seen = {x}
        self._next = 0  # the members before it have been conjugated

    def trace(self, count: int | None = None) -> None:
        """Trace until at least ``count`` members are known, else to the end."""
        members, witnesses, seen, gens = self.members, self.witnesses, self._seen, self.gens
        stop = self.cap + 1 if count is None else count
        tail = TAIL[len(members[0]):]
        p = self._next
        while p < len(members) < stop:
            m, w = members[p] + tail, witnesses[p]
            p += 1
            for inv, table in gens:
                y = inv.translate(m).translate(table)  # g^-1 m g
                if y not in seen:
                    if len(members) >= self.cap:
                        raise self._error("more members than")
                    seen.add(y)
                    members.append(y)
                    witnesses.append(w.translate(table))  # w then g
        self._next = p
        if p == len(members) and seen:  # the end: the set is no longer needed
            if self.exact and p != self.cap:
                raise self._error("fewer members than")
            seen.clear()

    def _error(self, relation: str) -> Exception:
        x = Permutation(self.members[0])
        if self.exact:
            return InvariantViolation(f"the class of {x} has {relation} the scan's {self.cap}")
        return BudgetExhausted(f"the class of {x} has {relation} its cap of {self.cap}")


class _Traced(Sequence):
    """The members or the witnesses of an exact :class:`_Tracer`, of its class
    size: index i traces the class to member i, a slice to its last member,
    iterating to the end.  Indices, negative ones and slices read as on the
    list the column becomes once traced to the end, and from then on a read
    is one list index."""

    def __init__(self, tracer: _Tracer, column: list[Images]):
        self._tracer, self._column, self._size = tracer, column, tracer.cap

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, i):
        column = self._column
        if len(column) < self._size:  # not yet traced to the end
            wanted = range(self._size)[i]  # a list's IndexError and negative indices
            if isinstance(wanted, range):  # a slice
                if wanted:
                    self._tracer.trace(max(wanted[0], wanted[-1]) + 1)
                return [column[j] for j in wanted]
            if wanted >= len(column):
                self._tracer.trace(wanted + 1)
            return column[wanted]
        return column[i]

    def __iter__(self) -> Iterator[Images]:
        self._tracer.trace()
        return iter(self._column)


def _lazy_table(x: Images, gens: Sequence[Images], size: int) -> ClassTable:
    """The class table of ``x`` under conjugation by the group that ``gens``
    generate, of ``size`` members, traced as far as it is read
    (:class:`_Traced`); a trace that passes ``size`` or ends short of it
    raises :class:`InvariantViolation`.  A class of more than ``CLASS_CAP``
    members raises :class:`BudgetExhausted` before any trace."""
    if size > CLASS_CAP:
        raise BudgetExhausted(
            f"the class of {Permutation(x)} has {size} members, "
            f"more than the class cap of {CLASS_CAP}"
        )
    tracer = _Tracer(x, conjugators(gens), size, exact=True)
    return _Traced(tracer, tracer.members), _Traced(tracer, tracer.witnesses)


def conjugation_orbit(G: PermGroup, x: Permutation, cap: int | None = None) -> ClassTable:
    """Orbit of ``x`` under G-conjugation by breadth-first search over the
    group's generators, with conjugating witnesses, all as ``bytes``:
    ``x ** Permutation(w[i]) == Permutation(orbit[i])`` and
    ``orbit[0] == x.images``, ``w[0]`` the identity.

    Returns ``(members, witnesses)`` as lists.  Raises
    :class:`BudgetExhausted` as soon as the orbit passes ``cap`` members
    (``CLASS_CAP`` when not given).
    """
    tracer = _Tracer(x.images, conjugators(G.gens), CLASS_CAP if cap is None else cap)
    tracer.trace()
    return tracer.members, tracer.witnesses


def _scan_conjugators(G: PermGroup) -> Conjugators:
    """The conjugating set of the class scan: with more than two
    generators, the first pair whose chain has order |G|, else ``G.gens``.
    The pairs are each (g_i, the product in order of the others), and
    (the product in order of the even-indexed generators, that of the
    odd-indexed ones), which can generate a direct product given by its
    factors' own generators where no other pair does (it generates each of
    S3xS4, S3xA4, A4xS5 and S4xS5 so given): it is tried first when G is
    intransitive, as such a product is, and last otherwise.  Any
    generating set of G has the same conjugation orbits, so the scan's
    classes do not move."""
    gens = G.gens
    if len(gens) <= 2:
        return conjugators(gens)
    product = functools.partial(functools.reduce, compose_images)
    pairs = [(g, product(gens[:i] + gens[i + 1 :])) for i, g in enumerate(gens)]
    split = (product(gens[0::2]), product(gens[1::2]))
    pairs.insert(len(pairs) if G.is_transitive() else 0, split)
    for pair in pairs:
        chain = PermGroup.from_generators(map(Permutation, pair), degree=G.degree)
        if chain.order_int == G.order_int:
            return conjugators(pair)
    return conjugators(gens)


# the most members a class table holds: a traced table keeps every member
# with its witness, so this bounds its memory; a larger class is refused
CLASS_CAP = 100_000
# the largest group order a class scan takes
CLASS_SCAN_CAP = 10**6


def class_representatives(G: PermGroup) -> list[tuple[Permutation, int]]:
    """One representative per conjugacy class with its class size, found by a
    deterministic scan of the canonical element enumeration (first-seen
    element of each class represents it).  The scan stops once the sizes
    sum to |G|, which for disjoint classes is a coverage certificate.  A
    giant (:func:`_is_giant`) is scanned by cycle type (fact 5 of the module
    docstring, :func:`_giant_scan`), any other group by :func:`_orbit_scan`.
    Requires ``|G| <= CLASS_SCAN_CAP``."""
    if G.order_int > CLASS_SCAN_CAP:
        raise TooLarge(f"group order {G.order_int} exceeds cap {CLASS_SCAN_CAP}")
    reps = _giant_scan(G) if _is_giant(G) else _orbit_scan(G)
    if sum(size for _, size in reps) != G.order_int:
        raise InvariantViolation("class sizes do not sum to the group order")
    return reps


def _orbit_scan(G: PermGroup) -> list[tuple[Permutation, int]]:
    """The class scan of any group: each class is counted by :func:`_orbit`
    over :func:`_scan_conjugators`, against one seen-set that the scan drops
    on return, so it keeps the rows only."""
    gens = _scan_conjugators(G)
    reps: list[tuple[Permutation, int]] = []
    seen: set[Images] = set()
    covered = 0
    for e in G.iter_element_tuples():
        if e in seen:
            continue
        size = len(_orbit(e, gens, seen, G.order_int))
        reps.append((Permutation(e), size))
        covered += size
        if covered >= G.order_int:
            break
    return reps


def _giant_scan(G: PermGroup) -> list[tuple[Permutation, int]]:
    """The class scan of Alt(n) or Sym(n) by cycle type (fact 5 of the
    module docstring): an element is keyed by its cycle lengths and, for an
    Alt(n) type that splits, by the parity of its cycle word, and each class
    size is :func:`_giant_class_size`; nothing is conjugated."""
    alternating = _is_alternating(G)
    reps: list[tuple[Permutation, int]] = []
    keys: set = set()
    covered = 0
    for e in G.iter_element_tuples():
        cycles = _cycles(e)
        lengths = tuple(sorted(map(len, cycles)))
        key = lengths
        if alternating and _splits(lengths):
            key = (lengths, _parity([p for c in sorted(cycles, key=len) for p in c]))
        if key in keys:
            continue
        keys.add(key)
        size = _giant_class_size(G, e)
        reps.append((Permutation(e), size))
        covered += size
        if covered >= G.order_int:
            break
    return reps


def _cycles(e: Sequence[int]) -> list[list[int]]:
    """Every cycle of the permutation with images ``e``, fixed points
    included, each from its least point, by that point."""
    seen = bytearray(len(e))
    cycles = []
    for start in range(len(e)):
        if not seen[start]:
            cycle, p = [start], e[start]
            seen[start] = 1
            while p != start:
                cycle.append(p)
                seen[p] = 1
                p = e[p]
            cycles.append(cycle)
    return cycles


def _parity(e: Sequence[int]) -> int:
    """0 for an even permutation, 1 for an odd one."""
    return (len(e) - len(_cycles(e))) % 2


def _splits(lengths: Sequence[int]) -> bool:
    """A cycle type whose Sym(n)-class is two Alt(n)-classes: distinct odd
    parts, fixed points counted as parts of 1."""
    return all(k % 2 for k in lengths) and len(set(lengths)) == len(lengths)


def _giant_class_size(G: PermGroup, x: Images) -> int:
    """|x^G| for a giant G and any x of its degree: n!/z for the cycle type
    of x, z = prod k^m_k m_k!, halved when G is Alt(n) and the type splits
    (fact 5 of the module docstring)."""
    lengths = [len(c) for c in _cycles(x)]
    z = math.prod(k**m * math.factorial(m) for k, m in Counter(lengths).items())
    size = math.factorial(G.degree) // z
    return size // 2 if _is_alternating(G) and _splits(lengths) else size


def element_order_spectrum(G: PermGroup) -> frozenset[int]:
    """The set of element orders of G, read off the scan of
    ``class_data(G)`` (orders are class functions, so class representatives
    suffice)."""
    data = class_data(G)
    return frozenset(data.order(rep).value for rep, _ in data.reps)


# ---------------------------------------------------------------------------
# normal closures, normal subgroups, the radical


def normal_closure(G: PermGroup, elements: Sequence[Permutation]) -> PermGroup:
    """Smallest normal subgroup of G containing ``elements``: close the
    generating set under conjugation by G's generators, growing the chain
    incrementally."""
    for x in elements:
        if not G.contains(x):
            raise NotAMember(f"{x} is not in the group")
    seedlist = [x for x in elements if not x.is_identity()]
    H = PermGroup.from_generators(seedlist, degree=G.degree)
    tail = TAIL[G.degree:]
    gens = conjugators(G.gens)
    queue = [x.images for x in seedlist]
    while queue:
        h = queue.pop() + tail
        for inv, table in gens:
            t = inv.translate(h).translate(table)  # g^-1 h g
            if not H._contains_tuple(t):
                H = H.extend(t)
                queue.append(t)
    return H


class GroupClassData:
    """G's class data: class representatives, class tables, class closures
    and radicals, each computed once, when first asked for.  Obtain it with
    :func:`class_data`.

    ``reps`` is the counting scan of :func:`class_representatives`, and
    ``order`` reads each representative's order, found once with it; a
    ``class_table`` is made at the first request for its representative and
    traced over ``G.gens`` as far as it is read, and a ``closure`` computed
    at the first request (``closures`` lists every class's), and
    :func:`pi_radical` stores each prime set's radical here.  ``_known``
    lists G and the distinct closures of the prime-power classes closed so
    far, in scan order, with their class masks.  ``searches``
    keeps the width engine's ``found`` searches for a non-pi subgroup over a
    class of pi-number order, keyed by (representative images, pi), so that
    a second question about the same class reads the first answer (a class
    of non-pi order is answered at width 1 without a search, and is not
    kept).  The class data refers to G only weakly (``_known`` holds a
    second object on G's chain), so the two are freed together by
    reference counting.
    """

    def __init__(self, G: PermGroup):
        self._group = weakref.ref(G)
        self._reps: list[tuple[Permutation, int]] | None = None
        self._tables: dict[Images, ClassTable] = {}
        self._closures: dict[Images, PermGroup] = {}
        self._radicals: dict[PrimeSet, PermGroup] = {}
        self._known: list[tuple[PermGroup, int]] = []
        self._index: dict[Images, int] = {}  # representative -> scan position
        self._orders: list[FactoredInteger] = []  # by scan position
        self._prime: list[bool] = []  # by scan position: of prime-power order
        self._odd: list[bool] = []  # by scan position: an odd permutation
        self._divisors: dict[int, list[int]] = {}  # |N| -> its proper divisors, N known
        self._closed = 0  # the prime-power classes before this index are closed
        self.searches: dict[tuple[Images, PrimeSet], WidthResult] = {}

    @property
    def group(self) -> PermGroup:
        G = self._group()
        if G is None:
            raise ReferenceError("the group of this class data has been freed")
        return G

    @property
    def reps(self) -> list[tuple[Permutation, int]]:
        if self._reps is None:
            G = self.group
            self._reps = reps = class_representatives(G)
            self._known = [(PermGroup(G.degree, G.gens, G._levels), (1 << len(reps)) - 1)]
            self._index = {rep.images: i for i, (rep, _) in enumerate(reps)}
            self._orders = [FactoredInteger.from_int(r.order()) for r, _ in reps]
            self._prime = [len(order.factors) == 1 for order in self._orders]
            self._odd = [sum(len(c) - 1 for c in r.cycles()) % 2 == 1 for r, _ in reps]
        return self._reps

    def class_table(self, rep: Permutation) -> ClassTable:
        """``conjugation_orbit(G, rep)`` for a representative ``rep`` of
        ``reps`` (else ``ValueError``), traced over ``G.gens`` as far as it
        is read: each column has the scan's class size as its length, and
        reading index i traces the class to member i (:class:`_Traced`).
        A class of more than ``CLASS_CAP`` members raises
        :class:`BudgetExhausted` before any trace; one that passes the
        scan's size, or ends short of it, raises :class:`InvariantViolation`."""
        key = rep.images
        if key not in self._tables:
            self.reps  # the scan indexes the classes
            if key not in self._index:
                raise ValueError(f"{rep} is not a class representative of the scan")
            size = self._reps[self._index[key]][1]
            self._tables[key] = _lazy_table(key, self.group.gens, size)
        return self._tables[key]

    def order(self, rep: Permutation) -> FactoredInteger:
        """The order of a representative of ``reps``, as the scan found it."""
        self.reps
        return self._orders[self._index[rep.images]]

    def prime_power_reps(self) -> list[Permutation]:
        """The representatives of prime-power order, in scan order."""
        return [rep for (rep, _), prime in zip(self.reps, self._prime) if prime]

    def closure(self, rep: Permutation) -> PermGroup:
        """``normal_closure(G, [rep])``, the normal closure of the class of
        ``rep``, computed once.  For a class of prime-power order the
        prime-power classes up to it are closed in scan order, each by the
        class-equation certificate (fact 2 of the module docstring) or else
        by ``normal_closure``, so the answer never depends on the order of
        the requests; any other element is closed by ``normal_closure``."""
        key = rep.images
        self.reps  # the scan indexes the classes
        i = self._index.get(key)
        if key not in self._closures and (i is None or not self._prime[i]):
            self._closures[key] = normal_closure(self.group, [rep])
        while key not in self._closures:
            j, self._closed = self._closed, self._closed + 1
            if self._prime[j]:
                self._closures[self.reps[j][0].images] = self._close(j)
        return self._closures[key]

    def _close(self, j: int) -> PermGroup:
        """The closure of class ``j``: the smallest known N containing it
        when the class equation, with signs, certifies it (fact 2 of the
        module docstring), else a new known subgroup."""
        rep, size = self.reps[j]
        N, within = min((k for k in self._known if k[1] >> j & 1), key=lambda k: k[0].order_int)
        total = N.order_int
        if total not in self._divisors:
            divisors = [1]
            for p, e in N.order.factors:
                divisors = [d * p**k for d in divisors for k in range(e + 1)]
            self._divisors[total] = [d for d in divisors if d < total]
        # the subset sums of the sizes of N's even and of its odd classes,
        # {1} and y^G left out, as bitsets up to |N| / 2, the largest
        # proper divisor
        sums, cap = [1, 1], (2 << total // 2) - 1
        for i in _bits(within & ~(1 | 1 << j)):  # class 0 is {1}, met first
            sign = self._odd[i]
            sums[sign] = (sums[sign] | sums[sign] << self.reps[i][1]) & cap
        even, odd = sums

        def reach(sums: int, k: int) -> bool:
            return k >= 0 and sums >> k & 1 == 1

        def possible(d: int) -> bool:
            """|<y^G>| = d is not ruled out: class sizes sum to d, and to
            d/2 over the odd classes when any class is odd."""
            half = d // 2 if d % 2 == 0 else -1
            if self._odd[j]:
                return reach(odd, half - size) and reach(even, half - 1)
            return reach(even, d - 1 - size) or (
                reach(odd, half) and reach(even, half - 1 - size)
            )

        if not any(map(possible, self._divisors[total])):
            return N
        H = normal_closure(self.group, [rep])
        if H.order_int == total:
            return N
        self._known.append((H, self.mask(H, within, 1 | 1 << j)))
        return H

    def mask(self, H: PermGroup, within: int = -1, known: int = 0) -> int:
        """The class mask of the normal subgroup H: bit i set when H contains
        representative i.  Bits in ``known`` are set and bits outside
        ``within`` clear without a sift; each other representative is
        sifted once."""
        mask = known
        for i, (rep, _) in enumerate(self.reps):
            if (within & ~known) >> i & 1 and H._contains_tuple(rep.images):
                mask |= 1 << i
        return mask

    @property
    def closures(self) -> list[tuple[Permutation, PermGroup]]:
        """(representative, normal closure of its class) for every class."""
        return [(rep, self.closure(rep)) for rep, _ in self.reps]


def class_data(G: PermGroup) -> GroupClassData:
    """G's :class:`GroupClassData`, built on first use and kept on G."""
    try:
        return G._class_data
    except AttributeError:
        G._class_data = GroupClassData(G)
        return G._class_data


def _bits(mask: int) -> Iterable[int]:
    """The indices of the set bits of ``mask`` >= 0, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _join(G: PermGroup, parts: Sequence[PermGroup]) -> PermGroup:
    return PermGroup.from_generators([g for H in parts for g in H.generators], degree=G.degree)


def radical_is_trivial_by_orbits(G: PermGroup, pi: PrimeSet) -> bool:
    """Exact certificate that ``O_pi(G) = 1``: no prime of pi divides the
    length of any orbit in ``G.orbit_partition``.

    Let N be a normal subgroup of G and O a G-orbit.  The N-orbits inside O
    are blocks of G, permuted transitively by G, so they share one size s;
    s divides |O|, and s divides |N| by orbit-stabilizer.  If N is a
    nontrivial pi-group it moves some point, so in that point's orbit s > 1,
    and a prime of s lies in pi (it divides |N|) and divides |O|.  When no
    prime of pi divides an orbit length there is no such N, and the radical
    is trivial (Dixon and Mortimer, *Permutation Groups*, ch. 1).
    """
    return not any(
        pi.contains(p)
        for orbit in G.orbit_partition
        for p in FactoredInteger.from_int(len(orbit)).prime_support
    )


def _is_alternating(G: PermGroup) -> bool:
    """A giant G is Alt(n), not Sym(n): |G| = n!/2."""
    return 2 * G.order_int == math.factorial(G.degree)


def _is_giant(G: PermGroup) -> bool:
    """True when G is Alt(n) or Sym(n) on its n >= 5 points, read off the
    chain order: 2|G| >= n! puts G at index at most 2 in Sym(n), and Alt(n)
    is the only subgroup of index 2.  Their only normal subgroups are 1,
    Alt(n) and Sym(n), and |Alt(n)| = n!/2 has the prime support of n!, so
    ``O_pi(G) = 1`` unless G is a pi-group."""
    return G.degree >= 5 and 2 * G.order_int >= math.factorial(G.degree)


def _closure_radical(G: PermGroup, pi: PrimeSet) -> PermGroup:
    """``O_pi(G)`` as the join of the distinct pi closures of the
    prime-power classes of pi-order (fact 1 of the module docstring), from
    ``class_data(G)``, each joined once; no certificate is asked."""
    data = class_data(G)
    pi_order = [rep for rep in data.prime_power_reps() if is_pi_number(data.order(rep), pi)]
    kept = [cl for cl in map(data.closure, pi_order) if is_pi_group(cl, pi)]
    radical = _join(G, list({id(cl): cl for cl in kept}.values()))  # each closure once
    if not is_pi_group(radical, pi):
        raise InvariantViolation("join of normal pi-subgroups failed to be a pi-group")
    if not radical.is_normal_in(G):
        raise InvariantViolation("pi-radical candidate is not normal")
    return radical


def pi_radical(G: PermGroup, pi: PrimeSet) -> PermGroup:
    """The largest normal pi-subgroup ``O_pi(G)``.  Three certificates are
    asked first, none of which scans or closes a class: the orbit
    certificate (:func:`radical_is_trivial_by_orbits`) and the giant
    certificate (:func:`_is_giant` and G not a pi-group) give the trivial
    group, and a pi-group G is its own radical (fact 4 of the module
    docstring), returned as G itself.  Otherwise the radical is the join of
    the pi closures of the prime-power classes of pi-order (fact 1,
    :func:`_closure_radical`), kept in ``class_data(G)``."""
    data = class_data(G)
    if pi not in data._radicals:
        if radical_is_trivial_by_orbits(G, pi) or (_is_giant(G) and not is_pi_group(G, pi)):
            data._radicals[pi] = PermGroup.trivial(G.degree)
        elif is_pi_group(G, pi):
            return G  # not kept: the class data holds G only weakly
        else:
            data._radicals[pi] = _closure_radical(G, pi)
    return data._radicals[pi]


def normal_subgroups(G: PermGroup) -> list[PermGroup]:
    """All normal subgroups of G (|G| <= 10^6), sorted by order: the
    join-closure of the closures of the prime-power classes (fact 1 of the
    module docstring), run on class masks (fact 3).  Independent of
    :func:`pi_radical` except for sharing the class closures of
    ``class_data(G)``.

    The closure is semi-naive: each pass joins only the pairs that include
    a subgroup found by the pass before (the other pairs were joined then).
    A pair whose masks are nested joins to the larger; a pair whose join a
    known subgroup's mask and order identify is skipped; only a new join
    is built, and its class mask found by sifting the classes outside
    ``a | b``; a join is looked for among the found subgroups of its order."""
    data = class_data(G)
    for rep in data.prime_power_reps():
        data.closure(rep)
    sizes = [size for _, size in data.reps]
    # class 0 is {1}, so mask 1 is the trivial group, which a trivial G is too
    found = [(PermGroup.trivial(G.degree), 1)] + [k for k in data._known if k[1] != 1]
    by_order: dict[int, list[int]] = {}  # order -> masks of the found subgroups
    for H, m in found:
        by_order.setdefault(H.order_int, []).append(m)
    new = 0  # found[new:] are the subgroups the last pass added
    while new < len(found):
        snapshot = list(found)
        for i, (A, a) in enumerate(snapshot):
            for B, b in snapshot[max(i + 1, new) :]:
                ab = a | b
                if ab == a or ab == b:
                    continue
                meet = sum(sizes[k] for k in _bits(a & b))
                order = A.order_int * B.order_int // meet
                if any(m & ab == ab for m in by_order.get(order, ())):
                    continue
                J = _join(G, [A, B])
                if J.order_int != order:
                    raise InvariantViolation("a join's order is not |A||B|/|A n B|")
                found.append((J, data.mask(J, known=ab)))
                by_order.setdefault(order, []).append(found[-1][1])
        new = len(snapshot)
    return sorted((H for H, _ in found), key=lambda H: (H.order_int, H.orbit_partition))
