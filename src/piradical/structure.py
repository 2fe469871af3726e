"""Prime sets, conjugacy classes, normal closures, and the pi-radical.

A group's class data is part of the group: :func:`class_data` builds one
:class:`GroupClassData` for G on first use and keeps it on G, and every
radical, lattice and membership question about G reads it from there.  It
holds G's class representatives and sizes, and each class table (members
with their conjugating witnesses), from one scan of the element enumeration,
and each class closure and pi-radical, every one computed at most once per
group object.  Elements are ``bytes``, one byte per point, as in
:mod:`piradical.groups`: a conjugate g^-1 m g is
``inv.translate(m.translate(table) + tail)``, with g^-1 and g padded built
once per loop (:func:`~piradical.perms.conjugators`), so it runs in C.

For a set of primes pi, a pi-number has all its prime divisors in pi and a
pi-group has pi-number order.  The pi-radical ``O_pi(G)`` is the largest
normal pi-subgroup of G.  It is computed here from its element
characterization: x lies in ``O_pi(G)`` exactly when the normal closure
``<x^G>`` is a pi-group, so

    O_pi(G) = join of the normal closures ``<x^G>`` that are pi-groups,
              x ranging over conjugacy class representatives.

(The join of normal pi-subgroups is again a normal pi-subgroup, every
element of O_pi contributes its whole class, and conversely each kept
closure is normal and pi, hence inside O_pi.)  A closure contains x, so
only a representative of pi-number order can have a pi closure: the others
are never closed for the radical.  Before any of this the radical asks the
orbit certificate (:func:`radical_is_trivial_by_orbits`): when no prime of
pi divides an orbit length of G, ``O_pi(G) = 1`` and no class is scanned
or closed.  ``normal_subgroups`` uses the same building blocks: every
normal subgroup is a union of classes, hence a join of class closures, so
closing the set of class closures under pairwise join enumerates all normal
subgroups exactly.
"""

from __future__ import annotations

import weakref
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import BudgetExhausted, InvariantViolation, NotAMember, TooLarge
from .factored import FactoredInteger, is_prime
from .groups import Images, PermGroup
from .perms import TAIL, Permutation, conjugators

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


def is_pi_element(x: Permutation, pi: PrimeSet) -> bool:
    """True when the order of ``x`` is a pi-number."""
    return is_pi_number(FactoredInteger.from_int(x.order()), pi)


# ---------------------------------------------------------------------------
# conjugacy

# (members, conjugating witnesses) of a whole class, as bytes: the width
# engine reads them as they are, and wraps a Permutation only for what
# leaves it
ClassTable = tuple[list[Images], list[Images]]


def _trace(
    x: Images, gens: list[tuple[Images, Images]], seen: set[Images], cap: int
) -> tuple[list[Images], array]:
    """The class of ``x`` by breadth-first search, conjugating by the
    generators in ``gens`` (:func:`~piradical.perms.conjugators`) and adding
    every member to ``seen``.  Returns the members and, for each after the
    first, the link ``parent index * len(gens) + generator index`` that
    reached it: a Schreier vector (Holt, *Handbook of CGT*, ch. 4).  Raises
    :class:`BudgetExhausted` as soon as the class passes ``cap`` members."""
    tail = TAIL[len(x):]
    seen.add(x)
    members, links, step = [x], [], 0
    for m in members:  # grows while it is read
        for inv, table in gens:
            y = inv.translate(m.translate(table) + tail)  # g^-1 m g
            if y not in seen:
                if len(members) >= cap:
                    raise BudgetExhausted(
                        f"the class of {Permutation(x)} has more members than its cap of {cap}"
                    )
                seen.add(y)
                members.append(y)
                links.append(step)
            step += 1
    return members, array("q", links)


def _witnesses(x: Images, links: array, tables: list[Images]) -> list[Images]:
    """The witnesses of the class traced from ``x``: the identity, then each
    member's parent's followed by its link's generator, padded in ``tables``."""
    witnesses = [TAIL[: len(x)]]
    for link in links:
        parent, k = divmod(link, len(tables))
        witnesses.append(witnesses[parent].translate(tables[k]))  # w then g
    return witnesses


def conjugation_orbit(G: PermGroup, x: Permutation, cap: int = 10**5) -> ClassTable:
    """Orbit of ``x`` under G-conjugation by breadth-first search over the
    group's generators, with conjugating witnesses, all as ``bytes``:
    ``x ** Permutation(w[i]) == Permutation(orbit[i])`` and
    ``orbit[0] == x.images``, ``w[0]`` the identity.

    Returns ``(members, witnesses)``.  Raises :class:`BudgetExhausted` as
    soon as the orbit passes ``cap`` members.
    """
    gens = conjugators(G.gens)
    members, links = _trace(x.images, gens, set(), cap)
    return members, _witnesses(x.images, links, [table for _, table in gens])


class ClassScan(list):
    """The rows ``(representative, class size)`` of a class scan, with each
    class's members and links from :func:`_trace`."""

    def __init__(self, tables: list[Images]):
        super().__init__()
        self.tables = tables  # the links' generators, padded
        self.traces: dict[Images, tuple[list[Images], array]] = {}

    def class_table(self, rep: Images) -> ClassTable:
        """``conjugation_orbit(G, rep)`` for a representative ``rep``, from
        its trace; ``ValueError`` for any other element."""
        if rep not in self.traces:
            raise ValueError(f"{Permutation(rep)} is not a class representative of the scan")
        members, links = self.traces[rep]
        return members, _witnesses(rep, links, self.tables)


def class_representatives(G: PermGroup, cap: int = 10**6) -> ClassScan:
    """One representative per conjugacy class with its class size, found by a
    deterministic scan of the canonical element enumeration (first-seen
    element of each class represents it).  Each class is traced on ``bytes``
    elements against one seen-set shared by the whole scan, and kept (see
    :class:`ClassScan`); only the representatives become :class:`Permutation`
    objects.  The scan stops once the sizes sum to |G|, which for disjoint
    classes is a coverage certificate.  Requires ``|G| <= cap``."""
    if G.order_int > cap:
        raise TooLarge(f"group order {G.order_int} exceeds cap {cap}")
    gens = conjugators(G.gens)
    reps = ClassScan([table for _, table in gens])
    seen: set[Images] = set()
    covered = 0
    for e in G.iter_element_tuples():
        if e in seen:
            continue
        members, links = reps.traces[e] = _trace(e, gens, seen, G.order_int)
        reps.append((Permutation(e), len(members)))
        covered += len(members)
        if covered >= G.order_int:
            break
    if covered != G.order_int:
        raise InvariantViolation("class sizes do not sum to the group order")
    return reps


def element_order_spectrum(G: PermGroup, cap: int = 10**6) -> frozenset[int]:
    """The set of element orders of G (orders are class functions, so class
    representatives suffice)."""
    return frozenset(rep.order() for rep, _ in class_representatives(G, cap))


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
        h = queue.pop()
        for inv, table in gens:
            t = inv.translate(h.translate(table) + tail)  # g^-1 h g
            if not H._contains_tuple(t):
                H = H.extend(t)
                queue.append(t)
    return H


class GroupClassData:
    """G's class data: class representatives, class tables, class closures
    and radicals, each computed once, when first asked for.  Obtain it with
    :func:`class_data`.

    ``reps`` is one scan of the elements, a :class:`ClassScan`; a
    ``class_table`` is rebuilt from its trace and a ``closure`` computed at
    the first request for its representative (the width engine and the
    closure route of :func:`pi_radical` ask only for classes of pi-number
    order; ``closures`` lists every class's), and :func:`pi_radical` stores
    each prime set's radical here.  ``searches`` keeps the width engine's
    ``found`` searches for a non-pi subgroup over a class of pi-number
    order, keyed by (representative images, pi), so that a second question
    about the same class reads the first answer (a class of non-pi order is
    answered at width 1 without a search, and is not kept).  The class data
    refers to G only weakly, so the two are freed together by reference
    counting.
    """

    def __init__(self, G: PermGroup):
        self._group = weakref.ref(G)
        self._reps: ClassScan | None = None
        self._tables: dict[Images, ClassTable] = {}
        self._closures: dict[Images, PermGroup] = {}
        self._radicals: dict[PrimeSet, PermGroup] = {}
        self.searches: dict[tuple[Images, PrimeSet], WidthResult] = {}

    @property
    def group(self) -> PermGroup:
        G = self._group()
        if G is None:
            raise ReferenceError("the group of this class data has been freed")
        return G

    @property
    def reps(self) -> ClassScan:
        if self._reps is None:
            self._reps = class_representatives(self.group)
        return self._reps

    def class_table(self, rep: Permutation) -> ClassTable:
        """``conjugation_orbit(G, rep)`` for a representative ``rep`` of
        ``reps``, rebuilt once from the scan's trace (else ``ValueError``)."""
        if rep.images not in self._tables:
            self._tables[rep.images] = self.reps.class_table(rep.images)
        return self._tables[rep.images]

    def closure(self, rep: Permutation) -> PermGroup:
        """``normal_closure(G, [rep])``, the normal closure of the class of
        ``rep``, computed once."""
        if rep.images not in self._closures:
            self._closures[rep.images] = normal_closure(self.group, [rep])
        return self._closures[rep.images]

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


def _join(G: PermGroup, parts: Sequence[PermGroup]) -> PermGroup:
    gens: list[Permutation] = []
    for part in parts:
        gens.extend(part.generators)
    return PermGroup.from_generators(gens, degree=G.degree)


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


def _closure_radical(G: PermGroup, pi: PrimeSet) -> PermGroup:
    """``O_pi(G)`` as the join of the class closures that are pi-groups (see
    the module docstring for why this is exact).  Only a class whose
    representative has pi-number order can have a pi closure, so only those
    closures are asked for, from ``class_data(G)``."""
    data = class_data(G)
    pi_order = [rep for rep, _ in data.reps if is_pi_element(rep, pi)]
    kept = [cl for cl in map(data.closure, pi_order) if is_pi_group(cl, pi)]
    radical = _join(G, kept)
    if not is_pi_group(radical, pi):
        raise InvariantViolation(
            "join of normal pi-subgroups failed to be a pi-group"
        )
    if not radical.is_normal_in(G):
        raise InvariantViolation("pi-radical candidate is not normal")
    return radical


def pi_radical(G: PermGroup, pi: PrimeSet) -> PermGroup:
    """The largest normal pi-subgroup ``O_pi(G)``.  The orbit certificate
    (:func:`radical_is_trivial_by_orbits`) is asked first: when it holds the
    radical is the trivial group, with no class scanned and none closed.
    Otherwise it is the join of the pi closures of the classes of pi-order
    representatives (:func:`_closure_radical`).  ``class_data(G)`` keeps the
    radical, so each prime set's radical is computed once per group."""
    data = class_data(G)
    if pi not in data._radicals:
        data._radicals[pi] = (
            PermGroup.trivial(G.degree)
            if radical_is_trivial_by_orbits(G, pi)
            else _closure_radical(G, pi)
        )
    return data._radicals[pi]


def normal_subgroups(G: PermGroup) -> list[PermGroup]:
    """All normal subgroups of G (|G| <= 10^6), as the join-closure of the
    conjugacy-class normal closures, sorted by order.  Independent of
    :func:`pi_radical` except for sharing the class closures of
    ``class_data(G)``.

    The closure is semi-naive: each pass joins only the pairs that include
    a subgroup found by the pass before (the other pairs were joined then),
    and skips a pair when one member contains the other, whose join is the
    larger one.  Both skip only joins that are already known, so the
    subgroups are found in the order that joining every pair in every pass
    finds them."""
    closures = [cl for _, cl in class_data(G).closures]
    found: list[PermGroup] = [PermGroup.trivial(G.degree)]

    def known(H: PermGroup) -> bool:
        return any(H.same_group_as(K) for K in found if K.order_int == H.order_int)

    def nested(A: PermGroup, B: PermGroup) -> bool:
        small, large = sorted((A, B), key=lambda H: H.order_int)
        return large.order_int % small.order_int == 0 and small.is_subgroup_of(large)

    for cl in closures:
        if not known(cl):
            found.append(cl)
    new = 0  # found[new:] are the subgroups the last pass added
    while new < len(found):
        snapshot = list(found)
        for i, A in enumerate(snapshot):
            for B in snapshot[max(i + 1, new) :]:
                if nested(A, B):
                    continue
                J = _join(G, [A, B])
                if not known(J):
                    found.append(J)
        new = len(snapshot)
    return sorted(found, key=lambda H: (H.order_int, H.orbit_partition))
