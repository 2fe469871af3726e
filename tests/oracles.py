"""Brute-force reference implementations used to pin expected values.

Everything here works on explicit element sets via breadth-first closure —
no stabilizer chains, no sifting — so agreement with the library is a real
two-route check.  Closures compose plain tuples of integers; only the
conjugation and commutation checks use :class:`piradical.Permutation`
arithmetic (and that layer is itself tested against hand-computed
products).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, count
from typing import Callable, Sequence

from sympy import factorint

from piradical import Permutation


Images = tuple[int, ...]


def _tuple_closure(gens: list[Images], degree: int) -> frozenset[Images]:
    """All products of the generators, as plain image tuples: breadth-first
    over right multiplication (a, then g is ``g[a[i]]``)."""
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = tuple([g[i] for i in a])
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return frozenset(seen)


def closure(gens: list[Permutation], degree: int) -> frozenset[Permutation]:
    """All products of the generators (:func:`_tuple_closure`)."""
    return frozenset(
        Permutation(t) for t in _tuple_closure([tuple(g.images) for g in gens], degree)
    )


def conjugacy_classes(elements: frozenset[Permutation]) -> list[frozenset[Permutation]]:
    """Partition by direct conjugation with every group element."""
    pool = set(elements)
    out = []
    while pool:
        x = min(pool)
        cls = frozenset(g.inverse() * x * g for g in elements)
        out.append(cls)
        pool -= cls
    return out


def centralizer_size(elements: frozenset[Permutation], x: Permutation) -> int:
    return sum(1 for g in elements if g * x == x * g)


def is_normal(elements: frozenset[Permutation], sub: frozenset[Permutation]) -> bool:
    return all(g.inverse() * n * g in sub for g in elements for n in sub)


@lru_cache(maxsize=None)
def all_subgroups_two_generated(
    elements: frozenset[Permutation], degree: int
) -> set[frozenset[Permutation]]:
    """Subgroups arising as closures of one or two elements.  Complete for
    every group of degree at most 5, since every subgroup of S_5 is
    2-generated.  Kept per group, as the radical and the normal subgroups
    of one group both filter this list.

    Closed on image tuples: <a, b> is the join of the cyclic subgroups <a>
    and <b>, so only pairs of distinct cyclic subgroups, neither inside the
    other, are closed, and each distinct subgroup is wrapped once, in the
    given permutations."""
    wrap = {tuple(p.images): p for p in elements}
    cyclic = {_tuple_closure([a], degree): a for a in sorted(wrap)}  # <a> -> a
    subs = set(cyclic)
    pairs = list(cyclic.items())
    for i, (A, a) in enumerate(pairs):
        for B, b in pairs[i + 1 :]:
            if a not in B and b not in A:
                subs.add(_tuple_closure([a, b], degree))
    return {frozenset(wrap[t] for t in H) for H in subs}


def pi_radical_set(
    elements: frozenset[Permutation], degree: int, pi: set[int]
) -> frozenset[Permutation]:
    """Largest normal subgroup whose order's prime support lies in pi,
    found by filtering the (2-generated) subgroup list."""
    best = frozenset([Permutation.identity(degree)])
    for sub in all_subgroups_two_generated(elements, degree):
        if (
            len(sub) > len(best)
            and set(factorint(len(sub))) <= pi
            and is_normal(elements, sub)
        ):
            best = sub
    return best


def normal_subgroup_sets(
    elements: frozenset[Permutation], degree: int
) -> list[frozenset[Permutation]]:
    subs = all_subgroups_two_generated(elements, degree)
    return sorted(
        (s for s in subs if is_normal(elements, s)), key=lambda s: (len(s), sorted(s))
    )


def normal_subgroup_sets_by_classes(
    elements: frozenset[Permutation], degree: int
) -> list[frozenset[Permutation]]:
    """Every normal subgroup, at any degree: the closures of the conjugacy
    classes, closed under the product AB of two normal subgroups, which is
    their join.  A normal subgroup is a union of classes, hence the join of
    the closures of the classes it contains, so nothing is missed."""
    subs = {closure(list(cls), degree) for cls in conjugacy_classes(elements)}
    while True:
        joins = {
            frozenset(a * b for a in A for b in B)
            for A, B in combinations(subs, 2)
            if not (A <= B or B <= A)
        }
        if joins <= subs:
            return sorted(subs, key=lambda s: (len(s), sorted(s)))
        subs |= joins


def min_generating_width(
    members: Sequence[Permutation], degree: int, order_predicate: Callable[[int], bool]
) -> int | None:
    """Least k such that some k of ``members``, repetition allowed and none
    pinned, generate a group whose order satisfies ``order_predicate``;
    None when all of them together fail.  For a predicate that is upward
    closed along subgroups (alpha, beta_r and non-pi all are), that failure
    shows the value is absent at every width."""
    members = list(members)
    if not order_predicate(len(closure(members, degree))):
        return None
    for k in count(1):
        for combo in combinations_with_replacement(members, k):
            if order_predicate(len(closure(list(combo), degree))):
                return k


def transposition_shape_histogram(r: int) -> Counter[tuple[int, ...]]:
    """For each shape (component sizes, largest first) of an edge graph,
    the number of (r-2)-subsets of the transpositions of Sym(r) whose edge
    graph has it, by listing every subset: 20,349 subsets at r = 7."""
    histogram: Counter[tuple[int, ...]] = Counter()
    for subset in combinations(combinations(range(r), 2), r - 2):
        root = list(range(r))

        def find(a: int) -> int:
            while root[a] != a:
                a = root[a]
            return a

        for a, b in subset:
            root[find(a)] = find(b)
        sizes = Counter(find(point) for point in range(r)).values()
        histogram[tuple(sorted(sizes, reverse=True))] += 1
    return histogram
