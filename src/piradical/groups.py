"""Permutation groups via a deterministic Schreier-Sims chain.

A group is stored as a base and strong generating set (BSGS) in the textbook
layout (Holt, *Handbook of Computational Group Theory*, ch. 4; Seress,
*Permutation Group Algorithms*): level ``i`` holds a base point ``b_i``, the
strong generators fixing ``b_0 .. b_{i-1}`` pointwise, and the orbit of
``b_i`` under those generators together with a transversal ``u_p`` mapping
``b_i`` to ``p``.  The construction is the deterministic algorithm: every
Schreier generator of every level is sifted through the deeper chain, and a
non-trivial residue is installed as a new strong generator (possibly on a
new base point), restarting verification at the deepest changed level.

Consequences used throughout the package:

* ``|G|`` is the product of the orbit lengths (kept factored, since each
  orbit length is at most the degree);
* membership testing is sifting;
* every element has a unique decomposition ``u^(k) u^(k-1) ... u^(1)`` into
  transversal representatives (deepest first under the package's
  left-to-right composition), which yields canonical element enumeration.

Elements are ``bytes`` throughout, one byte per point, as
:class:`Permutation` stores them: every product in the chain, the sifts and
the enumeration is one ``bytes.translate`` call against a table padded to
256 bytes (see :mod:`piradical.perms`).  Transversal inverses are kept at
the group's degree and padded where they are used, which keeps a chain's
memory at one byte per point.  A group keeps its generating set as ``gens``,
and ``extend`` takes ``bytes`` elements and rebuilds a chain from the
parent's level-0 generators plus the new ones, reusing the parent's base;
most Schreier generators then sift instantly, which is what the width-search
hot loop relies on.  :class:`Permutation` appears only at the public edge:
``from_generators`` takes permutations, and ``generators`` is a view that
wraps ``gens`` the first time it is read.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from .errors import DegreeMismatch, TooLarge
from .factored import FactoredInteger
from .perms import TAIL, Permutation, check_degree, conjugate_images, with_tables

Images = bytes


class _Level:
    """One stabilizer level of the chain.

    ``trans[p]`` is an element mapping the base point to ``p``;
    ``trans_inv[p]`` is its inverse (sifting multiplies by inverses only, so
    both directions are cached).
    """

    __slots__ = ("point", "gens", "orbit", "trans", "trans_inv")

    def __init__(self, point: int):
        self.point = point
        self.gens: list[Images] = []
        self.orbit: list[int] = []
        self.trans: dict[int, Images] = {}
        self.trans_inv: dict[int, Images] = {}

    def recompute(self, identity: Images) -> None:
        b = self.point
        n = len(identity)
        orbit = self.orbit = [b]
        trans = self.trans = {b: identity}
        trans_inv = self.trans_inv = {b: identity}
        tables = with_tables(self.gens)
        i = 0
        while i < len(orbit):
            p = orbit[i]
            u = trans[p]
            for s, table in tables:
                q = s[p]
                if q not in trans:
                    w = u.translate(table)  # apply u, then s
                    trans[q] = w
                    trans_inv[q] = bytes.maketrans(w, identity)[:n]
                    orbit.append(q)
            i += 1


def _strip(h: Images, levels: list[_Level], start: int, tail: bytes) -> tuple[Images, int]:
    """Sift ``h`` through levels ``start..``; return (residue, stop level).
    ``tail`` is ``TAIL[degree:]``, which pads an n-byte inverse to a table."""
    for j in range(start, len(levels)):
        lev = levels[j]
        beta = h[lev.point]
        if beta == lev.point:
            continue
        uinv = lev.trans_inv.get(beta)
        if uinv is None:
            return h, j
        h = h.translate(uinv + tail)
    return h, len(levels)


def _first_moved(g: Images) -> int:
    for i, gi in enumerate(g):
        if gi != i:
            return i
    raise AssertionError("identity passed where a moved point was required")


def _build_levels(
    degree: int, gen_images: Iterable[Images], seed_base: Iterable[int] = ()
) -> list[_Level]:
    """Deterministic Schreier-Sims.  ``seed_base`` pre-installs base points
    (0-based) so extensions of an existing chain stay aligned with it."""
    identity = TAIL[:degree]
    tail = TAIL[degree:]
    levels: list[_Level] = []
    base_points: set[int] = set()

    def append_level(pt: int) -> None:
        levels.append(_Level(pt))
        base_points.add(pt)

    for b in seed_base:
        if 0 <= b < degree and b not in base_points:
            append_level(b)

    clean: list[Images] = []
    seen: set[Images] = set()
    for g in gen_images:
        if g != identity and g not in seen:
            seen.add(g)
            clean.append(g)

    # distribute input generators: g joins every level whose prefix of base
    # points it fixes, gaining a new base point if it fixes all of them
    for g in clean:
        idx = 0
        while idx < len(levels) and g[levels[idx].point] == levels[idx].point:
            idx += 1
        if idx == len(levels):
            append_level(_first_moved(g))
        for l in range(idx + 1):
            levels[l].gens.append(g)

    if not clean:
        return [lev for lev in levels if lev.gens]  # trivial group

    dirty = set(range(len(levels)))
    i = len(levels) - 1
    while i >= 0:
        lev = levels[i]
        if i in dirty:
            lev.recompute(identity)
            dirty.discard(i)
        jump = -1
        bpt = lev.point
        tables = [x + tail for x in lev.gens]  # a new generator goes deeper only
        for beta in lev.orbit:
            u = lev.trans[beta]
            for table in tables:
                w = u.translate(table)  # u then x
                tgt = w[bpt]
                if tgt != bpt:
                    uinv = lev.trans_inv[tgt]  # orbit is closed under gens
                    sg = w.translate(uinv + tail)
                else:
                    sg = w
                if sg == identity:
                    continue
                h, j = _strip(sg, levels, i + 1, tail)
                if h == identity:
                    continue
                # h fixes base points 0..j-1 and cannot be sifted at level j
                if j == len(levels):
                    append_level(_first_moved(h))
                for l in range(i + 1, j + 1):
                    if h not in levels[l].gens:
                        levels[l].gens.append(h)
                        dirty.add(l)
                jump = j
                break
            if jump >= 0:
                break
        if jump >= 0:
            i = jump  # deepest changed level; descent re-verifies the rest
        else:
            i -= 1
    return levels


class PermGroup:
    """A finite permutation group of fixed degree with a BSGS chain.

    Build with :meth:`from_generators` (or :meth:`trivial`); instances are
    immutable.  ``gens`` holds, as ``bytes``, the generating set the chain
    was built from (for a group made by :meth:`extend` this is the parent's
    level-0 generators plus the new elements); ``generators`` is the same set
    as :class:`Permutation` objects.
    """

    def __init__(
        self,
        degree: int,
        gens: tuple[Images, ...],
        levels: list[_Level],
        generators: tuple[Permutation, ...] | None = None,
    ):
        self.degree = degree
        self.gens = gens
        self._levels = levels
        self._identity: Images = TAIL[:degree]
        if generators is not None:
            self._generators = generators

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_generators(
        cls,
        generators: Iterable[Permutation],
        degree: int | None = None,
    ) -> "PermGroup":
        generators = tuple(generators)
        if degree is None:
            if not generators:
                raise ValueError("degree is required for an empty generating set")
            degree = generators[0].degree
        check_degree(degree)
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatch(
                    f"generator degree {g.degree} != group degree {degree}"
                )
        gens = tuple(g.images for g in generators)
        return cls(degree, gens, _build_levels(degree, gens), generators)

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        return cls.from_generators((), degree)

    def extend(self, *new_gens: Images) -> "PermGroup":
        """Group generated by this group together with the ``bytes``
        elements ``new_gens``, rebuilt warm from this chain's level-0
        generators and base."""
        for t in new_gens:
            if len(t) != self.degree:
                raise DegreeMismatch(f"degree {len(t)} vs group degree {self.degree}")
            if not isinstance(t, bytes):
                raise TypeError(f"extend takes bytes elements, not {type(t).__name__}")
        gens = (tuple(self._levels[0].gens) if self._levels else ()) + new_gens
        levels = _build_levels(self.degree, gens, [lev.point for lev in self._levels])
        return PermGroup(self.degree, gens, levels)

    @property
    def generators(self) -> tuple[Permutation, ...]:
        """``gens`` as :class:`Permutation` objects (the ones given to
        :meth:`from_generators`, or wrapped on first read)."""
        try:
            return self._generators
        except AttributeError:
            self._generators = tuple(Permutation(t) for t in self.gens)
            return self._generators

    # -- chain data ----------------------------------------------------------

    @property
    def base(self) -> tuple[int, ...]:
        """Base points, 1-based."""
        return tuple(lev.point + 1 for lev in self._levels)

    @property
    def transversal_sizes(self) -> tuple[int, ...]:
        return tuple(len(lev.orbit) for lev in self._levels)

    @property
    def order_int(self) -> int:
        try:
            return self._order_int
        except AttributeError:
            self._order_int = math.prod(len(lev.orbit) for lev in self._levels)
            return self._order_int

    @property
    def order(self) -> FactoredInteger:
        try:
            return self._order
        except AttributeError:
            self._order = FactoredInteger.from_product(
                [len(lev.orbit) for lev in self._levels]
            )
            return self._order

    def is_trivial(self) -> bool:
        return self.order_int == 1

    # -- membership ----------------------------------------------------------

    def _sift_tuple(self, t: Images) -> Images:
        residue, _ = _strip(t, self._levels, 0, TAIL[self.degree:])
        return residue

    def _contains_tuple(self, t: Images) -> bool:
        """Membership of the ``bytes`` element ``t`` (the name predates the
        element type; the benchmark's tracer counts sifts under it)."""
        return self._sift_tuple(t) == self._identity

    def sift(self, p: Permutation) -> Permutation:
        """Residue of ``p`` after greedily dividing out transversal
        representatives; the identity exactly when ``p`` is a member."""
        if p.degree != self.degree:
            raise DegreeMismatch(f"degree {p.degree} vs group degree {self.degree}")
        return Permutation(self._sift_tuple(p.images))

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatch(f"degree {p.degree} vs group degree {self.degree}")
        return self._contains_tuple(p.images)

    def __contains__(self, p: Permutation) -> bool:
        return self.contains(p)

    # -- enumeration ----------------------------------------------------------

    def iter_element_tuples(self) -> Iterator[Images]:
        """All elements as ``bytes``, in the canonical transversal-product
        order (the identity comes first), drawn lazily: the point
        stabiliser's elements are listed, and each is composed with each
        top-level transversal element as the next element is asked for."""
        tail = TAIL[self.degree:]
        tables = [[lev.trans[p] + tail for p in lev.orbit] for lev in reversed(self._levels)]
        *deeper, top = tables or [[TAIL]]  # a trivial group has no level
        elems: list[Images] = [self._identity]
        for level in deeper:
            elems = [e.translate(t) for e in elems for t in level]
        return (e.translate(t) for e in elems for t in top)

    def element_tuples(self, cap: int = 10**6) -> list[Images]:
        """``list(iter_element_tuples())``; :class:`TooLarge` above ``cap``."""
        if self.order_int > cap:
            raise TooLarge(f"group order {self.order_int} exceeds cap {cap}")
        return list(self.iter_element_tuples())

    def elements(self, cap: int = 10**6) -> list[Permutation]:
        """All elements, in the order of :meth:`element_tuples`."""
        return [Permutation(t) for t in self.element_tuples(cap)]

    # -- structure helpers -----------------------------------------------------

    @property
    def orbit_partition(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of the group on 1..degree as sorted tuples, sorted by
        least element.  Cached; used as a cheap isomorphism-invariant key."""
        try:
            return self._orbit_partition
        except AttributeError:
            parent = list(range(self.degree))

            def find(a: int) -> int:
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                return a

            for g in self.gens:
                for i, gi in enumerate(g):
                    if gi != i:
                        ra, rb = find(i), find(gi)
                        if ra != rb:
                            parent[rb] = ra
            buckets: dict[int, list[int]] = {}
            for i in range(self.degree):
                buckets.setdefault(find(i), []).append(i + 1)
            self._orbit_partition = tuple(
                tuple(v) for v in sorted(buckets.values(), key=lambda b: b[0])
            )
            return self._orbit_partition

    def is_transitive(self) -> bool:
        return len(self.orbit_partition) == 1

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        if self.degree != other.degree:
            raise DegreeMismatch(f"degree {self.degree} vs {other.degree}")
        return all(other._contains_tuple(g) for g in self.gens)

    def same_group_as(self, other: "PermGroup") -> bool:
        return (
            self.degree == other.degree
            and self.order_int == other.order_int
            and self.is_subgroup_of(other)
        )

    def is_normal_in(self, other: "PermGroup") -> bool:
        """True when every ``other``-conjugate of every generator of this
        group lies back in this group (so normality, given containment)."""
        if not self.is_subgroup_of(other):
            return False
        return all(
            self._contains_tuple(conjugate_images(h, g))
            for h in self.gens
            for g in other.gens
        )

    # -- misc ------------------------------------------------------------------

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators[:4])
        more = ", ..." if len(self.generators) > 4 else ""
        return f"<PermGroup deg {self.degree} order {self.order_int} = <{gens}{more}>>"
