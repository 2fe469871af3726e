"""Permutations of {1, ..., n} with GAP-style left-to-right composition.

Internally a permutation is a ``bytes`` object on 0-based points, one byte
per point: ``images[i]`` is where point ``i`` goes, so the degree is at most
:data:`MAX_DEGREE` = 256.  Externally (parsing, printing, the CLI) points
are 1-based and permutations are written in disjoint cycle notation, the
identity as ``()``.

Composition is left-to-right: ``(p * q)(i) == q(p(i))`` — apply ``p`` first.
Under this convention ``parse("(1 2)") * parse("(1 3)") == parse("(1 2 3)")``
and conjugation ``x ** g == g**-1 * x * g`` satisfies
``(x ** g) ** h == x ** (g * h)``, i.e. conjugation is a right action.

Because a permutation is a byte string, composing is one
``bytes.translate`` call: "apply p, then q" is ``p.translate(q + TAIL[n:])``,
``q`` padded to the 256-byte table ``translate`` wants by the identity on
the points beyond the degree.  ``bytes.maketrans(p, identity)`` is the
padded table of the inverse.  A conjugate g^-1 x g is "apply g^-1, then x,
then g": ``ginv.translate(x + TAIL[n:]).translate(table)``, ``table`` g
padded.  Hot loops pad a table, an inverse or x once and reuse it
(:func:`with_tables`, :func:`conjugators`).
"""

from __future__ import annotations

import math
import re
from typing import Iterable

from .errors import (
    DegreeMismatch,
    DegreeTooLarge,
    MalformedCycle,
    PointOutOfRange,
    RepeatedPoint,
)

MAX_DEGREE = 256
# the identity on every point a byte can name: TAIL[:n] is the identity of
# degree n, and TAIL[n:] pads an image string of degree n to a table
TAIL = bytes(range(MAX_DEGREE))


def check_degree(degree: int) -> None:
    """Raise :class:`DegreeTooLarge` above :data:`MAX_DEGREE` points."""
    if degree > MAX_DEGREE:
        raise DegreeTooLarge(
            f"degree {degree} exceeds the limit of {MAX_DEGREE} points"
        )


# -- raw image helpers (hot paths in the chain code use these) ---------------


def compose_images(p: bytes, q: bytes) -> bytes:
    """Images of "apply p, then q"."""
    return p.translate(q + TAIL[len(q):])


def inverse_images(p: bytes) -> bytes:
    return bytes.maketrans(p, TAIL[: len(p)])[: len(p)]


def conjugate_images(x: bytes, g: bytes) -> bytes:
    """Images of g^-1 * x * g (without materializing g^-1)."""
    return bytes.maketrans(g, x.translate(g + TAIL[len(g):]))[: len(g)]


def with_tables(elements: Iterable[bytes]) -> list[tuple[bytes, bytes]]:
    """Each element with its padded ``translate`` table, built once for a
    loop that composes with the element many times."""
    return [(e, e + TAIL[len(e):]) for e in elements]


def conjugators(elements: Iterable[bytes]) -> list[tuple[bytes, bytes]]:
    """Each element g as ``(g^-1, g padded)``, built once for a loop that
    conjugates by g many times: g^-1 m g is
    ``inv.translate(m + TAIL[n:]).translate(table)``, m padded once."""
    return [(inverse_images(g), g + TAIL[len(g):]) for g in elements]


_TOKEN_RE = re.compile(r"\(([^()]*)\)")
_LABELS = tuple(str(p) for p in range(1, MAX_DEGREE + 1))  # 0-based point -> its 1-based label


class Permutation:
    """An immutable permutation of ``{1, ..., degree}`` (stored 0-based)."""

    __slots__ = ("images", "_hash")

    images: bytes

    def __init__(self, images: Iterable[int]):
        if not isinstance(images, bytes):
            images = tuple(images)
            check_degree(len(images))
            try:
                images = bytes(images)
            except (TypeError, ValueError):
                bad = next(i for i in images if not (isinstance(i, int) and 0 <= i < 256))
                raise PointOutOfRange(f"image {bad} outside 0..{len(images) - 1}")
        n = len(images)
        check_degree(n)
        if len(set(images)) != n or (n and max(images) >= n):
            seen = set()
            for i in images:
                if i >= n:
                    raise PointOutOfRange(f"image {i} outside 0..{n - 1}")
                if i in seen:
                    raise RepeatedPoint(f"image {i} repeated; not a bijection")
                seen.add(i)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_hash", hash(images))

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Permutation is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @classmethod
    def from_cycles(
        cls, cycles: list[tuple[int, ...]], degree: int | None = None
    ) -> "Permutation":
        """Build from disjoint cycles of 1-based points.

        ``degree`` defaults to the largest point mentioned.  Cycles must be
        genuinely disjoint; a point seen twice raises :class:`RepeatedPoint`.
        """
        maxpt = max((p for c in cycles for p in c), default=0)
        if degree is None:
            degree = maxpt
        check_degree(degree)
        for c in cycles:
            for p in c:
                if not isinstance(p, int) or p < 1:
                    raise PointOutOfRange(f"point {p} is not a positive integer")
                if p > degree:
                    raise PointOutOfRange(f"point {p} exceeds degree {degree}")
        images = list(range(degree))
        seen: set[int] = set()
        for c in cycles:
            for p in c:
                if p in seen:
                    raise RepeatedPoint(f"point {p} appears twice")
                seen.add(p)
            for i, p in enumerate(c):
                images[p - 1] = c[(i + 1) % len(c)] - 1
        return cls(tuple(images))

    @classmethod
    def parse(cls, text: str, degree: int | None = None) -> "Permutation":
        """Parse disjoint cycle notation, e.g. ``"(1 2 3)(4 5)"`` or
        ``"(1,2,3)"``; ``"()"`` is the identity.

        Raises :class:`MalformedCycle` on grammar errors,
        :class:`PointOutOfRange` / :class:`RepeatedPoint` on bad points.
        """
        s = text.strip()
        if not s:
            raise MalformedCycle("empty permutation string")
        stripped = _TOKEN_RE.sub("", s)
        if stripped.strip():
            raise MalformedCycle(
                f"unexpected text {stripped.strip()!r} outside cycles in {text!r}"
            )
        cycles: list[tuple[int, ...]] = []
        for m in _TOKEN_RE.finditer(s):
            body = m.group(1).strip()
            if not body:
                continue  # "()" : identity contribution
            parts = [t for t in re.split(r"[\s,]+", body) if t]
            try:
                pts = tuple(int(t) for t in parts)
            except ValueError:
                raise MalformedCycle(f"non-integer token in cycle {m.group(0)!r}")
            cycles.append(pts)
        return cls.from_cycles(cycles, degree=degree)

    # -- basic protocol ------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.images)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return (self.degree, self.images) < (other.degree, other.images)

    def apply(self, point: int) -> int:
        """Image of a 1-based point."""
        if not 1 <= point <= self.degree:
            raise PointOutOfRange(f"point {point} outside 1..{self.degree}")
        return self.images[point - 1] + 1

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise DegreeMismatch(
                f"degree {self.degree} vs {other.degree}"
            )
        return Permutation(compose_images(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation(inverse_images(self.images))

    def __pow__(self, n) -> "Permutation":
        """Integer power, or conjugation when the exponent is a Permutation:
        ``x ** g == g.inverse() * x * g``."""
        if isinstance(n, Permutation):
            return self.conjugate(n)
        result = TAIL[: self.degree]
        base = self.images if n >= 0 else inverse_images(self.images)
        k = abs(n)
        while k:
            if k & 1:
                result = compose_images(result, base)
            base = compose_images(base, base)
            k >>= 1
        return Permutation(result)

    def conjugate(self, g: "Permutation") -> "Permutation":
        if self.degree != g.degree:
            raise DegreeMismatch(f"degree {self.degree} vs {g.degree}")
        return Permutation(conjugate_images(self.images, g.images))

    # -- structure -----------------------------------------------------------

    def is_identity(self) -> bool:
        return self.images == TAIL[: self.degree]

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles as 1-based tuples, each starting at its least
        point, sorted by that point."""
        seen = [False] * self.degree
        out: list[tuple[int, ...]] = []
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            p = self.images[start]
            while p != start:
                cyc.append(p)
                seen[p] = True
                p = self.images[p]
            out.append(tuple(q + 1 for q in cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        """Lengths of nontrivial cycles, sorted descending."""
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def order(self) -> int:
        return math.lcm(*map(len, self.cycles()))

    def moved_points(self) -> tuple[int, ...]:
        """1-based points not fixed by this permutation."""
        return tuple(
            i + 1 for i, im in enumerate(self.images) if im != i
        )

    def is_transposition(self) -> bool:
        return self.cycle_type() == (2,)

    def extended(self, degree: int) -> "Permutation":
        """The same permutation acting on a larger point set."""
        if degree < self.degree:
            raise DegreeMismatch(
                f"cannot shrink degree {self.degree} to {degree}"
            )
        return Permutation([*self.images, *range(self.degree, degree)])

    # -- formatting -----------------------------------------------------------

    def __str__(self) -> str:
        """The cycles of :meth:`cycles` in one pass over ``images``."""
        images = self.images
        seen = bytearray(len(images))  # points of a cycle already written
        parts = []
        for start, p in enumerate(images):
            if p == start or seen[start]:
                continue
            cycle = [_LABELS[start]]
            while p != start:
                seen[p] = 1
                cycle.append(_LABELS[p])
                p = images[p]
            parts.append("(" + " ".join(cycle) + ")")
        return "".join(parts) or "()"

    def __repr__(self) -> str:
        return f"Permutation.parse({str(self)!r}, degree={self.degree})"
