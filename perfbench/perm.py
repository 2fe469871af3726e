"""Image-tuple permutations and subgroup closure, written apart from piradical.

The benchmark builds its inputs and checks every answer with this module, so
nothing here imports the package under test.  Points are 0-based inside a
tuple (``p[i]`` is the image of ``i``) and 1-based in cycle notation.
Products are left to right, as in piradical's reports: ``compose(p, q)``
applies ``p`` first, and ``conjugate(x, g)`` is ``g^-1 x g``.
"""

from __future__ import annotations

import math
import re

Perm = tuple[int, ...]

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def from_cycles(cycles, degree: int) -> Perm:
    images = list(range(degree))
    for cyc in cycles:
        for i, a in enumerate(cyc):
            images[a - 1] = cyc[(i + 1) % len(cyc)] - 1
    return tuple(images)


def parse(text: str, degree: int) -> Perm:
    """Read cycle notation such as ``(1 2 3)(4 5)``; ``()`` is the identity."""
    rest = _CYCLE_RE.sub("", text).strip()
    if rest:
        raise ValueError(f"text outside cycles in {text!r}")
    cycles = []
    for body in _CYCLE_RE.findall(text):
        points = [int(t) for t in body.replace(",", " ").split()]
        if any(not 1 <= a <= degree for a in points):
            raise ValueError(f"point outside 1..{degree} in {text!r}")
        cycles.append(points)
    seen = [a for c in cycles for a in c]
    if len(seen) != len(set(seen)):
        raise ValueError(f"repeated point in {text!r}")
    return from_cycles(cycles, degree)


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Nontrivial cycles, 1-based, each from its least point, in point order."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            continue
        cyc = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        out.append(tuple(a + 1 for a in cyc))
    return out


def to_text(p: Perm) -> str:
    cs = cycles(p)
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cs) if cs else "()"


def cycle_type(p: Perm) -> tuple[int, ...]:
    return tuple(sorted((len(c) for c in cycles(p)), reverse=True))


def order(p: Perm) -> int:
    return math.lcm(1, *(len(c) for c in cycles(p)))


def is_even(p: Perm) -> bool:
    return sum(len(c) - 1 for c in cycles(p)) % 2 == 0


def support_size(p: Perm) -> int:
    """How many points ``p`` moves."""
    return sum(1 for i, a in enumerate(p) if a != i)


def compose(p: Perm, q: Perm) -> Perm:
    """Apply ``p``, then ``q``."""
    return tuple(map(q.__getitem__, p))


def conjugate(x: Perm, g: Perm) -> Perm:
    """``g^-1 x g``: the point ``g(i)`` goes to ``g(x(i))``."""
    res = [0] * len(x)
    for i, a in enumerate(g):
        res[a] = g[x[i]]
    return tuple(res)


def conjugacy_class(x: Perm, gens) -> frozenset[Perm]:
    """The class of ``x`` in the group the generators generate: its orbit
    under conjugation by them."""
    seen = {x}
    todo = [x]
    while todo:
        y = todo.pop()
        for g in gens:
            z = conjugate(y, g)
            if z not in seen:
                seen.add(z)
                todo.append(z)
    return frozenset(seen)


def closure(gens, degree: int) -> frozenset[Perm]:
    """Every element of the group the generators generate.

    Dimino's algorithm: adjoin one generator at a time and add the new group
    as whole right cosets of the previous one, so each element is made once
    instead of once per generator as in a plain breadth-first search.
    """
    e = identity(degree)
    gens = [g for g in dict.fromkeys(gens) if g != e]
    elements = [e]
    seen = {e}
    used: list[Perm] = []
    for s in gens:
        if s in seen:
            continue
        used.append(s)
        previous = list(elements)
        reps = [e]

        def add_coset(r: Perm) -> None:
            new = [tuple(map(r.__getitem__, h)) for h in previous]
            elements.extend(new)
            seen.update(new)
            reps.append(r)

        add_coset(s)
        k = 1
        while k < len(reps):
            r = reps[k]
            for t in used:
                y = compose(r, t)
                if y not in seen:
                    add_coset(y)
            k += 1
    return frozenset(seen)
