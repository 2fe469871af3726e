"""The benchmark's questions, made from the workload seed.

Every group is built here from its own generators: symmetric and alternating
groups from standard cycles, PSL(2,q), PGL(2,q) and PGammaL(2,9) from
Moebius maps on the projective line over GF(q).  The seed relabels the
points: for each question, its group and the element it asks about are
conjugated by a permutation of 1..n drawn from the seed and the question,
and handed to piradical as a spec file plus cycles.  Relabelling keeps
every answer's value and changes the representatives, base points and
search order the program meets.  Each question gets its own relabelling,
so a run's totals average over many of them rather than hang on the few
groups of one draw.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

import perm

def primes_upto(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, p))]


def prime_support(n: int) -> list[int]:
    """The primes dividing n, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


# ---------------------------------------------------------------------------
# groups


@dataclass(frozen=True)
class Group:
    name: str
    degree: int
    gens: tuple[perm.Perm, ...]
    order: int  # closed form; the checker confirms it by closure
    # direct products: the factors, in point order
    factors: tuple["Group", ...] = ()


def symmetric(n: int) -> Group:
    gens = (perm.from_cycles([(1, 2)], n), perm.from_cycles([tuple(range(1, n + 1))], n))
    return Group(f"S{n}", n, gens, math.factorial(n))


def alternating(n: int) -> Group:
    long = tuple(range(1, n + 1)) if n % 2 else tuple(range(2, n + 1))
    gens = (perm.from_cycles([(1, 2, 3)], n), perm.from_cycles([long], n))
    return Group(f"A{n}", n, gens, math.factorial(n) // 2)


class Field:
    """GF(q) for q = p^k, k <= 3; element c0 + c1 t + c2 t^2 is encoded as
    c0 + c1 p + c2 p^2."""

    # t^k = sum r_i t^i: t^2 = t + 1 over GF(2), t^3 = t + 1 over GF(2),
    # t^2 = -1 over GF(3)
    REDUCTION = {4: (1, 1), 8: (1, 1, 0), 9: (2, 0)}

    def __init__(self, q: int):
        (p,) = prime_support(q)
        k = round(math.log(q, p))
        self.q, self.p, self.k = q, p, k
        red = self.REDUCTION.get(q, ())

        def digits(a: int) -> list[int]:
            return [(a // p**i) % p for i in range(k)]

        def encode(cs) -> int:
            return sum((c % p) * p**i for i, c in enumerate(cs))

        def mul(a: int, b: int) -> int:
            if k == 1:
                return a * b % p
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(digits(a)):
                for j, y in enumerate(digits(b)):
                    prod[i + j] += x * y
            for d in range(2 * k - 2, k - 1, -1):
                c, prod[d] = prod[d], 0
                for i, r in enumerate(red):
                    prod[d - k + i] += c * r
            return encode(prod[:k])

        self.add = [[encode(x + y for x, y in zip(digits(a), digits(b))) for b in range(q)] for a in range(q)]
        self.mul = [[mul(a, b) for b in range(q)] for a in range(q)]
        self.neg = [self.add[a].index(0) for a in range(q)]
        self.inv = [None] + [self.mul[a].index(1) for a in range(1, q)]
        self.primitive = next(g for g in range(2, q) if self._order(g) == q - 1) if q > 2 else 1

    def _order(self, g: int) -> int:
        x, n = g, 1
        while x != 1:
            x, n = self.mul[x][g], n + 1
        return n


def _moebius(F: Field, f) -> perm.Perm:
    """The map z -> f(z) on GF(q) with infinity encoded as q."""
    return tuple(f(z) for z in range(F.q + 1))


def projective(kind: str, q: int) -> Group:
    """PSL(2,q) or PGL(2,q) on q+1 points: translations by an additive basis,
    a scaling by a generator of the torus, and z -> -1/z."""
    F = Field(q)
    inf = q
    gens = []
    for i in range(F.k):
        b = F.p**i
        gens.append(_moebius(F, lambda z: inf if z == inf else F.add[z][b]))
    lam = F.primitive
    mu = F.mul[lam][lam] if kind == "psl" and q % 2 else lam
    gens.append(_moebius(F, lambda z: inf if z == inf else F.mul[mu][z]))
    gens.append(
        _moebius(F, lambda z: 0 if z == inf else inf if z == 0 else F.neg[F.inv[z]])
    )
    full = q * (q * q - 1)
    order = full // math.gcd(2, q - 1) if kind == "psl" else full
    return Group(f"{kind}2({q})", q + 1, tuple(gens), order)


def pgammal9() -> Group:
    F = Field(9)
    frobenius = _moebius(F, lambda z: z if z == 9 else F.mul[F.mul[z][z]][z])
    pgl = projective("pgl", 9)
    return Group("pgammal2(9)", 10, pgl.gens + (frobenius,), 1440)


def outer_involution_9() -> perm.Perm:
    """z -> lambda/z with lambda a non-square of GF(9): an involution of
    PGL(2,9) outside PSL(2,9), so outside the Sym(6) copy of PGammaL(2,9)."""
    F = Field(9)
    lam = F.primitive
    return _moebius(F, lambda z: 0 if z == 9 else 9 if z == 0 else F.mul[lam][F.inv[z]])


def direct_product(*parts: Group) -> Group:
    degree = sum(g.degree for g in parts)
    gens = []
    shift = 0
    for g in parts:
        for x in g.gens:
            images = list(range(degree))
            images[shift : shift + g.degree] = [a + shift for a in x]
            gens.append(tuple(images))
        shift += g.degree
    order = math.prod(g.order for g in parts)
    name = "x".join(g.name for g in parts)
    return Group(name, degree, tuple(gens), order, parts)


def catalog() -> list[Group]:
    """The named groups of piradical's catalog of order 60 to 40,320."""
    groups = [symmetric(n) for n in range(5, 9)] + [alternating(n) for n in range(5, 9)]
    groups += [projective("psl", q) for q in (4, 5, 7, 8, 9, 11, 13)]
    groups += [projective("pgl", q) for q in (5, 7, 9, 11, 13)]
    return groups + [pgammal9()]


def products() -> list[Group]:
    """Direct products on disjoint points, so that some radicals are neither
    trivial nor the whole group."""
    s3, s4, a4, s5 = symmetric(3), symmetric(4), alternating(4), symmetric(5)
    return [direct_product(s3, s4), direct_product(s3, a4), direct_product(a4, s5), direct_product(s4, s5)]


def membership_groups() -> list[Group]:
    """The almost simple catalog groups of order 360 to 5,040."""
    by_name = {g.name: g for g in catalog()}
    names = ["A6", "psl2(9)", "psl2(8)", "S6", "pgl2(9)", "A7", "S7",
             "psl2(11)", "psl2(13)", "pgl2(11)", "pgl2(13)", "pgammal2(9)"]
    return [by_name[n] for n in names]


# ---------------------------------------------------------------------------
# relabelling and questions


def relabelling(seed: int, label: str, degree: int) -> perm.Perm:
    rng = random.Random(f"{seed}:{label}")
    images = list(range(degree))
    rng.shuffle(images)
    return tuple(images)


def relabel(g: Group, sigma: perm.Perm) -> Group:
    return Group(g.name, g.degree, tuple(perm.conjugate(x, sigma) for x in g.gens), g.order, g.factors)


@dataclass
class Question:
    argv: list[str]
    kind: str  # alpha, beta, radical, bs-check, verify-bs, transposition-sweep
    group: Group | None = None
    x: perm.Perm | None = None  # the element asked about (width questions)
    r: int | None = None
    pi: tuple[int, ...] = ()
    context: str = ""  # width questions on one (socle, x) share a context


def spec_text(g: Group, socle: bool) -> str:
    lines = [f"name {g.name}", f"degree {g.degree}"]
    lines += [f"gen g{i} {perm.to_text(x)}" for i, x in enumerate(g.gens)]
    if socle:
        lines.append("socle " + " ".join(f"g{i}" for i in range(len(g.gens))))
    return "\n".join(lines) + "\n"


def write_spec(workdir: Path, label: str, g: Group, socle: bool = False) -> str:
    """Write the spec file of the question ``label``; the hash keeps labels
    apart that differ only in punctuation, such as (1 2 3)(4 5 6) and
    (1 2)(3 4)(5 6)."""
    workdir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha1(label.encode()).hexdigest()[:8]
    path = workdir / (re.sub(r"[^A-Za-z0-9]+", "_", label).strip("_") + f"-{digest}.spec")
    path.write_text(spec_text(g, socle), encoding="utf-8")
    return str(path)


def prime_order_classes(n: int) -> list[perm.Perm]:
    """One element per class of prime-order elements of Sym(n): k disjoint
    p-cycles on the first k*p points."""
    out = []
    for p in primes_upto(n):
        for k in range(1, n // p + 1):
            out.append(perm.from_cycles([tuple(range(i * p + 1, i * p + p + 1)) for i in range(k)], n))
    return out


def width_questions(socle: Group, x: perm.Perm, rs, seed: int, workdir: Path) -> list[Question]:
    """alpha, and beta for each r in ``rs``, of x over the socle; each
    question relabelled on its own."""
    context = f"{socle.name} {perm.to_text(x)}"
    qs = []
    for r in [None, *rs]:
        kind = "alpha" if r is None else "beta"
        label = f"{kind} {context}" + (f" r={r}" if r else "")
        sigma = relabelling(seed, label, socle.degree)
        L, xs = relabel(socle, sigma), perm.conjugate(x, sigma)
        argv = [kind, "--spec", write_spec(workdir, label, L, socle=True), "--aut", perm.to_text(xs)]
        argv += ["--r", str(r)] if r else []
        qs.append(Question(argv + ["--format", "json"], kind, L, xs, r=r, context=context))
    return qs


def pi_sets(order: int, proper: bool) -> list[tuple[int, ...]]:
    """Every nonempty set of primes dividing ``order``; only proper ones
    when ``proper``."""
    ps = prime_support(order)
    top = len(ps) - 1 if proper else len(ps)
    return [c for k in range(1, top + 1) for c in itertools.combinations(ps, k)]


def group_question(kind: str, g: Group, seed: int, workdir: Path, pi=(), extra=()) -> Question:
    """A question about ``g``, relabelled for this question alone and handed
    over as a spec file."""
    label = f"{kind} {g.name} " + ",".join(map(str, pi))
    G = relabel(g, relabelling(seed, label, g.degree))
    argv = [kind, "--spec", write_spec(workdir, label, G)]
    if pi:
        argv += ["--pi", ",".join(map(str, pi))]
    return Question(argv + list(extra) + ["--format", "json"], kind, G, pi=tuple(pi))


def width_table(seed: int, workdir: Path) -> list[Question]:
    qs = []
    for n in range(5, 9):
        for x in prime_order_classes(n):
            qs += width_questions(alternating(n), x, [r for r in primes_upto(n) if r > 2], seed, workdir)
    a6 = Group("A6:pgammal", 10, projective("psl", 9).gens, 360)
    return qs + width_questions(a6, outer_involution_9(), [3, 5], seed, workdir)


def radical_catalog(seed: int, workdir: Path) -> list[Question]:
    return [group_question("radical", g, seed, workdir, pi)
            for g in catalog() + products() for pi in pi_sets(g.order, proper=False)]


def membership_bs(seed: int, workdir: Path) -> list[Question]:
    qs = []
    for g in membership_groups():
        qs += [group_question("bs-check", g, seed, workdir, pi, ["--m", "2", "--find-min"])
               for pi in pi_sets(g.order, proper=True)]
        qs.append(group_question("verify-bs", g, seed, workdir))
    sweep = ["transposition-sweep", "--r", "7", "--format", "json"]
    return qs + [Question(sweep, "transposition-sweep", r=7)]


# workload name -> the function that makes its questions from (seed, workdir)
WORKLOADS = {"width-table": width_table, "radical-catalog": radical_catalog, "membership-bs": membership_bs}
