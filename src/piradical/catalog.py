"""Named groups, projective constructions over small fields, and spec files.

Projective groups act on the projective line over GF(q): points are the
field elements (encoded 0..q-1) plus the point at infinity (encoded q), so
the degree is q+1.  Generators follow the Bruhat decomposition, which
guarantees they generate the full group: all translations z -> z + b (via an
additive basis), the scaling z -> mu*z with mu generating the relevant torus
(a primitive element for PGL, its square for PSL in odd characteristic), and
the Weyl reflection z -> -1/z.  Every constructor asserts the classical
order formula q(q^2-1)/gcd(2, q-1) (PSL) or q(q^2-1) (PGL) and raises
:class:`InvariantViolation` on mismatch, so a silently wrong generator set
cannot escape.

``projective_semilinear_9`` builds PGammaL(2,9) of order 1440 on 10 points
and certifies its three index-2 overgroups of the socle PSL(2,9) (order 360)
by element-order spectra: exactly one contains order-6 elements (the S_6
copy), exactly one contains order-10 elements (the PGL(2,9) copy), and the
third (M_10) contains neither — and has no involutions at all outside the
socle.  Consequently every involution of PGammaL(2,9) outside both the socle
and the S_6 copy lies in the PGL coset; the least one is exposed as
``involution_outside_s6``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterable

from .errors import (
    InvariantViolation,
    NotNormalizing,
    ParseError,
    UnsupportedQ,
)
from .factored import FactoredInteger, is_prime
from .groups import PermGroup
from .perms import TAIL, Permutation, check_degree
from .structure import PrimeSet, element_order_spectrum

# ---------------------------------------------------------------------------
# standard families


def symmetric_group(n: int) -> PermGroup:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n == 1:
        return PermGroup.trivial(1)
    gens = [Permutation.parse("(1 2)", degree=n)]
    if n > 2:
        gens.append(Permutation.from_cycles([tuple(range(1, n + 1))], degree=n))
    return PermGroup.from_generators(gens, n)


def alternating_group(n: int) -> PermGroup:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n <= 2:
        return PermGroup.trivial(n)
    gens = [Permutation.parse("(1 2 3)", degree=n)]
    if n > 3:
        cyc = tuple(range(1, n + 1)) if n % 2 == 1 else tuple(range(2, n + 1))
        gens.append(Permutation.from_cycles([cyc], degree=n))
    return PermGroup.from_generators(gens, n)


def cyclic_group(n: int) -> PermGroup:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n == 1:
        return PermGroup.trivial(1)
    return PermGroup.from_generators(
        [Permutation.from_cycles([tuple(range(1, n + 1))], degree=n)]
    )


def dihedral_group(n: int) -> PermGroup:
    """Symmetries of the regular n-gon (order 2n), n >= 3."""
    if n < 3:
        raise ValueError(f"need n >= 3 for a polygon, got {n}")
    rot = Permutation.from_cycles([tuple(range(1, n + 1))], degree=n)
    refl = Permutation(tuple(0 if i == 0 else n - i for i in range(n)))
    return PermGroup.from_generators([rot, refl])


def prime_order_class_representatives(n: int) -> list[tuple[Permutation, int, int]]:
    """One representative per conjugacy class of prime-order elements of
    Sym(n), as (representative, prime, number of cycles).  Classes of Sym(n)
    are cycle types, so the reps are k disjoint p-cycles packed on the first
    k*p points, for every prime p <= n and 1 <= k <= n // p.

    A class that splits in Alt(n) contributes one representative: the two
    halves are swapped by an odd permutation, which carries tuples of
    conjugates of one onto tuples of conjugates of the other preserving
    orders, so all width statistics agree between the halves.
    """
    out: list[tuple[Permutation, int, int]] = []
    for p in range(2, n + 1):
        if not is_prime(p):
            continue
        for k in range(1, n // p + 1):
            cycles = [
                tuple(range(i * p + 1, i * p + p + 1)) for i in range(k)
            ]
            out.append((Permutation.from_cycles(cycles, degree=n), p, k))
    return out


# ---------------------------------------------------------------------------
# small finite fields

SUPPORTED_Q = (4, 5, 7, 8, 9, 11, 13)


class FieldTable:
    """Arithmetic tables for GF(q), q = p^k with k <= 3.

    Elements are encoded as integers 0..q-1: the encoding of a polynomial
    c_0 + c_1 t + ... is sum c_i p^i.  Construction finds an irreducible
    monic polynomial by brute force (degree <= 3, so root-freeness suffices),
    then certifies itself: associativity/distributivity spot checks, a
    primitive element (so the multiplicative group is cyclic of order q-1),
    and the Frobenius x -> x^p having order exactly k.
    """

    def __init__(self, q: int):
        fact = FactoredInteger.from_int(q).factors
        if len(fact) != 1:
            raise ValueError(f"{q} is not a prime power")
        p, k = fact[0]
        if k > 3:
            raise ValueError(f"only degrees up to 3 are supported, got {q} = {p}^{k}")
        self.q, self.p, self.k = q, p, k

        def decode(e: int) -> tuple[int, ...]:
            cs = []
            for _ in range(k):
                cs.append(e % p)
                e //= p
            return tuple(cs)

        def encode(cs: Iterable[int]) -> int:
            e = 0
            for c in reversed(list(cs)):
                e = e * p + (c % p)
            return e

        if k == 1:
            add = [[(a + b) % p for b in range(p)] for a in range(p)]
            mul = [[(a * b) % p for b in range(p)] for a in range(p)]
        else:
            red = self._find_reduction(p, k)
            elems = [decode(e) for e in range(q)]

            def poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
                prod = [0] * (2 * k - 1)
                for i, ai in enumerate(a):
                    if ai:
                        for j, bj in enumerate(b):
                            prod[i + j] += ai * bj
                for deg in range(2 * k - 2, k - 1, -1):
                    c = prod[deg] % p
                    prod[deg] = 0
                    if c:
                        for i, ri in enumerate(red):
                            prod[deg - k + i] += c * ri
                return tuple(c % p for c in prod[:k])

            add = [
                [encode((x + y) % p for x, y in zip(ea, eb)) for eb in elems]
                for ea in elems
            ]
            mul = [[encode(poly_mul(ea, eb)) for eb in elems] for ea in elems]
        self.add = tuple(tuple(row) for row in add)
        self.mul = tuple(tuple(row) for row in mul)
        self.neg = tuple(next(b for b in range(q) if self.add[a][b] == 0) for a in range(q))
        inv = [0] * q
        for a in range(1, q):
            inv[a] = next(b for b in range(1, q) if self.mul[a][b] == 1)
        self.inv = tuple(inv)
        self.frobenius = tuple(self._pow(a, p) for a in range(q))
        self.primitive = self._find_primitive()
        self._self_check()

    @staticmethod
    def _find_reduction(p: int, k: int) -> tuple[int, ...]:
        """Coefficients r with t^k = r_0 + r_1 t + ... defining GF(p^k):
        the polynomial t^k - r(t) must have no roots (enough for k <= 3)."""
        from itertools import product as iproduct

        for red in iproduct(range(p), repeat=k):
            ok = True
            for x in range(p):
                val = (pow(x, k, p) - sum(r * pow(x, i, p) for i, r in enumerate(red))) % p
                if val == 0:
                    ok = False
                    break
            if ok:
                return tuple(red)
        raise InvariantViolation(f"no irreducible polynomial found for GF({p}^{k})")

    def _pow(self, a: int, e: int) -> int:
        r = 1
        for _ in range(e):
            r = self.mul[r][a]
        return r

    def _find_primitive(self) -> int:
        target = self.q - 1
        for g in range(1, self.q):
            x, order = g, 1
            while x != 1:
                x = self.mul[x][g]
                order += 1
            if order == target:
                return g
        raise InvariantViolation(
            f"multiplicative group of GF({self.q}) has no generator; tables are wrong"
        )

    def _self_check(self) -> None:
        q = self.q
        triples = [(a % q, (a * 3 + 1) % q, (a * 7 + 2) % q) for a in range(min(q * 2, 40))]
        for a, b, c in triples:
            if self.add[self.add[a][b]][c] != self.add[a][self.add[b][c]]:
                raise InvariantViolation("addition is not associative")
            if self.mul[self.mul[a][b]][c] != self.mul[a][self.mul[b][c]]:
                raise InvariantViolation("multiplication is not associative")
            if self.mul[a][self.add[b][c]] != self.add[self.mul[a][b]][self.mul[a][c]]:
                raise InvariantViolation("distributivity fails")
        frob = self.frobenius
        cur = list(range(q))
        for step in range(1, self.k + 1):
            cur = [frob[x] for x in cur]
            is_id = cur == list(range(q))
            if step < self.k and is_id:
                raise InvariantViolation("Frobenius order is too small")
            if step == self.k and not is_id:
                raise InvariantViolation("Frobenius order is too large")


@lru_cache(maxsize=None)
def field_table(q: int) -> FieldTable:
    return FieldTable(q)


# ---------------------------------------------------------------------------
# projective groups


def _projective_generators(F: FieldTable, kind: str) -> list[Permutation]:
    q = F.q
    inf = q  # the point at infinity, 0-based encoding

    def as_perm(images: list[int]) -> Permutation:
        return Permutation(tuple(images))

    gens: list[Permutation] = []
    for i in range(F.k):  # translations by an additive basis: 1, t, t^2, ...
        b = F.p**i
        images = [F.add[z][b] for z in range(q)] + [inf]
        gens.append(as_perm(images))
    lam = F.primitive
    mu = F.mul[lam][lam] if (q % 2 == 1 and kind == "psl") else lam
    if mu != 1:
        images = [F.mul[mu][z] for z in range(q)] + [inf]
        gens.append(as_perm(images))
    # z -> -1/z; 0 and infinity swap
    images = [0] * (q + 1)
    images[0] = inf
    images[inf] = 0
    for z in range(1, q):
        images[z] = F.mul[F.neg[1]][F.inv[z]]
    gens.append(as_perm(images))
    return gens


def _projective(q: int, kind: str) -> PermGroup:
    """PSL(2, q) (``kind`` "psl") or PGL(2, q) ("pgl") on the projective line,
    certified by its order q(q^2-1), divided by gcd(2, q-1) for PSL."""
    if q not in SUPPORTED_Q:
        raise UnsupportedQ(f"q={q} not in supported set {SUPPORTED_Q}")
    G = PermGroup.from_generators(_projective_generators(field_table(q), kind), q + 1)
    expected = q * (q * q - 1) // (math.gcd(2, q - 1) if kind == "psl" else 1)
    if G.order_int != expected:
        raise InvariantViolation(
            f"|{kind.upper()}(2,{q})| = {G.order_int}, expected {expected}"
        )
    return G


@lru_cache(maxsize=None)
def psl2(q: int) -> PermGroup:
    """PSL(2, q) acting on the q+1 points of the projective line."""
    return _projective(q, "psl")


@lru_cache(maxsize=None)
def pgl2(q: int) -> PermGroup:
    """PGL(2, q) on the projective line (equal to PSL(2,q) in characteristic 2)."""
    return _projective(q, "pgl")


@dataclass
class ProjectiveSemilinear9:
    """PGammaL(2,9) with its certified coset structure (see module docstring)."""

    group: PermGroup
    socle: PermGroup
    pgl: PermGroup
    psigmal: PermGroup
    m10: PermGroup
    field_involution: Permutation
    involution_outside_s6: Permutation


@lru_cache(maxsize=None)
def projective_semilinear_9() -> ProjectiveSemilinear9:
    q = 9
    F = field_table(q)
    socle = psl2(q)
    pgl = pgl2(q)
    sigma = Permutation(F.frobenius + (q,))  # z -> z^3, infinity fixed
    if sigma.order() != 2:
        raise InvariantViolation("the field automorphism of GF(9) must be an involution")
    group = pgl.extend(sigma.images)
    psigmal = socle.extend(sigma.images)
    if (group.order_int, socle.order_int, pgl.order_int, psigmal.order_int) != (
        1440,
        360,
        720,
        720,
    ):
        raise InvariantViolation("PGammaL(2,9) tower orders are wrong")
    if not socle.is_normal_in(group):
        raise InvariantViolation("PSL(2,9) is not normal in PGammaL(2,9)")
    identity, tail = TAIL[: q + 1], TAIL[q + 1 :]

    def involution_outside_socle(e: bytes) -> bool:
        return e != identity and e.translate(e + tail) == identity and not socle._contains_tuple(e)

    # least involution in the PGL coset
    diag = Permutation(min(filter(involution_outside_socle, pgl.element_tuples())))
    m = diag * sigma
    if pgl.contains(m) or psigmal.contains(m):
        raise InvariantViolation("coset representative for M_10 landed in a known coset")
    m10 = socle.extend(m.images)
    if m10.order_int != 720:
        raise InvariantViolation("M_10 must have order 720")
    overgroups = {"pgl": pgl, "psigmal": psigmal, "m10": m10}
    for a in overgroups:
        for b in overgroups:
            if a < b and overgroups[a].same_group_as(overgroups[b]):
                raise InvariantViolation(f"overgroups {a} and {b} coincide")
    # element-order spectra separate the three overgroups
    spectra = {name: element_order_spectrum(H) for name, H in overgroups.items()}
    has6 = [name for name, s in spectra.items() if 6 in s]
    has10 = [name for name, s in spectra.items() if 10 in s]
    if has6 != ["psigmal"] or has10 != ["pgl"]:
        raise InvariantViolation(
            f"order spectra do not identify the overgroups: 6 in {has6}, 10 in {has10}"
        )
    # the non-socle coset of M_10 carries no involutions
    if any(map(involution_outside_socle, m10.element_tuples())):
        raise InvariantViolation("M_10 has an involution outside the socle")
    return ProjectiveSemilinear9(
        group=group,
        socle=socle,
        pgl=pgl,
        psigmal=psigmal,
        m10=m10,
        field_involution=sigma,
        involution_outside_s6=diag,
    )


# ---------------------------------------------------------------------------
# the catalog


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    group: PermGroup
    closed_form_order: int


def catalog_groups(max_order: int | None = None) -> list[CatalogEntry]:
    """The named groups this package sweeps in its verification experiments,
    optionally filtered by closed-form order."""
    entries: list[CatalogEntry] = []

    def add(name: str, group: PermGroup, closed: int) -> None:
        if max_order is None or closed <= max_order:
            entries.append(CatalogEntry(name, group, closed))

    for n in range(1, 17):
        add(f"C{n}", cyclic_group(n), n)
    for n in range(3, 13):
        add(f"D{n}", dihedral_group(n), 2 * n)
    for n in range(2, 10):
        add(f"S{n}", symmetric_group(n), math.factorial(n))
    for n in range(3, 10):
        add(f"A{n}", alternating_group(n), math.factorial(n) // 2)
    for q in SUPPORTED_Q:
        add(f"psl2({q})", psl2(q), q * (q * q - 1) // math.gcd(2, q - 1))
    for q in (5, 7, 9, 11, 13):  # even q would duplicate psl2
        add(f"pgl2({q})", pgl2(q), q * (q * q - 1))
    add("pgammal2(9)", projective_semilinear_9().group, 1440)
    return entries


_NAME_RE = re.compile(r"^([SACD])(\d+)$", re.IGNORECASE)
_PROJ_RE = re.compile(r"^(psl2|pgl2|pgammal2)\((\d+)\)$", re.IGNORECASE)


def group_by_name(text: str) -> PermGroup:
    """Resolve names like S5, A6, C12, D8, psl2(7), pgl2(9), pgammal2(9)."""
    s = text.strip()
    m = _NAME_RE.match(s)
    if m:
        family, n = m.group(1).upper(), int(m.group(2))
        return {
            "S": symmetric_group,
            "A": alternating_group,
            "C": cyclic_group,
            "D": dihedral_group,
        }[family](n)
    m = _PROJ_RE.match(s)
    if m:
        kind, q = m.group(1).lower(), int(m.group(2))
        if kind == "psl2":
            return psl2(q)
        if kind == "pgl2":
            return pgl2(q)
        if q != 9:
            raise UnsupportedQ("the semilinear construction is provided for q=9 only")
        return projective_semilinear_9().group
    raise ValueError(f"unknown group name {text!r}")


def socle_by_name(text: str) -> PermGroup:
    """Like :func:`group_by_name`, with the alias ``A6:pgammal`` for the
    degree-10 copy of Alt(6) = PSL(2,9) whose outer elements live in
    PGammaL(2,9)."""
    if text.strip().lower() == "a6:pgammal":
        return projective_semilinear_9().socle
    return group_by_name(text)


def automorphism_by_name(text: str, degree: int) -> Permutation:
    """Resolve ``--aut`` values: explicit cycle notation, or the keywords
    ``outer-involution`` (the PGammaL(2,9) involution outside the S_6 copy)
    and ``field-involution`` (the Frobenius of GF(9))."""
    s = text.strip().lower()
    if s == "outer-involution":
        aut = projective_semilinear_9().involution_outside_s6
    elif s == "field-involution":
        aut = projective_semilinear_9().field_involution
    else:
        return Permutation.parse(text, degree=degree)
    if aut.degree != degree:
        raise ValueError(
            f"{text} acts on {aut.degree} points but the socle has degree {degree}"
        )
    return aut


# ---------------------------------------------------------------------------
# group-spec files


@dataclass
class GroupSpec:
    """A group description file: named generators plus optional socle/aut/pi
    declarations.

    Line-oriented UTF-8, ``#`` starts a comment::

        name  my-group
        degree 5
        gen a (1 2)
        gen b (1 2 3 4 5)
        socle a b
        aut a
        pi 2,3
    """

    name: str
    degree: int
    generators: dict[str, Permutation]
    socle_names: tuple[str, ...] | None = None
    aut_name: str | None = None
    pi: PrimeSet | None = None
    # the groups, built by the first call (``load_spec`` validates them)
    _group: PermGroup | None = field(default=None, init=False, repr=False, compare=False)
    _socle: PermGroup | None = field(default=None, init=False, repr=False, compare=False)

    def group(self) -> PermGroup:
        if self._group is None:
            self._group = PermGroup.from_generators(
                list(self.generators.values()), self.degree
            )
        return self._group

    def socle(self) -> PermGroup | None:
        """The declared socle; when the ``socle`` line names every generator
        in ``gen`` order, it is ``group()`` itself, the same chain."""
        if self.socle_names is not None and self._socle is None:
            if self.socle_names == tuple(self.generators):
                self._socle = self.group()
            else:
                self._socle = PermGroup.from_generators(
                    [self.generators[n] for n in self.socle_names], self.degree
                )
        return self._socle

    def aut(self) -> Permutation | None:
        return self.generators[self.aut_name] if self.aut_name else None


def load_spec(path: str | Path) -> GroupSpec:
    text = Path(path).read_text(encoding="utf-8")
    name: str | None = None
    degree: int | None = None
    gens: dict[str, Permutation] = {}
    socle_names: tuple[str, ...] | None = None
    aut_name: str | None = None
    pi: PrimeSet | None = None
    pending_gens: list[tuple[str, str, int, int]] = []  # parse after degree is known
    # (directive, identifier, line, column) of each socle and aut name,
    # checked once every generator is known
    named: list[tuple[str, str, int, int]] = []
    seen: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        parts = line.split(None, 1)
        key = parts[0]
        rest = parts[1].strip() if len(parts) > 1 else ""
        if key != "gen" and key in seen:
            raise ParseError(f"repeated {key!r} line", lineno, 1)
        seen.add(key)
        # each word after the directive, with its column
        words = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)][1:]
        col = words[0][1] if words else 1  # where the value starts
        if key == "name":
            if not rest:
                raise ParseError("name requires a value", lineno, col)
            name = rest
        elif key == "degree":
            try:
                degree = int(rest)
            except ValueError:
                raise ParseError(f"degree must be an integer, got {rest!r}", lineno, col)
            if degree < 1:
                raise ParseError(f"degree must be positive, got {degree}", lineno, col)
            check_degree(degree)
        elif key == "gen":
            sub = rest.split(None, 1)
            if len(sub) != 2:
                raise ParseError("gen requires an identifier and cycles", lineno, col)
            ident, cyc = sub[0], sub[1].strip()
            if ident in gens or any(p[0] == ident for p in pending_gens):
                raise ParseError(f"generator {ident!r} defined twice", lineno, col)
            pending_gens.append((ident, cyc, lineno, line.find(cyc) + 1))
        elif key == "socle":
            if not words:
                raise ParseError("socle requires at least one identifier", lineno, col)
            socle_names = tuple(ident for ident, _ in words)
            named += [("socle", ident, lineno, c) for ident, c in words]
        elif key == "aut":
            if len(words) != 1:
                raise ParseError("aut requires exactly one identifier", lineno, col)
            aut_name = rest
            named += [("aut", ident, lineno, c) for ident, c in words]
        elif key == "pi":
            try:
                pi = PrimeSet.parse(rest)
            except ValueError as e:
                raise ParseError(str(e), lineno, col)
        else:
            raise ParseError(f"unknown directive {key!r}", lineno, 1)

    if degree is None:
        raise ParseError("missing required 'degree' line", max(1, text.count("\n") + 1), 1)
    for ident, cyc, lineno, col in pending_gens:
        try:
            gens[ident] = Permutation.parse(cyc, degree=degree)
        except ValueError as e:
            raise ParseError(f"bad cycles for {ident}: {e}", lineno, col)
    for directive, ident, lineno, col in named:
        if ident not in gens:
            raise ParseError(f"{directive} names unknown generator {ident!r}", lineno, col)
    spec = GroupSpec(
        name=name or Path(path).stem,
        degree=degree,
        generators=gens,
        socle_names=socle_names,
        aut_name=aut_name,
        pi=pi,
    )
    _validate_spec(spec)
    return spec


def _validate_spec(spec: GroupSpec) -> None:
    """The declared socle is normal in the group, which a socle that is the
    group is without a check.  The aut is one of the group's generators, so
    it then normalises the socle too."""
    socle = spec.socle()
    if socle is not None and socle is not spec.group() and not socle.is_normal_in(spec.group()):
        raise NotNormalizing(
            f"declared socle of {spec.name} is not normal in the group"
        )


def write_spec(spec: GroupSpec, path: str | Path) -> None:
    """Emit the canonical form; ``load_spec`` of the result round-trips."""
    lines = [f"name {spec.name}", f"degree {spec.degree}"]
    for ident, perm in spec.generators.items():
        lines.append(f"gen {ident} {perm}")
    if spec.socle_names:
        lines.append("socle " + " ".join(spec.socle_names))
    if spec.aut_name:
        lines.append(f"aut {spec.aut_name}")
    if spec.pi is not None:
        lines.append(f"pi {spec.pi}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
