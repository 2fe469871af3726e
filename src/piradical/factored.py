"""Integers kept in factored form.

Group orders here are products of orbit sizes, so they arrive as products of
small integers; keeping them factored makes divisibility questions ("is this
order a pi-number?", "does r divide it?") exact and cheap, with no large-int
arithmetic in hot loops.  The small pieces are factored by trial division
behind a memo cache: every prime factor of a group order here is at most its
degree, so the division stops early.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

_PRIME_TEST_LIMIT = 10**12


@lru_cache(maxsize=None)
def _factorint(n: int) -> tuple[tuple[int, int], ...]:
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Primality by trial division.  Values above 10^12 raise ``ValueError``
    at once instead of hanging in the division; no group this engine can
    hold has a prime factor that large."""
    if n > _PRIME_TEST_LIMIT:
        raise ValueError(f"{n} exceeds the primality-test limit 10^12")
    return n > 1 and _factorint(n) == ((n, 1),)


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer as a sorted tuple of (prime, exponent) pairs.

    The empty tuple represents 1.  Instances are immutable and hashable.
    """

    factors: tuple[tuple[int, int], ...] = ()

    @classmethod
    def from_int(cls, n: int) -> "FactoredInteger":
        if n <= 0:
            raise ValueError(f"expected a positive integer, got {n}")
        return cls(_factorint(n))

    @classmethod
    def one(cls) -> "FactoredInteger":
        return cls(())

    @classmethod
    def from_product(cls, parts: list[int]) -> "FactoredInteger":
        """Factored product of the given positive integers (each factored
        separately, so large structured products stay cheap)."""
        return reduce(lambda a, b: a * b, (cls.from_int(p) for p in parts), cls.one())

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other: "FactoredInteger") -> "FactoredInteger":
        exps = dict(self.factors)
        for p, e in other.factors:
            exps[p] = exps.get(p, 0) + e
        return FactoredInteger(tuple(sorted(exps.items())))

    def exact_div(self, other: "FactoredInteger") -> "FactoredInteger":
        """Quotient self/other; raises ValueError unless other divides self."""
        exps = dict(self.factors)
        for p, e in other.factors:
            have = exps.get(p, 0)
            if have < e:
                raise ValueError(f"{other} does not divide {self}")
            if have == e:
                del exps[p]
            else:
                exps[p] = have - e
        return FactoredInteger(tuple(sorted(exps.items())))

    # -- queries ------------------------------------------------------------

    @property
    def value(self) -> int:
        n = 1
        for p, e in self.factors:
            n *= p**e
        return n

    @property
    def prime_support(self) -> frozenset[int]:
        return frozenset(p for p, _ in self.factors)

    def divisible_by(self, prime: int) -> bool:
        return any(p == prime for p, _ in self.factors)

    def divides(self, other: "FactoredInteger") -> bool:
        exps = dict(other.factors)
        return all(exps.get(p, 0) >= e for p, e in self.factors)

    def is_one(self) -> bool:
        return not self.factors

    # -- formatting ---------------------------------------------------------

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return "·".join(
            f"{p}^{e}" if e > 1 else f"{p}" for p, e in self.factors
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FactoredInteger({self})"
