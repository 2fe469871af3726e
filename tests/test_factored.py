"""Exact factored-integer arithmetic."""

import pytest
from hypothesis import given, strategies as st

from piradical import FactoredInteger, is_prime


def test_from_int_and_str():
    assert str(FactoredInteger.from_int(12)) == "2^2·3"
    assert str(FactoredInteger.from_int(7)) == "7"
    assert str(FactoredInteger.one()) == "1"
    assert FactoredInteger.from_int(360).value == 360


def test_one_and_is_one():
    assert FactoredInteger.one().is_one()
    assert FactoredInteger.from_int(1).is_one()
    assert not FactoredInteger.from_int(2).is_one()
    assert FactoredInteger.one() == FactoredInteger.from_int(1)


def test_from_int_rejects_nonpositive():
    with pytest.raises(ValueError):
        FactoredInteger.from_int(0)
    with pytest.raises(ValueError):
        FactoredInteger.from_int(-6)


def test_mul_and_exact_div():
    a = FactoredInteger.from_int(12)
    b = FactoredInteger.from_int(10)
    assert (a * b).value == 120
    assert (a * b).exact_div(b) == a
    with pytest.raises(ValueError):
        a.exact_div(FactoredInteger.from_int(5))


def test_divisibility_queries():
    n = FactoredInteger.from_int(60)
    assert n.divisible_by(2) and n.divisible_by(3) and n.divisible_by(5)
    assert not n.divisible_by(7)
    assert FactoredInteger.from_int(12).divides(n)
    assert not FactoredInteger.from_int(8).divides(n)
    assert n.prime_support == frozenset({2, 3, 5})


def test_from_product_matches_direct_factorization():
    parts = [6, 10, 7, 1]
    assert FactoredInteger.from_product(parts) == FactoredInteger.from_int(420)


def test_is_prime_small_values():
    primes = [p for p in range(2, 30) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0)


positive_ints = st.integers(min_value=1, max_value=10**6)


@given(positive_ints, positive_ints)
def test_mul_matches_integer_multiplication(a, b):
    assert FactoredInteger.from_int(a) * FactoredInteger.from_int(b) == (
        FactoredInteger.from_int(a * b)
    )


@given(positive_ints, positive_ints)
def test_divides_matches_integer_divisibility(a, b):
    assert FactoredInteger.from_int(a).divides(FactoredInteger.from_int(a * b))
    fa, fb = FactoredInteger.from_int(a), FactoredInteger.from_int(b)
    assert fa.divides(fb) == (b % a == 0)


def test_trial_division_agrees_with_sympy():
    """An independent route for the factoring and primality that every order
    computation rests on: small range, large primes, Carmichael numbers."""
    sympy = pytest.importorskip("sympy")
    from piradical.factored import _factorint

    for n in range(1, 10**5 + 1):
        assert dict(_factorint.__wrapped__(n)) == sympy.factorint(n), n
        assert is_prime.__wrapped__(n) == sympy.isprime(n), n
    _factorint.cache_clear()  # the range above is not worth keeping
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                  321197185, 5394826801, 232250619601]
    large = [2**31 - 1, 10**9 + 7, 998244353, 999983 * 999979,
             999999999989, 10**12]
    for n in carmichael + large:
        assert is_prime(n) == sympy.isprime(n), n
        assert dict(FactoredInteger.from_int(n).factors) == sympy.factorint(n), n


def test_is_prime_rejects_values_above_the_limit():
    assert is_prime(999999999989)
    for n in (10**12 + 39, 2**61 - 1, 10**30 + 57):
        with pytest.raises(ValueError, match="10\\^12"):
            is_prime(n)
