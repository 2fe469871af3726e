"""Permutation arithmetic: composition convention, parsing, and cycle facts."""

import itertools

import pytest
from hypothesis import given, strategies as st

from piradical import (
    DegreeMismatch,
    DegreeTooLarge,
    MalformedCycle,
    PermGroup,
    Permutation,
    PointOutOfRange,
    RepeatedPoint,
)
from piradical.perms import compose_images, conjugate_images, inverse_images


def P(text: str, degree: int | None = None) -> Permutation:
    return Permutation.parse(text, degree=degree)


# -- composition convention: left-to-right, (p*q)(i) = q(p(i)) ---------------


def test_composition_is_left_to_right():
    assert P("(1 2)", 3) * P("(1 3)", 3) == P("(1 2 3)", 3)
    assert P("(1 3)", 3) * P("(1 2)", 3) == P("(1 3 2)", 3)


def test_transposition_chain_builds_long_cycle():
    prod = Permutation.identity(5)
    for k in range(2, 6):
        prod = prod * P(f"(1 {k})", 5)
    assert prod == P("(1 2 3 4 5)", 5)


def test_hand_checked_involution_products():
    assert P("(1 2)(4 5)", 5) * P("(1 3)(4 5)", 5) == P("(1 2 3)", 5)
    assert P("(1 3)(4 5)", 5) * P("(1 4)(2 3)", 5) == P("(1 2 3 4 5)", 5)


def test_commutator_of_full_cycle_with_three_cycle():
    x = P("(1 2 3 4 5 6 7)")
    y = P("(1 2 3)", 7)
    assert x.inverse() * (x ** y.inverse()) == P("(1 3 4)", 7)


def test_conjugation_is_right_action():
    x, g = P("(1 2)", 4), P("(1 3 2 4)")
    assert x**g == g.inverse() * x * g
    assert x**g == P("(3 4)", 4)
    h = P("(1 2 3)", 4)
    assert (x**g) ** h == x ** (g * h)


def test_integer_powers():
    c = P("(1 2 3 4 5)")
    assert c**0 == Permutation.identity(5)
    assert c**5 == Permutation.identity(5)
    assert c**-1 == c.inverse()
    assert c**7 == c * c
    assert c**2 == P("(1 3 5 2 4)")


# -- parsing and printing ----------------------------------------------------


def test_parse_accepts_spaces_and_commas():
    assert P("(1,2,3)(4,5)") == P("(1 2 3)(4 5)")


def test_identity_prints_as_empty_cycle():
    assert str(Permutation.identity(4)) == "()"
    assert P("()", 4) == Permutation.identity(4)


def test_str_renders_the_cycles_of_every_small_permutation():
    """``str`` walks the images once; it writes what :meth:`cycles` lists,
    for every permutation of degree at most 6, the identities included."""
    for n in range(7):
        for images in itertools.permutations(range(n)):
            p = Permutation(images)
            cycles = "".join("(" + " ".join(map(str, c)) + ")" for c in p.cycles())
            assert str(p) == (cycles or "()")


def test_str_parse_round_trip():
    for text in ["(1 2)", "(1 2 3)(4 5)", "(2 4)(3 5)", "(1 5 2 4 3)"]:
        p = P(text, 5)
        assert Permutation.parse(str(p), degree=5) == p


def test_parse_errors():
    with pytest.raises(MalformedCycle):
        Permutation.parse("")
    with pytest.raises(MalformedCycle):
        Permutation.parse("1 2 3")
    with pytest.raises(MalformedCycle):
        Permutation.parse("(1 2) junk")
    with pytest.raises(MalformedCycle):
        Permutation.parse("(1 a)")
    with pytest.raises(PointOutOfRange):
        Permutation.parse("(0 1)")
    with pytest.raises(PointOutOfRange):
        Permutation.parse("(1 7)", degree=5)
    with pytest.raises(RepeatedPoint):
        Permutation.parse("(1 2)(2 3)")
    with pytest.raises(RepeatedPoint):
        Permutation.parse("(1 2 1)")


def test_degree_mismatch_on_mixed_arithmetic():
    with pytest.raises(DegreeMismatch):
        P("(1 2)", 3) * P("(1 2)", 4)
    with pytest.raises(DegreeMismatch):
        P("(1 2)", 3) ** P("(1 2)", 4)


def test_extended_embeds_into_larger_degree():
    p = P("(1 2 3)", 3)
    q = p.extended(6)
    assert q.degree == 6
    assert str(q) == "(1 2 3)"
    assert q.extended(6) == q
    with pytest.raises(DegreeMismatch):
        q.extended(3)


# -- cycle structure ---------------------------------------------------------


def test_cycles_and_cycle_type():
    p = P("(1 2 3)(4 5)", 6)
    assert p.cycles() == [(1, 2, 3), (4, 5)]
    assert p.cycle_type() == (3, 2)  # fixed points omitted
    assert Permutation.identity(3).cycle_type() == ()


def test_order_is_lcm_of_cycle_lengths():
    assert P("(1 2 3)(4 5)", 6).order() == 6
    assert P("(1 2)(3 4)", 4).order() == 2
    assert Permutation.identity(5).order() == 1


def test_moved_points_and_transposition_predicate():
    p = P("(2 5)", 6)
    assert p.moved_points() == (2, 5)
    assert p.is_transposition()
    assert not P("(1 2 3)", 3).is_transposition()
    assert not Permutation.identity(2).is_transposition()
    assert not P("(1 2)(3 4)", 4).is_transposition()


def test_apply_is_one_based():
    p = P("(1 2 3)", 3)
    assert [p.apply(i) for i in (1, 2, 3)] == [2, 3, 1]


def test_ordering_is_total_and_identity_first():
    elems = [P("(1 2)", 3), P("(1 2 3)", 3), Permutation.identity(3)]
    assert min(elems) == Permutation.identity(3)
    assert sorted(elems) == sorted(elems, key=lambda p: p.images)


# -- algebraic laws, randomized ----------------------------------------------


@st.composite
def perm_triples(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    imgs = lambda: tuple(draw(st.permutations(tuple(range(n)))))
    return Permutation(imgs()), Permutation(imgs()), Permutation(imgs())


@given(perm_triples())
def test_associativity(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)


@given(perm_triples())
def test_inverse_laws(triple):
    a, b, _ = triple
    ident = Permutation.identity(a.degree)
    assert a * a.inverse() == ident
    assert a.inverse() * a == ident
    assert (a * b).inverse() == b.inverse() * a.inverse()


@given(perm_triples())
def test_conjugation_composes(triple):
    x, g, h = triple
    assert (x**g) ** h == x ** (g * h)
    assert x.cycle_type() == (x**g).cycle_type()


@given(perm_triples())
def test_power_of_order_is_identity(triple):
    a, _, _ = triple
    assert a ** a.order() == Permutation.identity(a.degree)
    assert a.order() == (a.inverse()).order()


@given(perm_triples())
def test_str_round_trip_random(triple):
    a, _, _ = triple
    assert Permutation.parse(str(a), degree=a.degree) == a


# -- the degree limit ------------------------------------------------------------


def test_degree_above_the_byte_limit_is_refused():
    with pytest.raises(DegreeTooLarge, match="limit of 256 points"):
        Permutation(range(257))
    with pytest.raises(DegreeTooLarge, match="limit of 256 points"):
        Permutation.parse("(1 257)")
    with pytest.raises(DegreeTooLarge, match="limit of 256 points"):
        Permutation.identity(300)
    with pytest.raises(DegreeTooLarge, match="limit of 256 points"):
        P("(1 2)", 256).extended(257)


def test_degree_256_round_trips():
    ident = Permutation(range(256))
    assert ident.is_identity() and ident.degree == 256
    assert Permutation.parse(str(ident), degree=256) == ident
    rev = Permutation(range(255, -1, -1))
    assert Permutation.parse(str(rev), degree=256) == rev
    assert rev * rev == ident and rev.inverse() == rev


# -- bytes arithmetic against tuple comprehensions --------------------------------


def ref_compose(p, q):
    return tuple(q[i] for i in p)


def ref_inverse(p):
    inv = [0] * len(p)
    for i, image in enumerate(p):
        inv[image] = i
    return tuple(inv)


def ref_conjugate(x, g):
    return ref_compose(ref_compose(ref_inverse(g), x), g)


@st.composite
def wide_perm_triples(draw):
    """Three permutations of one degree in 1..256, often 255 or 256, where
    the padding tail of a translate table is one byte long or empty."""
    n = draw(st.one_of(st.sampled_from([1, 2, 255, 256]), st.integers(1, 256)))
    imgs = lambda: tuple(draw(st.permutations(range(n))))
    return imgs(), imgs(), imgs()


@given(wide_perm_triples())
def test_image_helpers_match_tuple_comprehensions(triple):
    p, q, g = triple
    bp, bq, bg = map(bytes, triple)
    assert compose_images(bp, bq) == bytes(ref_compose(p, q))
    assert inverse_images(bp) == bytes(ref_inverse(p))
    assert conjugate_images(bp, bg) == bytes(ref_conjugate(p, g))


@given(wide_perm_triples(), st.integers(-3, 3))
def test_permutation_arithmetic_matches_tuple_comprehensions(triple, k):
    p, q, g = triple
    a, b, c = map(Permutation, triple)
    assert tuple((a * b).images) == ref_compose(p, q)
    assert tuple(a.inverse().images) == ref_inverse(p)
    assert tuple((a**c).images) == ref_conjugate(p, g)
    power = tuple(range(len(p)))
    for _ in range(abs(k)):
        power = ref_compose(power, p if k > 0 else ref_inverse(p))
    assert tuple((a**k).images) == power


@given(wide_perm_triples())
def test_sift_matches_a_tuple_strip(triple):
    """Sift through a small group moving the first and the last points of
    the degree, against the same strip written on tuples."""
    p, _, _ = triple
    n = len(p)
    gens = [Permutation.from_cycles([tuple(range(1, min(n, 4) + 1))], degree=n)]
    if n >= 6:
        gens.append(Permutation.from_cycles([(n - 1, n)], degree=n))
    G = PermGroup.from_generators(gens, n)
    h = p
    for lev in G._levels:
        beta = h[lev.point]
        if beta == lev.point:
            continue
        if beta not in lev.trans_inv:
            break
        h = ref_compose(h, tuple(lev.trans_inv[beta]))
    residue = G.sift(Permutation(p))
    assert tuple(residue.images) == h
    assert G.contains(Permutation(p)) == residue.is_identity()
    member = gens[0] * gens[-1] ** 2
    assert G.sift(member).is_identity()
