"""Named groups, finite-field tables, projective constructions, spec files."""

import math

import pytest

from piradical import (
    NotNormalizing,
    ParseError,
    PermGroup,
    Permutation,
    PrimeSet,
    SUPPORTED_Q,
    UnsupportedQ,
    alternating_group,
    catalog_groups,
    conjugation_orbit,
    cyclic_group,
    dihedral_group,
    element_order_spectrum,
    field_table,
    group_by_name,
    load_spec,
    normal_subgroups,
    pgl2,
    projective_semilinear_9,
    psl2,
    socle_by_name,
    automorphism_by_name,
    symmetric_group,
    write_spec,
    GroupSpec,
)

P = Permutation.parse


# -- elementary families -------------------------------------------------------


def test_family_orders():
    for n in range(2, 8):
        assert symmetric_group(n).order_int == math.factorial(n)
    for n in range(3, 8):
        assert alternating_group(n).order_int == math.factorial(n) // 2
    for n in range(1, 10):
        assert cyclic_group(n).order_int == n
    for n in range(3, 10):
        assert dihedral_group(n).order_int == 2 * n


def test_dihedral_reflection_inverts_rotation():
    D = dihedral_group(5)
    rot, refl = D.generators
    assert refl.order() == 2
    assert refl * rot * refl == rot.inverse()


def test_prime_order_class_representatives():
    from piradical import prime_order_class_representatives

    reps = prime_order_class_representatives(6)
    for rep, p, k in reps:
        assert rep.order() == p
        assert rep.cycle_type() == tuple([p] * k)
    assert {(p, k) for _, p, k in reps} == {
        (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1),
    }


# -- finite fields ---------------------------------------------------------------


def test_field_tables_self_certify():
    for q in SUPPORTED_Q:
        F = field_table(q)
        assert F.q == q
        # primitive element generates the full multiplicative group
        seen, a = set(), 1
        for _ in range(q - 1):
            a = F.mul[a][F.primitive]
            seen.add(a)
        assert len(seen) == q - 1
        # Frobenius has order exactly k
        img = tuple(range(q))
        for _ in range(F.k):
            img = tuple(F.frobenius[i] for i in img)
        assert img == tuple(range(q))


def test_field_arithmetic_facts():
    F9 = field_table(9)
    assert (F9.p, F9.k) == (3, 2)
    assert field_table(8).k == 3
    assert field_table(13).k == 1
    # additive and multiplicative inverses
    for a in range(9):
        assert F9.add[a][F9.neg[a]] == 0
        if a:
            assert F9.mul[a][F9.inv[a]] == 1


def test_unsupported_field_sizes_are_rejected():
    for q in (2, 3, 6, 10, 16, 25):
        with pytest.raises(UnsupportedQ):
            psl2(q)


# -- projective groups -------------------------------------------------------------


def test_projective_group_orders():
    for q in SUPPORTED_Q:
        expected = q * (q * q - 1)
        assert psl2(q).order_int == expected // math.gcd(2, q - 1)
        assert psl2(q).degree == q + 1
        if q % 2 == 1:
            assert pgl2(q).order_int == expected


def test_projective_groups_act_transitively():
    for q in (5, 7, 8, 9):
        assert psl2(q).is_transitive()


def test_psl_groups_are_simple():
    for q in (4, 5, 7, 8, 9, 11, 13):
        G = psl2(q)
        assert [H.order_int for H in normal_subgroups(G)] == [1, G.order_int]


def test_psl29_matches_alternating_six():
    G = psl2(9)
    A6 = alternating_group(6)
    assert G.order_int == A6.order_int == 360
    assert element_order_spectrum(G) == element_order_spectrum(A6)


def test_even_q_linear_equals_special_linear():
    for q in (4, 8):
        assert pgl2(q).same_group_as(psl2(q))


# -- the degree-ten semilinear tower -------------------------------------------------


def test_semilinear_tower_orders_and_cosets():
    nine = projective_semilinear_9()
    assert nine.group.order_int == 1440
    assert nine.socle.order_int == 360
    for H in (nine.pgl, nine.psigmal, nine.m10):
        assert H.order_int == 720
        assert nine.socle.is_normal_in(H)
        assert H.is_subgroup_of(nine.group)
    assert not nine.pgl.same_group_as(nine.psigmal)
    assert not nine.pgl.same_group_as(nine.m10)
    assert not nine.psigmal.same_group_as(nine.m10)


def test_semilinear_spectra_identify_overgroups():
    nine = projective_semilinear_9()
    assert 6 in element_order_spectrum(nine.psigmal)
    assert 6 not in element_order_spectrum(nine.pgl)
    assert 10 in element_order_spectrum(nine.pgl)
    assert 10 not in element_order_spectrum(nine.psigmal)
    m10_spec = element_order_spectrum(nine.m10)
    assert 6 not in m10_spec and 10 not in m10_spec
    assert 8 in m10_spec


def test_outer_involution_class_and_centralizer():
    nine = projective_semilinear_9()
    x = nine.involution_outside_s6
    assert x.order() == 2
    assert not nine.socle.contains(x)
    assert nine.pgl.contains(x)
    members, _ = conjugation_orbit(nine.socle, x)
    assert len(members) == 36
    pgl_class, _ = conjugation_orbit(nine.pgl, x)
    assert nine.pgl.order_int // len(pgl_class) % 10 == 0
    cz_in_socle = sum(1 for g in nine.socle.elements() if g * x == x * g)
    assert cz_in_socle == 10


def test_outer_involution_swaps_three_cycle_classes():
    nine = projective_semilinear_9()
    x = nine.involution_outside_s6
    order3 = [g for g in nine.socle.elements() if g.order() == 3]
    classes = []
    pool = set(order3)
    while pool:
        seed = min(pool)
        members, _ = conjugation_orbit(nine.socle, seed)
        members = [Permutation(m) for m in members]  # from image tuples
        classes.append(frozenset(members))
        pool -= set(members)
    assert len(classes) == 2 and all(len(c) == 40 for c in classes)
    a, b = classes
    assert {y**x for y in a} == b


def test_m10_coset_has_no_involutions():
    nine = projective_semilinear_9()
    assert all(
        e.order() != 2
        for e in nine.m10.elements()
        if not nine.socle.contains(e)
    )


def test_field_involution_lives_in_sigma_coset():
    nine = projective_semilinear_9()
    s = nine.field_involution
    assert s.order() == 2
    assert nine.psigmal.contains(s) and not nine.socle.contains(s)
    assert not nine.pgl.contains(s)


# -- the catalog and name resolution ---------------------------------------------------


def test_catalog_entries_match_closed_forms():
    for entry in catalog_groups():
        assert entry.group.order_int == entry.closed_form_order, entry.name


def test_catalog_order_filter():
    small = catalog_groups(max_order=100)
    assert all(e.closed_form_order <= 100 for e in small)
    assert {e.name for e in small} >= {"S4", "A5", "C16", "D12", "psl2(4)"}


def test_group_names_resolve():
    assert group_by_name("S5").order_int == 120
    assert group_by_name("a6").order_int == 360
    assert group_by_name("C12").order_int == 12
    assert group_by_name("D8").order_int == 16
    assert group_by_name("psl2(7)").order_int == 168
    assert group_by_name("PGL2(9)").order_int == 720
    assert group_by_name("pgammal2(9)").order_int == 1440
    with pytest.raises(ValueError):
        group_by_name("E8")
    with pytest.raises(UnsupportedQ):
        group_by_name("pgammal2(7)")


def test_socle_alias_and_automorphism_keywords():
    socle = socle_by_name("A6:pgammal")
    assert socle.degree == 10 and socle.order_int == 360
    x = automorphism_by_name("outer-involution", 10)
    assert x == projective_semilinear_9().involution_outside_s6
    s = automorphism_by_name("field-involution", 10)
    assert s == projective_semilinear_9().field_involution
    direct = automorphism_by_name("(1 2)", 5)
    assert direct == P("(1 2)", 5)
    with pytest.raises(ValueError):
        automorphism_by_name("outer-involution", 6)


# -- spec files ---------------------------------------------------------------------


SPEC_TEXT = """\
# five-point example
name five-sym
degree 5
gen a (1 2)
gen b (1 2 3 4 5)
socle a b
aut a
pi 2,3
"""


def test_load_spec_round_trip(tmp_path):
    path = tmp_path / "g.spec"
    path.write_text(SPEC_TEXT, encoding="utf-8")
    spec = load_spec(path)
    assert spec.name == "five-sym"
    assert spec.degree == 5
    assert list(spec.generators) == ["a", "b"]
    assert spec.group().order_int == 120
    assert spec.socle().order_int == 120
    assert spec.aut() == P("(1 2)", 5)
    assert spec.pi == PrimeSet.of(2, 3)
    out = tmp_path / "copy.spec"
    write_spec(spec, out)
    again = load_spec(out)
    assert again == spec


def test_a_spec_builds_its_group_and_socle_once(tmp_path, monkeypatch):
    """Validation builds the group and the socle; every later call returns
    those objects."""
    path = tmp_path / "g.spec"
    path.write_text(
        "degree 5\ngen a (1 2 3)\ngen b (3 4 5)\ngen c (1 2)\nsocle a b\naut c\n",
        encoding="utf-8",
    )
    built = []
    from_generators = PermGroup.__dict__["from_generators"].__func__

    def counting(cls, generators, degree=None):
        generators = list(generators)
        built.append(len(generators))
        return from_generators(cls, generators, degree)

    monkeypatch.setattr(PermGroup, "from_generators", classmethod(counting))
    spec = load_spec(path)
    G, socle = spec.group(), spec.socle()
    for _ in range(3):
        assert spec.group() is G and spec.socle() is socle
    assert (G.order_int, socle.order_int) == (120, 60)
    assert sorted(built) == [2, 3]  # the socle's two generators, the group's three


@pytest.mark.parametrize(
    "socle, chains, checks",
    [("a b c d", 1, 0), ("d c b a", 2, 1), ("a c d", 2, 1), ("a b", 2, 1)],
)
def test_a_socle_naming_every_generator_in_order_is_the_group(
    tmp_path, monkeypatch, socle, chains, checks
):
    """A ``socle`` line that names every generator in ``gen`` order is the
    group: one chain, and no normality check of the group against itself.
    The same generators in another order, or a proper subset, build their
    own chain and are checked (here the reordered set and <a, c, d>
    generate S4 too, and <a, b> is its normal Klein group)."""
    path = tmp_path / "s4.spec"
    path.write_text(
        "degree 4\ngen a (1 2)(3 4)\ngen b (1 3)(2 4)\ngen c (1 2 3 4)\ngen d (1 2)\n"
        f"socle {socle}\n",
        encoding="utf-8",
    )
    built, checked = [], []
    from_generators = PermGroup.__dict__["from_generators"].__func__
    is_normal_in = PermGroup.is_normal_in
    monkeypatch.setattr(
        PermGroup,
        "from_generators",
        classmethod(lambda cls, *a, **k: built.append(a) or from_generators(cls, *a, **k)),
    )
    monkeypatch.setattr(
        PermGroup, "is_normal_in", lambda H, G: checked.append(G) or is_normal_in(H, G)
    )
    spec = load_spec(path)
    assert (spec.socle() is spec.group()) == (chains == 1)
    assert (len(built), len(checked)) == (chains, checks)
    assert spec.group().order_int == 24
    assert spec.socle().order_int == (4 if socle == "a b" else 24)


def test_spec_name_defaults_to_file_stem(tmp_path):
    path = tmp_path / "mygroup.spec"
    path.write_text("degree 3\ngen a (1 2 3)\n", encoding="utf-8")
    assert load_spec(path).name == "mygroup"


def test_spec_parse_errors_carry_positions(tmp_path):
    cases = [
        ("degree x\n", "integer"),
        ("degree 0\n", "positive"),
        ("degree 3\ngen a\n", "identifier"),
        ("degree 3\ngen a (1 2)\ngen a (1 3)\n", "twice"),
        ("degree 3\nwobble 4\n", "unknown directive"),
        ("gen a (1 2)\n", "degree"),
        ("degree 3\ngen a (1 4)\n", "bad cycles"),
        ("degree 3\ngen a (1 2)\nsocle b\n", "unknown generator"),
        ("degree 3\ngen a (1 2)\naut b\n", "unknown generator"),
        ("degree 3\ngen a (1 2)\npi 2,4\n", "prime"),
    ]
    for body, fragment in cases:
        path = tmp_path / "bad.spec"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_spec(path)
        assert fragment in str(exc.value)
        assert exc.value.line >= 1


@pytest.mark.parametrize(
    "body, line, column",
    [
        ("degree   x\n", 1, 10),
        ("degree x\n", 1, 8),
        ("degree 3\n  degree 4\n", 2, 1),
        ("degree 3\ngen a (1 2)\npi    2,4\n", 3, 7),
        ("name\n", 1, 1),
    ],
)
def test_a_bad_value_is_reported_at_its_own_column(tmp_path, body, line, column):
    """The column of a value is where its first word stands, however many
    spaces follow the directive."""
    path = tmp_path / "bad.spec"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_spec(path)
    assert (exc.value.line, exc.value.column) == (line, column)


def test_unknown_generator_names_are_reported_where_they_stand(tmp_path):
    """A socle or aut name that no gen line defines is reported at its own
    line and column, not at the start of the file."""
    body = "name g\n# comment\ndegree 5\ngen a (1 2 3)\ngen b (1 2)\nsocle a  c\naut d\n"
    path = tmp_path / "g.spec"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(ParseError, match="socle names unknown generator 'c'") as exc:
        load_spec(path)
    assert (exc.value.line, exc.value.column) == (6, 10)
    path.write_text(body.replace("socle a  c", "socle a"), encoding="utf-8")
    with pytest.raises(ParseError, match="aut names unknown generator 'd'") as exc:
        load_spec(path)
    assert (exc.value.line, exc.value.column) == (7, 5)


@pytest.mark.parametrize(
    "first, again",
    [
        ("name g", "name h"),
        ("degree 4", "degree 5"),
        ("socle a", "socle a"),
        ("aut b", "aut a"),
        ("pi 2", "pi 3"),
    ],
)
def test_a_repeated_directive_is_a_parse_error(tmp_path, first, again):
    """Every directive but gen appears at most once: a second one is refused
    at its line instead of replacing the first."""
    lines = ["degree 4", "gen a (1 2)(3 4)", "gen b (1 2 3 4)"]
    lines = [l for l in lines if l != first] + [first, again]
    path = tmp_path / "g.spec"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    key = first.split()[0]
    with pytest.raises(ParseError, match=f"repeated '{key}' line") as exc:
        load_spec(path)
    assert exc.value.line == len(lines)


def test_spec_validation_rejects_non_normal_socle(tmp_path):
    bodies = [
        "degree 4\ngen a (1 2)\ngen b (1 2 3 4)\nsocle a\n",
        "degree 4\ngen a (1 2 3 4)\ngen b (1 2)\nsocle a\naut b\n",
    ]
    for body in bodies:
        path = tmp_path / "bad.spec"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(NotNormalizing, match="declared socle of bad is not normal"):
            load_spec(path)
