"""The traced benchmark run wraps piradical's layer boundaries by name
(``perfbench/spans.py``).  A renamed function would silently drop out of the
per-layer counts, so every subcommand is run here under those wrappers."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from piradical.cli import main

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, os, sys
import piradical, piradical.cli
import spans

tracer = spans.Tracer()
spans.install(tracer, piradical)
codes = [piradical.cli.main(argv + ["--format", "json", "--out", os.devnull])
         for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "metrics": tracer.metrics()}))
"""

ARGV = [
    ["radical", "--group", "S4", "--pi", "2"],
    ["alpha", "--group", "A5", "--aut", "(1 2 3)"],
    # a socle that is not a giant, so its class is traced by the wrapped
    # ``conjugation_orbit``
    ["alpha", "--group", "A6:pgammal", "--aut", "outer-involution"],
    ["beta", "--group", "A5", "--aut", "(1 2)", "--r", "5"],
    ["bs-check", "--group", "S4", "--pi", "2", "--m", "2", "--find-min"],
    ["transposition-sweep", "--r", "5"],
    ["width-table", "--n", "5", "--r", "3"],
    ["verify-bs", "--group", "S4"],
    ["verify-bs-sweep", "--order-cap", "12"],
]


def run_traced(argvs: list[list[str]]) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["codes"] == [0] * len(argvs)
    return out["metrics"]


def test_every_subcommand_runs_under_the_benchmark_spans():
    metrics = run_traced(ARGV)
    for name in ("width.searches", "structure.orbits", "groups.chain_builds"):
        assert metrics[name] > 0, name


def test_spec_file_questions_run_under_the_benchmark_spans(tmp_path):
    """Every benchmark question passes ``--spec``, so the wrapped
    ``GroupSpec.group`` and ``GroupSpec.socle`` are traced too."""
    socle = tmp_path / "a5.spec"
    socle.write_text("degree 5\ngen a (1 2 3)\ngen b (3 4 5)\nsocle a b\n", encoding="utf-8")
    group = tmp_path / "s5.spec"
    group.write_text("degree 5\ngen a (1 2)\ngen b (1 2 3 4 5)\npi 2,3\n", encoding="utf-8")
    metrics = run_traced([
        ["alpha", "--spec", str(socle), "--aut", "(1 2)"],
        ["bs-check", "--spec", str(group), "--m", "2"],
    ])
    assert metrics["catalog.build_s"] > 0
    assert metrics["width.searches"] > 0


def test_no_class_table_is_traced_twice_in_one_question():
    """A width search over a group's classes reads a table that the class
    data traced on first read, outside ``conjugation_orbit``, so
    ``bs-check`` and ``verify-bs`` trace no orbit through it, and neither
    does a context over a giant socle, whose class is traced as its search
    reads it; the one orbit traced is the class of the context over the
    degree-10 Alt(6), once."""
    metrics = run_traced([
        ["bs-check", "--group", "S5", "--pi", "2", "--m", "2", "--find-min"],
        ["verify-bs", "--group", "S5"],
        ["alpha", "--group", "A5", "--aut", "(1 2 3)"],
        ["alpha", "--group", "A6:pgammal", "--aut", "outer-involution"],
    ])
    assert metrics["structure.orbits"] == 1
    assert metrics["structure.orbit_unique_ratio"] == 1.0


def test_the_program_enumerates_each_element_once():
    """Building PGammaL(2,9) enumerates two groups of order 720, PGL(2,9)
    and M10, for their involutions; the element-order spectra of the three
    overgroups come from class scans, which draw elements lazily and stop
    once the classes cover the group, and are not counted here.  The one
    search that goes past width 2, beta_3 of the outer involution of
    PGammaL(2,9), lists the 10 elements of its centralizer in the socle
    (360 / 36 conjugates).  Each element is counted once."""
    metrics = run_traced([["width-table", "--n", "6", "--r", "3"]])
    assert metrics["groups.enumerated"] == 1450


# the counts of a build before permutations were stored as bytes: a change of
# element type changes what each step costs, never how many steps there are.
# The class scan draws its elements lazily, outside ``element_tuples``, so
# neither question enumerates a list of elements.  ``verify-bs`` asks O_p(S5)
# for p = 2, 3 and 5; the orbit certificate answers p = 2 and 3, which do not
# divide the orbit length 5, and the giant certificate answers p = 5, because
# S5 is not a 5-group, so no class is closed; the identity's class lies in
# each radical and is not searched, and the search over the transpositions
# sifts (1 2) into S5 once, to certify that their partition states can be
# keyed by shape.  In ``radical`` the orbit
# certificate answers O_2(S5), and the lattice crosscheck closes S5's five
# prime-power classes: the class equation certifies four, and one
# ``normal_closure`` builds Alt(5); 1 < Alt(5) < S5 are nested, so no join
# is built.  PGL(2,7) is built from three generators, so its class scan
# builds the chain of its first pair, which has order 336 and is the set
# the scan conjugates by; then one closure, PSL(2,7), is built (the class
# equation with signs certifies the other six: the odd classes close to
# PGL(2,7), the even ones to PSL(2,7)), the trivial 2-radical is joined,
# and the lattice starts from the trivial group.
PINNED_COUNTS = {
    ("radical", "--group", "pgl2(7)", "--pi", "2"): {
        "groups.chain_builds": 5, "groups.extends": 1,
        "groups.sifts": 14, "groups.enumerated": 0,
    },
    ("radical", "--group", "S5", "--pi", "2"): {
        "groups.chain_builds": 4, "groups.extends": 1,
        "groups.sifts": 10, "groups.enumerated": 0,
    },
    ("verify-bs", "--group", "S5"): {
        "groups.chain_builds": 9, "groups.extends": 4,
        "groups.sifts": 31, "groups.enumerated": 0,
    },
}


@pytest.mark.parametrize("argv", list(PINNED_COUNTS))
def test_the_work_of_a_question_is_pinned(argv):
    metrics = run_traced([list(argv)])
    assert {name: metrics[name] for name in PINNED_COUNTS[argv]} == PINNED_COUNTS[argv]


def test_the_work_of_a_direct_product_question_is_pinned(tmp_path):
    """S3xS4, given by its factors' own generators, as the benchmark's
    direct products are: its class scan builds one chain, for the pair of
    the products of its even- and of its odd-indexed generators, where it
    once built the four failing (g_i, the others' product) chains and
    conjugated by all four generators (19 chain builds in all)."""
    spec = tmp_path / "s3xs4.spec"
    spec.write_text(
        "degree 7\ngen a (1 2)\ngen b (1 2 3)\ngen c (4 5)\ngen d (4 5 6 7)\n",
        encoding="utf-8",
    )
    metrics = run_traced([["radical", "--spec", str(spec), "--pi", "2"]])
    pinned = ("groups.chain_builds", "groups.extends", "groups.sifts", "groups.enumerated")
    assert [metrics[name] for name in pinned] == [16, 15, 211, 0]


def test_find_min_searches_each_class_once(capsys):
    """``bs-check --find-min`` reuses the width-m search of every class whose
    minimum it found: S5 has six classes outside its trivial 2-radical, and
    the report is the one that searching each class again gave (its SHA-256
    without the wall time, and without the seed, class-budget and
    state-budget keys reports once had)."""
    argv = ["bs-check", "--group", "S5", "--pi", "2", "--m", "2", "--find-min"]
    assert run_traced([argv])["width.searches"] <= 6
    assert main(argv + ["--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["provenance"]["wall_time_s"]
    digest = hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()
    assert digest == "86d5e5adebaae5215f0ce052d4640f53c8b6f312ee1a22ac592bae9c3d5de34c"
