"""Command-line interface: exit codes, output formats, reproducibility."""

import argparse
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from piradical import InvariantViolation, cli, group_by_name, width
from piradical.cli import ExperimentReport, build_parser, csv_cell, main


def run(capsys, *argv: str) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of one command line, as a process
    would see them (a parser refusal exits through ``SystemExit``)."""
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv: str) -> tuple[int, dict]:
    code, out, _ = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def strip_timing(report: dict) -> dict:
    report = json.loads(json.dumps(report))
    report["provenance"].pop("wall_time_s")
    return report


# one run of every subcommand
REPEAT_ARGV = {
    "radical": ["radical", "--group", "S4", "--pi", "2"],
    "alpha": ["alpha", "--group", "A5", "--aut", "(1 2)"],
    "beta": ["beta", "--group", "A6", "--aut", "(1 2)(3 4)", "--r", "5"],
    "bs-check": ["bs-check", "--group", "S5", "--pi", "2,3", "--m", "4"],
    "transposition-sweep": ["transposition-sweep", "--r", "7"],
    "width-table": ["width-table", "--n", "5", "--r", "3", "--include-alpha"],
    "verify-bs": ["verify-bs", "--group", "S4"],
    "verify-bs-sweep": ["verify-bs-sweep", "--order-cap", "24"],
}


# -- exit codes --------------------------------------------------------------


def test_success_exit_code(capsys):
    code, out, err = run(capsys, "radical", "--group", "S4", "--pi", "2")
    assert code == 0 and err == ""
    assert "radical" in out


def test_unknown_group_is_an_input_error(capsys):
    code, _, err = run(capsys, "radical", "--group", "E8", "--pi", "2")
    assert code == 2 and "error" in err


def test_missing_pi_is_an_input_error(capsys):
    code, _, err = run(capsys, "radical", "--group", "S4")
    assert code == 2 and "pi" in err


def test_non_prime_r_is_an_input_error(capsys):
    code, _, err = run(
        capsys, "beta", "--group", "A5", "--aut", "(1 2)", "--r", "6"
    )
    assert code == 2


def test_r_not_dividing_order_is_an_input_error(capsys):
    code, _, err = run(
        capsys, "beta", "--group", "A5", "--aut", "(1 2)", "--r", "7"
    )
    assert code == 2


def test_a_context_that_is_not_almost_simple_is_an_input_error(capsys):
    """Bad input, not an implementation bug: the ambient centralizer of the
    socle D8 is nontrivial."""
    code, out, err = run(capsys, "alpha", "--group", "D8", "--aut", "(1 2 3 4 5 6 7 8)")
    assert code == 2 and out == ""
    assert "not almost simple" in err and "INVARIANT VIOLATION" not in err


@pytest.mark.parametrize(
    "name, argv",
    [
        ("group_by_name", ["radical", "--group", "S4", "--pi", "2"]),
        ("socle_by_name", ["alpha", "--group", "A5", "--aut", "(1 2)"]),
    ],
    ids=["group_by_name", "socle_by_name"],
)
def test_a_self_check_failing_while_the_group_is_read_exits_one(
    capsys, monkeypatch, name, argv
):
    """A catalog self-check that fails while --group is resolved is a bug,
    not bad input: exit 1, not 2."""
    def broken(*args, **kwargs):
        raise InvariantViolation("order formula disagrees with the chain")

    monkeypatch.setattr(cli, name, broken)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("INVARIANT VIOLATION") and "order formula" in err


def test_even_r_sweep_is_an_input_error(capsys):
    code, _, err = run(capsys, "transposition-sweep", "--r", "4")
    assert code == 2


@pytest.mark.parametrize("flag", ["--sample"])
def test_sweep_takes_no_sample_or_seed(capsys, flag):
    """The sweep is exact at every supported r, so it has nothing to sample
    (no subcommand takes a seed: see test_no_subcommand_takes_a_seed)."""
    with pytest.raises(SystemExit) as exc:
        main(["transposition-sweep", "--r", "5", flag, "30"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_exhaustive_sweep_exits_zero(capsys):
    code, report = run_json(capsys, "transposition-sweep", "--r", "5")
    assert code == 0
    rec = report["results"][0]
    assert rec["all_small_subsets_pi"] is True
    assert rec["exhaustive"] is True
    assert rec["implied_lower_bound"] == 4


def test_sweep_at_r_11_is_exact(capsys):
    code, report = run_json(capsys, "transposition-sweep", "--r", "11")
    assert code == 0
    rec = report["results"][0]
    assert rec["exhaustive"] is True and rec["all_small_subsets_pi"] is True
    assert rec["subsets_checked"] == 6_358_402_050  # C(55, 9)


def test_width_budget_exhaustion_exits_three(capsys):
    code, _, _ = run(
        capsys, "beta", "--group", "A5", "--aut", "(1 2)", "--r", "5",
        "--budget-max-width", "2",
    )
    assert code == 3


def test_find_min_past_the_width_budget_exits_three(capsys):
    """The transpositions of Sym(5) first generate a non-{2,3} group at
    width 4, so no minimum is certified within width 3 and nothing is
    printed, though the width-2 check itself completes."""
    code, out, _ = run(
        capsys, "bs-check", "--group", "S5", "--pi", "2,3", "--m", "2", "--find-min",
        "--budget-max-width", "3",
    )
    assert code == 3 and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["alpha", "--group", "A5", "--aut", "(1 2)", "--budget-max-width", "0"],
        ["transposition-sweep", "--r", "29"],
        ["verify-bs-sweep", "--order-cap", "0"],
        ["verify-bs-sweep", "--order-cap", "1"],
        ["width-table", "--n", "5", "--r", "7"],
        ["width-table", "--n", "5", "--r", "3,3"],
    ],
    ids=["max-width", "sweep-r", "order-cap-0", "order-cap-1",
         "r-above-n", "r-repeated"],
)
def test_degenerate_budget_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["alpha", "--group", "A5", "--aut", "(1 2)"],
        ["beta", "--group", "A5", "--aut", "(1 2)", "--r", "5"],
        ["width-table", "--n", "5"],
        ["bs-check", "--group", "S5", "--pi", "2", "--m", "2"],
        ["bs-check", "--group", "S5", "--pi", "2", "--m", "2", "--find-min"],
    ],
    ids=["alpha", "beta", "width-table", "bs-check", "bs-check-find-min"],
)
def test_a_width_below_one_is_refused_by_the_parser(capsys, argv):
    """``--budget-max-width`` is checked where it is parsed, so a command
    that never reads it (``bs-check`` without ``--find-min``) refuses it
    too."""
    code, out, err = run(capsys, *argv, "--budget-max-width", "0")
    assert (code, out) == (2, "")
    assert "--budget-max-width: must be >= 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["radical", "--group", "S4", "--pi", "2", "--budget-max-states", "-1"],
        ["transposition-sweep", "--r", "5", "--budget-max-width", "3"],
        # the pair checks search width 2 whatever the budget says
        ["verify-bs", "--group", "S5", "--budget-max-width", "1"],
        ["verify-bs-sweep", "--order-cap", "60", "--budget-max-width", "1"],
        ["verify-bs", "--group", "S5", "--budget-max-states", "1"],
    ],
    ids=["radical", "transposition-sweep", "verify-bs", "verify-bs-sweep",
         "verify-bs-max-states"],
)
def test_subcommands_without_a_search_reject_budget_flags(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_provenance_carries_a_budget_only_for_searches(capsys):
    """Only the commands whose search width is an option record it; the
    pair checks search width 2 and record nothing.  And no report carries a
    seed: nothing is drawn at random."""
    reports = {command: run_json(capsys, *argv)[1] for command, argv in REPEAT_ARGV.items()}
    for command, report in reports.items():
        assert "seed" not in report["inputs"] and "seed" not in report["provenance"]
        searched = command in ("alpha", "beta", "bs-check", "width-table")
        assert list(report["provenance"]) == [
            "package", "version", *(["budget_max_width"] if searched else []), "wall_time_s"
        ], command
    assert reports["alpha"]["provenance"]["budget_max_width"] == 12
    assert reports["transposition-sweep"]["inputs"] == {"r": 7}


@pytest.mark.parametrize("command", list(REPEAT_ARGV))
def test_no_subcommand_takes_a_state_budget(capsys, command):
    """The state bound is the fixed ``width.STATE_CAP``, not an option."""
    with pytest.raises(SystemExit) as exc:
        main([*REPEAT_ARGV[command], "--budget-max-states", "100"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", list(REPEAT_ARGV))
def test_no_subcommand_takes_a_seed(capsys, command):
    """No subcommand draws anything at random, so none takes a seed."""
    with pytest.raises(SystemExit) as exc:
        main([*REPEAT_ARGV[command], "--seed", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_radical_enumerates_the_classes_once(capsys, monkeypatch):
    """pi_radical and the lattice crosscheck share one list of class closures."""
    import piradical.structure as structure

    calls = []
    real = structure.class_representatives

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(structure, "class_representatives", counting)
    code, report = run_json(capsys, "radical", "--group", "S5", "--pi", "2")
    assert code == 0
    assert report["results"][0]["crosscheck"] == "agrees"
    assert len(calls) == 1


def counting_scans_and_closures(monkeypatch) -> list[str]:
    """The names of the class scans and normal closures called from now on."""
    import piradical.structure as structure

    calls = []

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapped

    for name in ("class_representatives", "normal_closure"):
        monkeypatch.setattr(structure, name, counted(name, getattr(structure, name)))
    return calls


@pytest.mark.parametrize(
    "argv, order, scans",
    [
        (["--group", "S8", "--pi", "3,5"], 1, 0),
        (["--group", "S8", "--pi", "2"], 1, 0),
        (["--group", "S9", "--pi", "2"], 1, 0),
        (["--group", "S8", "--pi", "2,3,5,7"], 40_320, 0),
    ],
    ids=["S8-pi-35", "S8-pi-2", "S9-pi-2", "S8-pi-2357"],
)
def test_a_radical_the_orbits_certify_scans_no_class(capsys, monkeypatch, argv, order, scans):
    """No prime of {3,5} divides 8 and 2 does not divide 9, so the orbit
    certificate answers those questions with no class scan and no closure.
    2 divides 8, so the orbit certificate cannot answer O_2(S8); the giant
    certificate does, because S8 is not a 2-group.  S8 is a
    {2,3,5,7}-group, so it is its own radical, again with no scan.  Both
    groups are above the crosscheck's order of 10^4."""
    calls = counting_scans_and_closures(monkeypatch)
    code, report = run_json(capsys, "radical", *argv)
    assert code == 0
    assert report["results"][0]["radical_order_int"] == order
    assert (report["results"][0]["radical_generators"] == []) == (order == 1)
    assert report["results"][0]["crosscheck"] == "skipped"
    assert calls.count("class_representatives") == scans
    if scans == 0:
        assert calls == []


@pytest.mark.parametrize(
    "argv", [["--group", "S10", "--pi", "2"], ["--group", "A12", "--pi", "3,5"]]
)
def test_the_giant_certificate_answers_above_the_scan_cap(capsys, monkeypatch, argv):
    """Sym(10) and Alt(12) are past the 10^6 class-scan cap, and neither is
    a pi-group, so the giant certificate gives the trivial radical with no
    class scanned or closed."""
    calls = counting_scans_and_closures(monkeypatch)
    code, report = run_json(capsys, "radical", *argv)
    assert code == 0
    assert report["results"][0]["radical_order_int"] == 1
    assert report["results"][0]["radical_generators"] == []
    assert report["results"][0]["crosscheck"] == "skipped"
    assert calls == []


def test_a_giant_that_is_a_pi_group_is_its_own_radical_above_the_scan_cap(capsys, monkeypatch):
    """Sym(10) is a {2,3,5,7}-group, so it is its own radical, with its own
    generators, although its order is past the 10^6 class-scan cap: no
    class is scanned or closed."""
    calls = counting_scans_and_closures(monkeypatch)
    code, report = run_json(capsys, "radical", "--group", "S10", "--pi", "2,3,5,7")
    assert code == 0
    result = report["results"][0]
    assert result["radical_order_int"] == 3_628_800
    assert result["radical_generators"] == [
        str(g) for g in group_by_name("S10").generators
    ]
    assert result["crosscheck"] == "skipped"
    assert calls == []


def test_the_crosscheck_order_is_not_an_option(capsys):
    """The lattice crosscheck runs exactly up to order 10^4, a fixed rule
    rather than an input, so the report does not echo it."""
    with pytest.raises(SystemExit) as exc:
        main(["radical", "--group", "S4", "--pi", "2", "--crosscheck-cap", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --crosscheck-cap" in capsys.readouterr().err
    code, report = run_json(capsys, "radical", "--group", "S4", "--pi", "2")
    assert code == 0 and report["inputs"] == {"group": "S4", "pi": "2"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bs-check", "--group", "S4", "--pi", "2", "--m", "0"], "width m must be >= 1, got 0"),
        (["verify-bs", "--group", "S4", "--p", "4"], "p must be prime, got 4"),
    ],
    ids=["bs-check-m-0", "verify-bs-p-4"],
)
def test_the_library_refuses_a_bad_width_or_prime_before_any_scan(
    capsys, monkeypatch, argv, message
):
    """The CLI leaves these checks to bs_membership and baer_suzuki_check,
    which refuse the input before a class is scanned."""
    calls = counting_scans_and_closures(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"error: {message}" in err
    assert calls == []


def test_an_empty_pi_on_the_command_line_is_the_empty_set(capsys, tmp_path):
    """``--pi ""`` is the empty prime set, as a bare ``pi`` line in a spec
    file is: both give the trivial radical and the same report."""
    spec = tmp_path / "s4.spec"
    spec.write_text("name S4\ndegree 4\ngen a (1 2)\ngen b (1 2 3 4)\npi\n", encoding="utf-8")
    code, by_flag = run_json(capsys, "radical", "--group", "S4", "--pi", "")
    assert code == 0
    code, by_spec = run_json(capsys, "radical", "--spec", str(spec))
    assert code == 0
    assert by_flag["results"][0]["radical_order_int"] == 1
    assert by_flag["inputs"]["pi"] == by_spec["inputs"]["pi"] == ""
    assert strip_timing(by_flag) == strip_timing(by_spec)


@pytest.mark.parametrize("n", ["5-", "5-x", "-"])
def test_a_malformed_degree_range_is_reported_as_such(capsys, n):
    """``--n 5-`` is neither read as 5 nor reported as a bare int() error."""
    code, out, err = run(capsys, "width-table", "--n", n, "--r", "3")
    assert code == 2 and out == ""
    assert "--n must be a degree or a range like 5-8" in err


@pytest.mark.parametrize(
    "argv, tables",
    [
        (["verify-bs", "--group", "S7"], 9),
        (["bs-check", "--group", "S7", "--pi", "2,3", "--m", "2", "--find-min"], 11),
        (["radical", "--group", "S8", "--pi", "2"], 0),
    ],
    ids=["verify-bs", "bs-check", "radical"],
)
def test_each_class_table_is_computed_once(capsys, monkeypatch, argv, tables):
    """verify-bs searches S7's 14 classes outside the trivial radical for
    each of 4 primes, and bs-check searches each of the 14 classes outside
    the radical twice (m = 2, then the minimal width).  Only a class whose
    order is a pi-number reads its table: for verify-bs, the 5 + 2 + 1 + 1
    classes of 2-, 3-, 5- and 7-elements; for bs-check, the 11 classes of
    {2,3}-order outside the trivial radical.  The class scan only counts, so
    each table is traced once, on its first read, and no orbit is traced
    through ``conjugation_orbit``."""
    orbits, built = count_class_tracers(monkeypatch)
    code, _ = run_json(capsys, *argv)
    assert code == 0
    assert orbits == []
    assert len(built) == len({tracer.members[0] for tracer in built}) == tables


def count_class_tracers(monkeypatch) -> tuple[list, list]:
    """The calls of ``conjugation_orbit`` from here on, and every class
    tracer constructed, kept so that what each traced can be read."""
    import piradical.structure as structure
    import piradical.width as width

    orbits, built = [], []
    real_orbit = structure.conjugation_orbit

    def counting_orbit(*args, **kwargs):
        orbits.append(args[1])
        return real_orbit(*args, **kwargs)

    class CountingTracer(structure._Tracer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(structure, "conjugation_orbit", counting_orbit)
    monkeypatch.setattr(width, "conjugation_orbit", counting_orbit)
    monkeypatch.setattr(structure, "_Tracer", CountingTracer)
    return orbits, built


def test_find_min_traces_only_what_its_searches_read(capsys, monkeypatch):
    """bs-check on S7 reads the tables of 11 classes of 3,311 members in all.
    The partition model reads the whole class of the 21 transpositions; each
    other search succeeds within its first few conjugates, so its table is
    traced only that far (3 to 6 members).  The reports are those of whole
    tables (``tests/test_report_bytes.py``)."""
    _, built = count_class_tracers(monkeypatch)
    code, _ = run_json(capsys, "bs-check", "--group", "S7", "--pi", "2,3", "--m", "2", "--find-min")
    assert code == 0
    assert sum(tracer.cap for tracer in built) == 3311
    assert sum(len(tracer.members) for tracer in built) == 55


def count_permutations(monkeypatch) -> list[int]:
    """A counter of the Permutation objects built from here on."""
    from piradical.perms import Permutation

    built = [0]
    real = Permutation.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(Permutation, "__init__", counting)
    return built


def test_radical_wraps_only_what_leaves_the_class_scan(capsys, monkeypatch):
    """S8 has 40,320 elements in 22 classes; the scan stays on image tuples."""
    built = count_permutations(monkeypatch)
    code, report = run_json(capsys, "radical", "--group", "S8", "--pi", "2")
    assert code == 0 and report["results"][0]["radical_order_int"] == 1
    assert built[0] < 1000


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-bs", "--group", "S7"],
        ["bs-check", "--group", "S7", "--pi", "2,3", "--m", "2", "--find-min"],
    ],
    ids=["verify-bs", "bs-check"],
)
def test_membership_wraps_only_what_leaves_the_width_engine(capsys, monkeypatch, argv):
    """S7's class tables (up to 840 members each) stay image tuples; only
    chain roots and children, and what a report prints, are wrapped."""
    built = count_permutations(monkeypatch)
    code, _ = run_json(capsys, *argv)
    assert code == 0
    assert built[0] < 1000


def test_width_search_extends_chains_on_image_tuples(capsys, monkeypatch):
    """alpha(Alt(8), (1 2)(3 4)) extends thousands of chains; an extension
    takes and keeps image tuples, so only the edges build Permutations."""
    built = count_permutations(monkeypatch)
    code, report = run_json(capsys, "alpha", "--group", "A8", "--aut", "(1 2)(3 4)")
    assert code == 0 and report["results"][0]["value"] is not None
    assert built[0] < 100


@pytest.mark.parametrize(
    "argv",
    [
        ["beta", "--group", "A5", "--aut", "(1 2)", "--r", str(10**30 + 57)],
        ["radical", "--group", "S4", "--pi", str(10**30 + 57)],
    ],
    ids=["r", "pi"],
)
def test_huge_prime_candidate_is_an_input_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2 and "10^12" in err


def test_pair_scan_past_the_state_budget_exits_three(capsys, monkeypatch):
    """A width-2 search over the pairs <x, y> that passes the state cap
    (``width.STATE_CAP``, lowered here) is not exhaustive: the CLI prints
    it and exits 3."""
    monkeypatch.setattr(width, "STATE_CAP", 1)
    code, report = run_json(
        capsys, "alpha", "--group", "A5", "--aut", "(1 2)(3 4)", "--budget-max-width", "2"
    )
    assert code == 3
    rec = report["results"][0]
    assert rec["exhaustive"] is False and rec["states_visited"] == 2


STATUS_ARGV = {
    "found": ["--group", "A5", "--aut", "(1 2)"],
    # <x^L> is the Klein four-group, a proper normal subgroup of Alt(4)
    "absent": ["--group", "A4", "--aut", "(1 2)(3 4)"],
    "width_budget": ["--group", "A5", "--aut", "(1 2 3)", "--budget-max-width", "1"],
    # under a state cap of 1
    "state_budget": ["--group", "A5", "--aut", "(1 2)(3 4)", "--budget-max-width", "2"],
}


@pytest.mark.parametrize("status", list(STATUS_ARGV))
def test_each_status_through_the_cli(capsys, monkeypatch, status):
    """The record and the summary carry the status; only found and absent
    are exhaustive and exit 0."""
    if status == "state_budget":
        monkeypatch.setattr(width, "STATE_CAP", 1)
    code, report = run_json(capsys, "alpha", *STATUS_ARGV[status])
    certified = status in ("found", "absent")
    assert code == (0 if certified else 3)
    rec, summary = report["results"][0], report["summary"]
    assert rec["status"] == summary["status"] == status
    assert rec["exhaustive"] is summary["exhaustive"] is certified
    assert rec["saturated"] is (status == "absent")
    assert (rec["value"] is not None) == (status == "found")


OVER_THE_CLASS_BUDGET = {
    # command: (argv, the class cap, whether the class over it is the first
    # one searched)
    "alpha": (["alpha", "--group", "A6", "--aut", "(1 2)(3 4)"], 20, True),
    "beta": (["beta", "--group", "A6", "--aut", "(1 2)(3 4)", "--r", "5"], 20, True),
    "width-table": (["width-table", "--n", "5", "--r", "3"], 5, True),
    "bs-check": (["bs-check", "--group", "S6", "--pi", "2,3", "--m", "4"], 6, True),
    "bs-check-find-min": (
        ["bs-check", "--group", "S6", "--pi", "2,3", "--m", "4", "--find-min"], 6, True,
    ),
    "verify-bs": (["verify-bs", "--group", "S5"], 5, True),
}


@pytest.mark.parametrize("case", list(OVER_THE_CLASS_BUDGET))
def test_a_class_over_the_budget_exits_three(capsys, monkeypatch, case):
    """A class larger than ``structure.CLASS_CAP`` (lowered here) is refused
    before it is searched, and nothing is printed: a width over part of a
    class need not be its minimum (S6's (1 5 2 4)(3 6) reads 3 over some
    6-member subsets of its class, but 2 over the whole class)."""
    import piradical.structure as structure
    import piradical.width as width

    argv, cap, first = OVER_THE_CLASS_BUDGET[case]
    monkeypatch.setattr(structure, "CLASS_CAP", cap)
    search = width.min_width_search
    searched = []

    def recording(x, conjugates, *args, **kwargs):
        searched.append(len(conjugates))
        return search(x, conjugates, *args, **kwargs)

    monkeypatch.setattr(width, "min_width_search", recording)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("budget exhausted: the class of") and err.endswith(f" of {cap}\n")
    assert all(size <= cap for size in searched)
    assert (not searched) == first


# S5 x S5 x S5 on 15 points, of order 1,728,000: past the class scan's
# fixed order of 10^6 (``structure.CLASS_SCAN_CAP``)
S5_CUBED_SPEC = """name s5-cubed
degree 15
gen a (1 2)
gen b (1 2 3 4 5)
gen c (6 7)
gen d (6 7 8 9 10)
gen e (11 12)
gen f (11 12 13 14 15)
"""


@pytest.mark.parametrize(
    "argv",
    [["radical", "--pi", "5"], ["bs-check", "--pi", "5", "--m", "2"], ["verify-bs", "--p", "5"]],
    ids=["radical", "bs-check", "verify-bs"],
)
def test_a_group_over_the_class_scan_cap_exits_three(capsys, tmp_path, argv):
    """A group the class scan refuses (:class:`TooLarge`) is a bound that
    was reached, like a class over ``structure.CLASS_CAP``, not bad input:
    it exits 3 with nothing printed."""
    spec = tmp_path / "s5-cubed.spec"
    spec.write_text(S5_CUBED_SPEC, encoding="utf-8")
    code, out, err = run(capsys, *argv, "--spec", str(spec))
    assert (code, out) == (3, "")
    assert "group order 1728000 exceeds cap 1000000" in err


@pytest.mark.parametrize(
    "argv",
    [["verify-bs", "--group", "D4"], ["bs-check", "--group", "D4", "--pi", "2", "--m", "2"]],
    ids=["verify-bs", "bs-check"],
)
def test_no_class_inside_the_radical_is_searched(capsys, monkeypatch, argv):
    """O_2(D4) is D4, so a class cap of 1 refuses none of its classes, not
    even the 2-member class of (1 2 3 4): both commands read the same
    membership records, and a class inside the radical is never searched."""
    import piradical.structure as structure

    monkeypatch.setattr(structure, "CLASS_CAP", 1)
    code, report = run_json(capsys, *argv)
    assert code == 0
    assert [r["in_radical"] for r in report["results"]] == [True] * 5


# -- computed values through the CLI ------------------------------------------


def test_alpha_value_on_five_points(capsys):
    code, report = run_json(capsys, "alpha", "--group", "A5", "--aut", "(1 2)")
    assert code == 0
    rec = report["results"][0]
    assert rec["value"] == 4
    assert rec["revalidated"] is True
    assert rec["exhaustive"] is True


def test_beta_value_on_semilinear_involution(capsys):
    code, report = run_json(
        capsys, "beta", "--group", "A6:pgammal", "--aut", "outer-involution",
        "--r", "3",
    )
    assert code == 0
    rec = report["results"][0]
    assert rec["value"] == 3
    assert rec["socle_order"] == 360 and rec["ambient_order"] == 720


def test_radical_crosscheck_agrees(capsys):
    code, report = run_json(capsys, "radical", "--group", "S4", "--pi", "2")
    assert code == 0
    rec = report["results"][0]
    assert rec["radical_order_int"] == 4
    assert rec["crosscheck"] == "agrees"


def test_bs_check_reports_violation_and_minimum(capsys):
    code, report = run_json(
        capsys, "bs-check", "--group", "S5", "--pi", "2,3", "--m", "3",
        "--find-min",
    )
    assert code == 0  # a diagnosed failure is a successful run
    assert report["summary"]["holds"] is False
    assert report["summary"]["violating_element"] == "(1 2)"
    assert report["summary"]["minimal_m"] == 4
    transposition_rows = [
        r for r in report["results"] if r["representative"] == "(1 2)"
    ]
    assert transposition_rows[0]["violation_width"] is None
    assert transposition_rows[0]["exhaustive"] is True


def test_verify_bs_all_primes(capsys):
    code, report = run_json(capsys, "verify-bs", "--group", "S4")
    assert code == 0
    assert {r["p"] for r in report["results"]} == {2, 3}
    assert report["summary"]["consistent"] is True
    assert all(
        r["in_radical"] == r["all_pairs_p_groups"] for r in report["results"]
    )


def test_verify_bs_sweep_small_cap(capsys):
    code, report = run_json(capsys, "verify-bs-sweep", "--order-cap", "60")
    assert code == 0
    rows = report["results"]
    assert all(r["consistent"] for r in rows)
    assert {r["group"] for r in rows} >= {"S4", "A5", "C12"}
    assert report["summary"]["consistent"] is True
    assert report["summary"]["groups_and_primes"] == len(rows)


def test_verify_bs_sweep_scans_each_group_once(capsys, monkeypatch):
    """PGammaL(2,9) tells its three overgroups of order 720 apart by their
    element-order spectra, read off each group's class data, so the sweep's
    own check of pgl2(9) reads the scan the spectrum made.  The catalog's
    cached groups are built afresh, so no earlier test has scanned them."""
    import functools

    import piradical.catalog as catalog
    import piradical.structure as structure

    for name in ("psl2", "pgl2", "projective_semilinear_9"):
        monkeypatch.setattr(catalog, name, functools.cache(getattr(catalog, name).__wrapped__))
    scan, scanned = structure.class_representatives, []

    def counting(G, *args, **kwargs):
        scanned.append(G)  # kept alive, so no two scanned groups share an id
        return scan(G, *args, **kwargs)

    monkeypatch.setattr(structure, "class_representatives", counting)
    code, _ = run_json(capsys, "verify-bs-sweep", "--order-cap", "2000")
    assert code == 0
    assert len({id(G) for G in scanned}) == len(scanned)
    assert sum(G is catalog.pgl2(9) for G in scanned) == 1


def test_width_table_single_degree(capsys):
    code, report = run_json(capsys, "width-table", "--n", "5", "--r", "3")
    assert code == 0
    rows = report["results"]
    assert all(row["r"] == 3 for row in rows)
    transposition_row = next(r for r in rows if r["aut"] == "(1 2)")
    assert transposition_row["beta"] == 2
    assert transposition_row["expected"] == "= r-1"
    assert all(row["bound_ok"] for row in rows)


def test_width_table_r_above_part_of_the_range_runs_where_it_fits(capsys):
    code, report = run_json(capsys, "width-table", "--n", "5-8", "--r", "7")
    assert code == 0
    rows = report["results"]
    assert rows and {row["socle"] for row in rows} == {"A7", "A8"}
    assert all(row["r"] == 7 for row in rows)


def test_width_table_includes_semilinear_row_at_six(capsys):
    code, report = run_json(
        capsys, "width-table", "--n", "6", "--r", "3", "--include-alpha"
    )
    assert code == 0
    outer = [r for r in report["results"] if r["socle"] == "A6:pgammal"]
    assert outer and outer[0]["beta"] == 3
    assert outer[0]["expected"] == "= 3"
    assert all(
        row["alpha"] is None or row["beta"] <= row["alpha"]
        for row in report["results"]
    )


def test_width_table_computes_alpha_once_per_context(capsys, monkeypatch):
    import piradical.cli as cli

    calls = []
    real_alpha = cli.alpha

    def counting_alpha(ctx, budget):
        calls.append(ctx)
        return real_alpha(ctx, budget)

    monkeypatch.setattr(cli, "alpha", counting_alpha)
    code, report = run_json(capsys, "width-table", "--n", "6", "--include-alpha")
    assert code == 0
    contexts = {(row["socle"], row["aut"]) for row in report["results"]}
    assert len(report["results"]) > len(contexts)  # several r per context
    assert len(calls) == len({id(ctx) for ctx in calls}) == len(contexts)
    assert all(row["alpha"] is not None for row in report["results"])


# -- spec-file input -----------------------------------------------------------


SPEC_TEXT = """\
name five-sym
degree 5
gen a (1 2)
gen b (1 2 3 4 5)
socle a b
aut a
pi 2,3
"""


def test_spec_file_route(capsys, tmp_path):
    spec = tmp_path / "g.spec"
    spec.write_text(SPEC_TEXT, encoding="utf-8")
    code, report = run_json(capsys, "radical", "--spec", str(spec), "--pi", "5")
    assert code == 0
    assert report["results"][0]["radical_order_int"] == 1
    code, report = run_json(capsys, "alpha", "--spec", str(spec))
    assert code == 0
    assert report["results"][0]["socle"] == "five-sym"


def test_group_and_spec_exclude_each_other(capsys, tmp_path):
    """Given both, the CLI refuses rather than answer about one of them."""
    spec = tmp_path / "g.spec"
    spec.write_text(SPEC_TEXT, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["radical", "--group", "A5", "--spec", str(spec), "--pi", "2"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_bad_spec_file_is_an_input_error(capsys, tmp_path):
    spec = tmp_path / "bad.spec"
    spec.write_text("degree 3\ngen a (1 5)\n", encoding="utf-8")
    code, _, err = run(capsys, "radical", "--spec", str(spec), "--pi", "2")
    assert code == 2
    code, _, err = run(capsys, "radical", "--spec", str(tmp_path / "no.spec"), "--pi", "2")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["radical", "--pi", "2"],
        ["alpha", "--aut", "(1 2)"],
        ["beta", "--aut", "(1 2)", "--r", "3"],
        ["bs-check", "--pi", "2,3", "--m", "2"],
        ["verify-bs"],
    ],
    ids=lambda argv: argv[0],
)
def test_the_parser_requires_a_group_or_a_spec(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "one of the arguments --group --spec is required" in err


def test_an_empty_group_name_is_an_unknown_group(capsys):
    code, out, err = run(capsys, "radical", "--group", "", "--pi", "2")
    assert (code, out) == (2, "")
    assert "unknown group name ''" in err


@pytest.mark.parametrize(
    "argv,spec_text,says",
    [
        (["width-table", "--n", "4-8"], None, "--n must lie within"),
        (["width-table", "--n", "10"], None, "--n must lie within"),
        (["width-table", "--n", "5", "--r", "4"], None, "odd primes"),
        (["width-table", "--n", "5", "--r", ""], None, "--r must be"),
        (["width-table", "--n", "5", "--r", "3,x"], None, "--r must be"),
        (["verify-bs", "--group", "C1"], None, ""),
        (["radical", "--group", "S4", "--pi", "2,x"], None, ""),
        (["radical", "--group", "D2", "--pi", "2"], None, ""),
        (["radical", "--group", "S0", "--pi", "2"], None, ""),
        (["alpha", "--group", "A5"], None, "--aut is required"),
        (["alpha", "--group", "A5", "--aut", ""], None, "empty permutation string"),
        (["alpha", "--spec", "{spec}"], SPEC_TEXT.replace("socle a b\n", ""), "no 'socle' line"),
        (["alpha", "--spec", "{spec}"], SPEC_TEXT.replace("aut a\n", ""), "no automorphism"),
        (["alpha", "--spec", "{spec}", "--aut", ""], SPEC_TEXT, "empty permutation string"),
        # the keyword is read as --group reads it, so only its degree is wrong
        (["alpha", "--spec", "{spec}", "--aut", "outer-involution"], SPEC_TEXT, "acts on 10"),
    ],
    ids=[
        "n-below-5", "n-above-9", "r-not-prime", "r-empty", "r-not-a-number", "trivial-group",
        "pi-not-prime", "dihedral-too-small", "symmetric-degree-0", "no-aut", "aut-empty",
        "spec-no-socle", "spec-no-aut", "spec-aut-empty", "spec-aut-keyword",
    ],
)
def test_input_refusals_exit_2_with_nothing_printed(capsys, tmp_path, argv, spec_text, says):
    spec = tmp_path / "g.spec"
    if spec_text is not None:
        spec.write_text(spec_text, encoding="utf-8")
    code, out, err = run(capsys, *(arg.format(spec=spec) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error") and says in err


def test_the_readme_command_lines_parse():
    """Every ``piradical`` line of the README's command block is a valid
    command line, so the documentation cannot drift from the parser."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [part.split("```", 1)[0] for part in readme.split("```sh\n")[1:]]
    lines = [shlex.split(line, comments=True) for b in blocks for line in b.splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["piradical"]]
    assert len(commands) == 8
    for argv in commands:
        build_parser().parse_args(argv)


def test_every_long_option_is_in_the_readme():
    """Each long option of every subcommand (argparse's own ``--help``
    aside) is named in the README, so no option goes undocumented."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (subparsers,) = (
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    options = {
        option: command
        for command, p in subparsers.choices.items()
        for action in p._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert len(subparsers.choices) == 8 and "--budget-max-width" in options
    missing = {o: c for o, c in options.items() if not re.search(rf"{o}(?![\w-])", readme)}
    assert not missing


def test_the_readme_library_quick_start_runs():
    """The README's ``python`` block runs as written, in a fresh interpreter
    on the package source, so a library API change cannot leave it stale."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    blocks = [part.split("```", 1)[0] for part in readme.split("```python\n")[1:]]
    assert len(blocks) == 1
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "-c", blocks[0]], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


# -- output formats --------------------------------------------------------------


def test_text_format_mentions_key_facts(capsys):
    code, out, _ = run(capsys, "alpha", "--group", "A5", "--aut", "(1 2)")
    assert code == 0
    assert "alpha" in out and "4" in out
    assert out.endswith("\n")


def test_json_format_carries_provenance(capsys):
    code, report = run_json(capsys, "radical", "--group", "S4", "--pi", "2")
    assert code == 0
    prov = report["provenance"]
    assert prov["package"] == "piradical"
    assert "wall_time_s" in prov and "seed" not in prov  # radical draws nothing at random
    assert report["experiment"] == "radical"


@pytest.mark.parametrize("command", list(REPEAT_ARGV))
def test_csv_format_matches_json_records(capsys, command):
    """Every CSV cell, and every input and summary line, is csv_cell of the
    JSON value: one renderer serves both formats."""
    code, json_report = run_json(capsys, *REPEAT_ARGV[command])
    assert code in (0, 3)
    code_csv, out, _ = run(capsys, *REPEAT_ARGV[command], "--format", "csv")
    assert code_csv == code
    comments = [l for l in out.splitlines() if l.startswith("#")]
    data_lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert comments == [
        f"# {key}={csv_cell(value)}"
        for key, value in [("experiment", command)]
        + sorted(json_report["inputs"].items())
        + sorted(json_report["summary"].items())
    ]
    rows = list(csv.DictReader(io.StringIO("\n".join(data_lines))))
    assert len(rows) == len(json_report["results"]) > 0
    for row, rec in zip(rows, json_report["results"]):
        assert rec.keys() <= row.keys()
        for key, cell in row.items():
            assert cell == csv_cell(rec.get(key)), (key, cell, rec.get(key))


def test_a_value_of_unknown_type_is_refused():
    """The renderer knows the library's value types and JSON's; anything
    else raises instead of being written some ad hoc way."""
    report = ExperimentReport("x", {}, [{"value": {1, 2}}])
    for fmt in ("json", "csv", "text"):
        with pytest.raises(TypeError, match="set"):
            report.render(fmt)
    with pytest.raises(TypeError):
        csv_cell(object())


@pytest.mark.parametrize("command", list(REPEAT_ARGV))
def test_repeat_runs_are_identical_modulo_timing(capsys, command):
    """Two runs give byte-identical JSON apart from ``wall_time_s``."""
    def once():
        code, out, _ = run(capsys, *REPEAT_ARGV[command], "--format", "json")
        assert code in (0, 3)
        assert json.loads(out)["experiment"] == command
        timed = re.compile(r'"wall_time_s": [0-9.e-]+')
        assert len(timed.findall(out)) == 1
        return timed.sub("", out)

    assert once() == once()


def test_one_parser_serves_every_call(capsys):
    """The parser is built once per process: a call after another
    subcommand, or after a parse error (exit 2), reports what it reports
    alone."""
    first, second = REPEAT_ARGV["width-table"], REPEAT_ARGV["bs-check"]
    reports = [strip_timing(run_json(capsys, *argv)[1]) for argv in (first, second, first)]
    assert reports[0] == reports[2] != reports[1]
    with pytest.raises(SystemExit) as exc:
        main(["width-table", "--n", "5", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert strip_timing(run_json(capsys, *first)[1]) == reports[0]
    assert build_parser() is build_parser()


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "radical", "--group", "S4", "--pi", "2",
        "--format", "json", "--out", str(target),
    )
    assert code == 0 and out == ""
    report = json.loads(target.read_text(encoding="utf-8"))
    assert report["results"][0]["radical_order_int"] == 4


def test_degree_above_256_is_an_input_error(capsys, tmp_path):
    """A point is one byte: a group or spec on more than 256 points is
    refused at once, with a message that names the limit."""
    code, _, err = run(capsys, "radical", "--group", "S257", "--pi", "2")
    assert code == 2 and "limit of 256 points" in err
    spec = tmp_path / "wide.spec"
    spec.write_text("degree 257\ngen a (1 257)\n", encoding="utf-8")
    code, _, err = run(capsys, "radical", "--spec", str(spec), "--pi", "2")
    assert code == 2 and "limit of 256 points" in err


def test_degree_nine_groups_finish(capsys):
    code, report = run_json(capsys, "radical", "--group", "S9", "--pi", "2")
    assert code == 0
    assert report["results"][0]["radical_order_int"] == 1
    code, report = run_json(capsys, "verify-bs", "--group", "A9")
    assert code == 0 and report["summary"]["primes"] == [2, 3, 5, 7]
