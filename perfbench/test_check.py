"""Each check of ``check.py`` can fail: corrupt a real report and it must.

Run from the root of a checkout:  python3 -m pytest perfbench/test_check.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import perm  # noqa: E402
from check import Checker  # noqa: E402
from inputs import (  # noqa: E402
    Question, alternating, group_question, membership_groups, symmetric,
    direct_product, width_questions,
)
from piradical import cli  # noqa: E402

SEED = 7


def answer(q: Question) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(q.argv) == 0
    return json.loads(out.getvalue())


def errors(q: Question, report: dict, rc: int = 0) -> list[str]:
    return Checker().check_round([q], [(rc, json.dumps(report))])


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("specs")


@pytest.fixture(scope="module")
def alpha_3cycle(work):
    """alpha of a 3-cycle over Alt(5): two conjugates generate Alt(5)."""
    (q,) = width_questions(alternating(5), perm.from_cycles([(1, 2, 3)], 5), [], SEED, work)
    return q, answer(q)


@pytest.fixture(scope="module")
def alpha_transposition(work):
    """alpha of a transposition over Alt(5): n - 1 = 4."""
    (q,) = width_questions(alternating(5), perm.from_cycles([(1, 2)], 5), [], SEED, work)
    return q, answer(q)


def test_untouched_reports_pass(work, alpha_3cycle, alpha_transposition):
    for q, report in (alpha_3cycle, alpha_transposition):
        assert errors(q, report) == []
    s3a4 = direct_product(symmetric(3), alternating(4))
    for q in (
        group_question("radical", s3a4, SEED, work, (2,)),
        group_question("bs-check", membership_groups()[0], SEED, work, (2, 3), ["--m", "2", "--find-min"]),
        group_question("verify-bs", membership_groups()[0], SEED, work),
    ):
        assert errors(q, answer(q)) == []


def test_nonzero_exit_is_caught(alpha_3cycle):
    q, report = alpha_3cycle
    assert errors(q, report, rc=3)


def test_changed_member_is_caught(alpha_3cycle):
    q, report = alpha_3cycle
    bad = json.loads(json.dumps(report))
    rec = bad["results"][0]
    n = q.group.degree
    rec["members"][-1] = perm.to_text(perm.compose(perm.parse(rec["members"][-1], n), q.x))
    assert any("is not x conjugated" in e for e in errors(q, bad))


@pytest.mark.parametrize("delta", [-1, 1])
def test_width_off_by_one_is_caught(alpha_3cycle, alpha_transposition, delta):
    for q, report in (alpha_3cycle, alpha_transposition):
        bad = json.loads(json.dumps(report))
        bad["results"][0]["value"] += delta
        assert errors(q, bad)


@pytest.mark.parametrize("delta", [-1, 1])
def test_consistent_width_off_by_one_is_caught(alpha_3cycle, alpha_transposition, delta):
    """The width moves and the members and witnesses move with it: one
    fewer generates too little, one more (x again) is beaten by a shorter
    tuple."""
    for q, report in (alpha_3cycle, alpha_transposition):
        bad = json.loads(json.dumps(report))
        rec = bad["results"][0]
        rec["value"] += delta
        if delta < 0:
            rec["members"].pop()
            rec["witness"].pop()
        else:
            rec["members"].append(perm.to_text(q.x))
            rec["witness"].append("()")
        assert errors(q, bad)


def test_radical_order_times_a_prime_is_caught(work):
    q = group_question("radical", direct_product(symmetric(3), alternating(4)), SEED, work, (2,))
    report = answer(q)
    rec = report["results"][0]
    assert rec["radical_order_int"] == 4  # O_2(S3) = 1, O_2(A4) = V4
    rec["radical_order_int"] *= 3
    rec["radical_order"] = "2^2·3"
    assert any("expected 4" in e for e in errors(q, report))


def test_minimal_m_above_the_bound_is_caught(work):
    q = group_question("bs-check", membership_groups()[0], SEED, work, (2, 3), ["--m", "2", "--find-min"])
    report = answer(q)
    report["summary"]["minimal_m"] = 5  # m({2,3}) = 5 - 1 = 4
    assert any("exceeds m(pi) = 4" in e for e in errors(q, report))


def test_p_group_witness_pair_is_caught(work):
    q = group_question("verify-bs", membership_groups()[0], SEED, work)
    report = answer(q)
    n = q.group.degree
    # an involution's pair for p = 2, replaced by two involutions that
    # generate a 2-group: the involution and itself
    rec = next(
        r for r in report["results"]
        if r["p"] == 2 and r["witness_pair"] and perm.order(perm.parse(r["representative"], n)) == 2
    )
    rec["witness_pair"] = [rec["representative"], rec["representative"]]
    assert any("generates a {2}-group" in e for e in errors(q, report))


def test_witness_from_the_other_class_is_caught(work):
    """A7's 7-cycles form two classes; the other one is the first class
    conjugated by an odd permutation.  Its elements have the same cycle
    type and order, so only the class test tells them apart."""
    a7 = next(g for g in membership_groups() if g.name == "A7")
    q = group_question("bs-check", a7, SEED, work, (2, 3, 5), ["--m", "2", "--find-min"])
    report = answer(q)
    n = q.group.degree
    rec = next(r for r in report["results"] if perm.cycle_type(perm.parse(r["representative"], n)) == (7,))
    assert rec["witness"] == [rec["representative"]]  # 7 is outside pi: width 1
    odd = perm.from_cycles([(1, 2)], n)
    rec["witness"] = [perm.to_text(perm.conjugate(perm.parse(rec["representative"], n), odd))]
    assert any("is not in the G-class" in e for e in errors(q, report))


@pytest.mark.parametrize("width", [1, 2])
def test_class_width_raised_to_three_is_caught(work, width):
    """One class's width goes up to 3, with ``minimal_m`` and ``holds``
    changed to match, so only the per-class checks can see it."""
    q = group_question("bs-check", membership_groups()[0], SEED, work, (2, 3), ["--m", "2", "--find-min"])
    report = answer(q)
    summary = report["summary"]
    rep = next(k for k, v in summary["minimal_m_per_class"].items() if v == width)
    summary["minimal_m_per_class"][rep] = 3
    summary["minimal_m"], summary["holds"] = 3, False
    found = errors(q, report)
    assert any(f"width 3 for {rep}" in e for e in found)
