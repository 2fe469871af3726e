"""The report bytes of the benchmark's questions are pinned.

Every seed-1 question of each workload (``perfbench/inputs.py``, imported
read-only) is run through ``cli.main``, with its spec file written under
the test's temporary directory.  Each report drops
``provenance.wall_time_s`` and ``inputs.spec`` (a temporary path); one
SHA-256 over every (exit code, report) pair, in question order, is
compared with a pinned digest.  A second digest is taken over the same
reports with every ``states_visited`` key removed, so a change that only
prunes the width search more keeps it while the first digest moves.  A
refactor of the program keeps both digests.  A change that moves a report
byte on purpose names the field in ``CHANGES.md`` and re-pins the digest,
and so does a benchmark change that changes the questions.
``radical-catalog`` runs no width search, but its reports carry the
radicals' generators, which follow the order in which the class scan meets
the representatives; its questions take about as long as the other two
workloads together.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from piradical import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

DIGESTS = {
    "width-table": "824c5a31cb1601a4bfe4887047684b3fd2d859078c550f17852e61da362e331e",
    "membership-bs": "6d6538c01ea1edc25452f3049efa6ba44c3cd5dee0d19edb81532fda8bd64e0b",
    "radical-catalog": "8e6eb502bbf41cfd999612d4a1141a5beb22a2718c193b028220b3fb94d2ac82",
}

# the same reports with every ``states_visited`` key removed
MASKED_DIGESTS = {
    "width-table": "e478180c1601c6ffa9b99c4a7e4cc648843308c0c97880dd02195c43c2a07a15",
    "membership-bs": "5a69279436af9047cfd97544d36807290d3678ebd274272d9a884388f434d3a5",
    "radical-catalog": "8e6eb502bbf41cfd999612d4a1141a5beb22a2718c193b028220b3fb94d2ac82",
}


def without_states(value):
    """``value`` with every ``states_visited`` key removed, at any depth."""
    if isinstance(value, dict):
        return {k: without_states(v) for k, v in value.items() if k != "states_visited"}
    if isinstance(value, list):
        return [without_states(v) for v in value]
    return value


@pytest.mark.parametrize("workload", list(DIGESTS))
def test_the_seed_one_reports_are_pinned(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inputs

    digest, masked = hashlib.sha256(), hashlib.sha256()
    for question in inputs.WORKLOADS[workload](1, tmp_path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(question.argv)
        report = json.loads(out.getvalue())
        del report["provenance"]["wall_time_s"]
        report["inputs"].pop("spec", None)
        digest.update(json.dumps([code, report]).encode() + b"\n")
        masked.update(json.dumps([code, without_states(report)]).encode() + b"\n")
    assert masked.hexdigest() == MASKED_DIGESTS[workload]
    assert digest.hexdigest() == DIGESTS[workload]
