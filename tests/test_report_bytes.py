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
    "width-table": "d202b96ce3b46c849fbb26e129a955bbe8cbdb5e7b572be6bc2a6b2afa8850bd",
    "membership-bs": "3d5fe61d1cecf8f42fbdfb86c1121f6cc68c20631fc448667525090f937a83e4",
    "radical-catalog": "c58d022b148e369561b2d57f3979a47f113b4f03b82808c08636ed320156251a",
}

# the same reports with every ``states_visited`` key removed
MASKED_DIGESTS = {
    "width-table": "f4907cf3e3deb7e8f944c40127fef7ac7d4b5e77a8cec707cc6252695c49d81b",
    "membership-bs": "5f0978e9afb2cc64df8569305c4773c70923dfe9e981333cfe002595f4f2506d",
    "radical-catalog": "c58d022b148e369561b2d57f3979a47f113b4f03b82808c08636ed320156251a",
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
