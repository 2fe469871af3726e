"""The report bytes of the benchmark's questions are pinned.

Every seed-1 question of each workload (``perfbench/inputs.py``, imported
read-only) is run through ``cli.main``, with its spec file written under
the test's temporary directory.  Each report drops
``provenance.wall_time_s`` and ``inputs.spec`` (a temporary path); one
SHA-256 over every (exit code, report) pair, in question order, is
compared with a pinned digest.  A refactor of the program keeps the
digest.  A change that moves a report byte on purpose names the field in
``CHANGES.md`` and re-pins the digest, and so does a benchmark change that
changes the questions.  ``radical-catalog`` runs no width search, but its
reports carry the radicals' generators, which follow the order in which
the class scan meets the representatives; its questions take about as
long as the other two workloads together.
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
    "width-table": "fbc9f67f8753c68a762b069fe6dcfaf0ff57a4828b1b2813302c5e878e016751",
    "membership-bs": "944058670e0225fd7f07fece761ca0ea3c175cf1034893b0c5557855b63d4263",
    "radical-catalog": "468141670dc1eaf8251e2270df70f1118bf47a212a9133c03253509449658c3e",
}


@pytest.mark.parametrize("workload", list(DIGESTS))
def test_the_seed_one_reports_are_pinned(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inputs

    digest = hashlib.sha256()
    for question in inputs.WORKLOADS[workload](1, tmp_path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(question.argv)
        report = json.loads(out.getvalue())
        del report["provenance"]["wall_time_s"]
        report["inputs"].pop("spec", None)
        digest.update(json.dumps([code, report]).encode() + b"\n")
    assert digest.hexdigest() == DIGESTS[workload]
