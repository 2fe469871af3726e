"""piradical benchmark: ask the CLI its three questions and check every answer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload width-table --seed 1 --seconds 30 --trace 0

One run takes the set-up samples, then answers the workload's questions in
whole rounds, at least one, while the next round would end within
``--seconds`` (judged by the slowest round so far), and checks every report
of every round with ``check.py``.  Each question is one call of
``piradical.cli.main(argv)`` in this process, with ``--format json`` and the
report captured, after a short reference loop that tells how fast the
machine is running at that moment; question times are reported in units of
that loop, and set-up times in seconds at the loop's reference speed.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones (``spans.py``) with
``--trace 1``.  The exit code is 0 only when every answer checks out.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import check
import inputs
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
REFERENCE_LOOPS = 30_000
REFERENCE_S = 0.002  # the reference speed: set-up seconds as if the loop took this long
SETUP_REFERENCES = 10  # reference loops on each side of a set-up sample
WINDOW = 10  # a question's speed: reference times of this many questions on each side


def reference_time() -> float:
    """Time of a fixed pure-Python loop that touches nothing of piradical:
    how fast the machine runs Python code at this moment."""
    acc = 0
    start = perf_counter()
    for i in range(REFERENCE_LOOPS):
        acc += i * i
    return perf_counter() - start


def in_reference_units(times: list[float], refs: list[float]) -> list[float]:
    """Each question's time divided by the median reference time of the
    questions around it, so a slow spell of the machine cancels out."""
    return [t / statistics.median(refs[max(0, i - WINDOW) : i + WINDOW + 1])
            for i, t in enumerate(times)]


def import_piradical() -> float:
    """Import the package, ``piradical.factored`` (and with it sympy) first,
    and return how long that first part took."""
    spec = importlib.util.find_spec("piradical")
    package = importlib.util.module_from_spec(spec)
    sys.modules["piradical"] = package
    start = perf_counter()
    importlib.import_module("piradical.factored")
    factored_s = perf_counter() - start
    spec.loader.exec_module(package)
    importlib.import_module("piradical.cli")
    return factored_s


def set_up(workload: str, seed: int) -> tuple[list[float], list]:
    """([set-up seconds, reference seconds, factored import seconds],
    questions): the import, then the inputs, from a process that has not
    imported piradical, between reference loops that tell how fast the
    machine ran meanwhile."""
    refs = [reference_time() for _ in range(SETUP_REFERENCES)]
    start = perf_counter()
    factored_s = import_piradical()
    questions = inputs.WORKLOADS[workload](seed, OUT / f"specs-{workload}-{seed}")
    setup_s = perf_counter() - start
    refs += [reference_time() for _ in range(SETUP_REFERENCES)]
    return [setup_s, statistics.median(refs), factored_s], questions


def set_up_in_child(workload: str, seed: int) -> list[float]:
    """One set-up sample from a forked copy of this process, taken before
    this process imports piradical, so every sample starts from the same
    state.  The child only imports and prepares; it answers nothing."""
    read_end, write_end = os.pipe()
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            sample, _ = set_up(workload, seed)
            os.write(write_end, json.dumps(sample).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not data:
        raise RuntimeError("a set-up sample failed")
    return json.loads(data)


def ask(cli, argv: list[str]) -> tuple[int, float, str]:
    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, perf_counter() - start, out.getvalue()


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(inputs.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "piradical" / "__init__.py").is_file():
        print(f"error: no piradical sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    trace = bool(args.trace)
    OUT.mkdir(exist_ok=True)

    samples = [set_up_in_child(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    sample, questions = set_up(args.workload, args.seed)
    samples.append(sample)

    import piradical
    import piradical.cli as cli

    tracer = None
    if trace:
        tracer = spans.Tracer()
        spans.install(tracer, piradical)

    checker = check.Checker()
    walls: list[float] = []
    latencies: list[list[float]] = []  # per round, one per question
    references: list[list[float]] = []  # per round, one before each question
    layer_rounds: list[dict] = []
    attempted = failed = 0
    errors: list[str] = []
    while True:
        if tracer:
            tracer.reset()
        answers, times, refs = [], [], []
        start = perf_counter()
        for q in questions:
            refs.append(reference_time())
            rc, dt, text = ask(cli, q.argv)
            answers.append((rc, text))
            times.append(dt)
        walls.append(perf_counter() - start)
        latencies.append(times)
        references.append(refs)
        if len(walls) == 1:
            # read before any checking, so the checker's own memory is not counted
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            layer_rounds.append(tracer.metrics())
            if len(layer_rounds) == 1:
                tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        attempted += len(questions)
        failed += sum(1 for rc, _ in answers if rc != 0)
        errors += checker.check_round(questions, answers)
        if errors or sum(walls) + max(walls) > args.seconds:
            break

    if trace:
        metrics = spans.median_metrics(layer_rounds)
        metrics["factored.import_s"] = statistics.median(f for _, _, f in samples)
        units = spans.PER_LAYER
    else:
        # a question's time is its median over the rounds
        typical = [statistics.median(ts) for ts in zip(*map(in_reference_units, latencies, references))]
        metrics = {
            # seconds at the reference speed, as for the question times
            "setup_s": statistics.median(s / ref for s, ref, _ in samples) * REFERENCE_S,
            "wall_ref": sum(typical),
            "answer_p50_ref": statistics.median(typical),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "wall_ref": "ref", "answer_p50_ref": "ref", "peak_rss_mb": "MB"}
    seconds = [statistics.median(ts) for ts in zip(*latencies)]
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "questions": len(questions), "rounds": len(walls), "round_walls_s": walls,
        "wall_s": sum(seconds), "answer_p50_s": statistics.median(seconds),
        "setup_s": statistics.median(s for s, _, _ in samples),
        "setup_samples": samples, "latencies_s": latencies, "reference_s": references,
        "errors": errors[:50],
    }
    (OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8"
    )
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
