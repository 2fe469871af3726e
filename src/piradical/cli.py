"""Experiment runner: reproducible width/radical computations as reports.

Every subcommand computes the echoed inputs, a flat list of result records
and a summary; :func:`main` wraps them once in an :class:`ExperimentReport`
with provenance (version, the width budget of the subcommands that take it,
wall time) and renders it as text, JSON, or CSV.  Records and summaries
hold the library's values as they are; one renderer writes a permutation,
a factored order or a prime set as its ``str`` (cycle notation, ``2^3·3``,
``2,3``) in every format, so the JSON and CSV renderings of one run carry
identical records.  Nothing is drawn at random, so re-running with the
echoed inputs reproduces the report bit-identically except for the
wall-time field.

A width result (``alpha``, ``beta``, the cells of ``width-table``) carries a
``status``: ``found`` (the value is certified minimal), ``absent`` (no width
at all succeeds), or ``width_budget`` or ``state_budget`` (the width of
``--budget-max-width`` or the fixed 100,000 states of ``width.STATE_CAP``
cut the search short).  Only the first two are ``exhaustive``; the pair
checks take no search option.

Exit codes: 0 success; 1 a verified mathematical invariant failed (an
implementation bug, never an input problem, also when a catalog or spec
self-check fails while the input is read); 2 input/validation errors;
3 budget exhaustion (among it a class over the fixed ``structure.CLASS_CAP``,
refused before any search, and a group too large for a scan it needs,
:class:`TooLarge`, both with nothing printed) or a printed
width result that is not exhaustive.  Subcommands raise; :func:`main` alone
maps an exception to its exit code.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .catalog import (
    alternating_group,
    automorphism_by_name,
    catalog_groups,
    group_by_name,
    load_spec,
    prime_order_class_representatives,
    projective_semilinear_9,
    socle_by_name,
)
from .errors import BudgetExhausted, InvariantViolation, NotAlmostSimple, PiradicalError, TooLarge
from .factored import FactoredInteger, is_prime
from .groups import PermGroup
from .perms import Permutation
from .structure import PrimeSet, is_pi_group, normal_subgroups, pi_radical
from .width import (
    MAX_WIDTH,
    SWEEP_MAX_R,
    AlmostSimpleContext,
    alpha,
    baer_suzuki_check,
    beta,
    bs_membership,
    minimal_membership_width,
    transposition_pi_sweep,
)


# ---------------------------------------------------------------------------
# reports


LIBRARY_VALUES = (Permutation, FactoredInteger, PrimeSet)


def render_value(value) -> str:
    """A library value as a report writes it (the JSON encoder's fallback):
    its ``str``.  Any other type is a ``TypeError``."""
    if isinstance(value, LIBRARY_VALUES):
        return str(value)
    raise TypeError(f"a report cannot hold a {type(value).__name__}")


def csv_cell(value) -> str:
    """Canonical CSV rendering of a record value: None -> empty, booleans in
    JSON spelling, library values by :func:`render_value`, containers as
    compact JSON."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float, str, *LIBRARY_VALUES)):
        return str(value)
    return json.dumps(value, separators=(",", ":"), default=render_value)


@dataclass
class ExperimentReport:
    experiment: str
    inputs: dict
    results: list[dict]
    summary: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "experiment": self.experiment,
                "inputs": self.inputs,
                "summary": self.summary,
                "results": self.results,
                "provenance": self.provenance,
            },
            indent=2,
            default=render_value,
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        for key, value in [("experiment", self.experiment)] + sorted(
            self.inputs.items()
        ) + sorted(self.summary.items()):
            buf.write(f"# {key}={csv_cell(value)}\n")
        header: list[str] = []
        for rec in self.results:
            for k in rec:
                if k not in header:
                    header.append(k)
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for rec in self.results:
            writer.writerow([csv_cell(rec.get(k)) for k in header])
        return buf.getvalue()

    def to_text(self) -> str:
        lines = [f"experiment: {self.experiment}"]
        for k, v in self.inputs.items():
            lines.append(f"  {k} = {csv_cell(v)}")
        if self.summary:
            lines.append("summary:")
            for k, v in self.summary.items():
                lines.append(f"  {k} = {csv_cell(v)}")
        if self.results:
            lines.append(f"records ({len(self.results)}):")
            for rec in self.results:
                lines.append(
                    "  " + "  ".join(f"{k}={csv_cell(v)}" for k, v in rec.items())
                )
        prov = ", ".join(f"{k}={csv_cell(v)}" for k, v in self.provenance.items())
        lines.append(f"provenance: {prov}")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        text = {"json": self.to_json, "csv": self.to_csv, "text": self.to_text}[fmt]()
        return text if text.endswith("\n") else text + "\n"


def _provenance(args, t0: float) -> dict:
    """Package, the width budget (for subcommands that take one) and wall
    time."""
    prov = {"package": "piradical", "version": __version__}
    if hasattr(args, "budget_max_width"):
        prov["budget_max_width"] = args.budget_max_width
    prov["wall_time_s"] = round(time.monotonic() - t0, 3)
    return prov


# ---------------------------------------------------------------------------
# shared flag groups and input resolution


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", type=str, default=None, help="write the report to a file")


def _width(text: str) -> int:
    """A ``--budget-max-width`` value: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget-max-width", type=_width, default=MAX_WIDTH)


def _add_group_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--group", help="catalog name: S5, A6, D8, psl2(7), pgammal2(9), ...")
    g.add_argument("--spec", help="path to a group-spec file")


def _resolve_group(args) -> tuple[str, PermGroup, "object"]:
    """(name, group, spec-or-None)."""
    if args.spec is not None:
        spec = load_spec(args.spec)
        return spec.name, spec.group(), spec
    return args.group, group_by_name(args.group), None


def _resolve_context(args) -> tuple[str, AlmostSimpleContext]:
    """Any given ``--aut`` is read by :func:`automorphism_by_name`; only an
    absent one falls back to a spec's ``aut`` line."""
    if args.spec is not None:
        spec = load_spec(args.spec)
        name, socle, aut = spec.name, spec.socle(), spec.aut()
        if socle is None:
            raise ValueError(f"{args.spec} has no 'socle' line")
        if args.aut is None and aut is None:
            raise ValueError("no automorphism: pass --aut or add an 'aut' line")
    else:
        if args.aut is None:
            raise ValueError("--aut is required with --group")
        name, socle = args.group, socle_by_name(args.group)
    if args.aut is not None:
        aut = automorphism_by_name(args.aut, socle.degree)
    return name, AlmostSimpleContext.build(socle, aut)


def _resolve_pi(args, spec) -> PrimeSet:
    if args.pi is not None:
        return PrimeSet.parse(args.pi)
    if spec is not None and spec.pi is not None:
        return spec.pi
    raise ValueError("--pi is required (or a 'pi' line in the spec file)")


# ---------------------------------------------------------------------------
# subcommands: each returns its report's fields (inputs, results, summary)
# and its exit code; main wraps them in the report


# `radical` checks its answer against the normal-subgroup lattice up to this
# group order and reports the crosscheck as `skipped` above it.  The fixed
# order is the benchmark checker's (perfbench/check.py pins the same value);
# a certificate from the theorem's own witnesses is to replace the lattice.
CROSSCHECK_CAP = 10_000


def cmd_radical(args) -> tuple[dict, int]:
    name, G, spec = _resolve_group(args)
    pi = _resolve_pi(args, spec)
    radical = pi_radical(G, pi)
    crosscheck = "skipped"
    if G.order_int <= CROSSCHECK_CAP:
        # independent route: the largest pi-member of the full normal
        # subgroup lattice must be the radical itself
        lattice = normal_subgroups(G)
        best = max((N for N in lattice if is_pi_group(N, pi)), key=lambda N: N.order_int)
        if not best.same_group_as(radical):
            raise InvariantViolation(
                f"radical(order {radical.order_int}) disagrees with the normal-"
                f"subgroup lattice maximum (order {best.order_int})"
            )
        crosscheck = "agrees"
    return dict(
        inputs={"group": name, "pi": pi},
        results=[
            {
                "group": name,
                "group_order": G.order_int,
                "pi": pi,
                "radical_order": radical.order,
                "radical_order_int": radical.order_int,
                "radical_generators": radical.generators,
                "crosscheck": crosscheck,
            }
        ],
        summary={"radical_order_int": radical.order_int},
    ), 0


WIDTH_RECORD_KEYS = (
    "value", "witness", "members", "certificate_order", "explored_width",
    "status", "saturated", "exhaustive", "states_visited",
)


def cmd_width(args) -> tuple[dict, int]:
    """``alpha``, or ``beta`` with ``--r``; exits 3 unless the result is
    exhaustive."""
    name, ctx = _resolve_context(args)
    with_r = args.command == "beta"
    width = args.budget_max_width
    res = beta(ctx, args.r, width) if with_r else alpha(ctx, width)
    record = {
        "socle": name,
        "socle_order": ctx.socle.order_int,
        "ambient_order": ctx.ambient.order_int,
        "aut": ctx.element,
        "class_size": len(ctx.conjugates),
        **({"r": args.r} if with_r else {}),
        **{key: getattr(res, key) for key in WIDTH_RECORD_KEYS},
        "revalidated": res.revalidate() if res.value is not None else None,
    }
    return dict(
        inputs={
            "group": args.group,
            "spec": args.spec,
            "aut": args.aut,
            **({"r": args.r} if with_r else {}),
        },
        results=[record],
        summary={"value": res.value, "status": res.status, "exhaustive": res.exhaustive},
    ), 0 if res.exhaustive else 3


def cmd_bs_check(args) -> tuple[dict, int]:
    name, G, spec = _resolve_group(args)
    pi = _resolve_pi(args, spec)
    res = bs_membership(G, pi, args.m)
    summary = {
        "holds": res.holds,
        "m": args.m,
        "violating_element": res.violating_element,
        "radical_order": res.radical_order,
        "exhaustive": res.exhaustive,
    }
    if args.find_min:
        m_min, per_rep = minimal_membership_width(G, pi, args.budget_max_width)
        summary["minimal_m"] = m_min
        summary["minimal_m_per_class"] = {str(rep): w for rep, w in per_rep}
    return dict(
        inputs={"group": name, "pi": pi, "m": args.m},
        results=[dict(vars(r)) for r in res.records],
        summary=summary,
    ), 0


def cmd_transposition_sweep(args) -> tuple[dict, int]:
    rep = transposition_pi_sweep(args.r)
    return dict(
        inputs={"r": args.r},
        results=[
            {
                "r": rep.r,
                "pi": rep.pi,
                "subset_width": rep.r - 2,
                "subsets_checked": rep.subsets_checked,
                "all_small_subsets_pi": rep.all_small_subsets_pi,
                "witness_subset": rep.witness_subset,
                "witness_order": rep.witness_order,
                "radical_order": rep.radical_order,
                "crosschecks": rep.crosschecks,
                "exhaustive": rep.exhaustive,
                "implied_lower_bound": rep.implied_lower_bound,
            }
        ],
        summary={
            "all_small_subsets_pi": rep.all_small_subsets_pi,
            "exhaustive": rep.exhaustive,
            "implied_lower_bound": rep.implied_lower_bound,
        },
    ), 0


def _parse_n_range(text: str) -> list[int]:
    try:
        lo, hi = map(int, text.split("-", 1)) if "-" in text else (int(text),) * 2
    except ValueError:
        raise ValueError(f"--n must be a degree or a range like 5-8, got {text!r}") from None
    if not 5 <= lo <= hi <= 9:
        raise ValueError(f"--n must lie within 5..9, got {text!r}")
    return list(range(lo, hi + 1))


def cmd_width_table(args) -> tuple[dict, int]:
    """Exits 1 on a bound violation, else 3 when a cell has no beta or a
    printed alpha or beta is not exhaustive."""
    width = args.budget_max_width
    ns = _parse_n_range(args.n)
    try:
        r_given = None if args.r is None else [int(tok) for tok in args.r.split(",")]
    except ValueError:
        raise ValueError(f"--r must be comma-separated odd primes, got {args.r!r}") from None
    if r_given is not None:
        for r in r_given:
            if not is_prime(r) or r == 2:
                raise ValueError(f"--r entries must be odd primes, got {r}")
            if r > ns[-1]:
                raise ValueError(f"--r entry {r} exceeds every degree in --n {args.n}")
        if len(set(r_given)) != len(r_given):
            raise ValueError(f"--r entries must be distinct, got {args.r}")
    records: list[dict] = []
    any_uncertified = False
    any_violation = False

    def context(socle: PermGroup, x: Permutation) -> AlmostSimpleContext:
        """A catalog context; one that is not almost simple is a bug here."""
        try:
            return AlmostSimpleContext.build(socle, x)
        except NotAlmostSimple as e:
            raise InvariantViolation(f"catalog context: {e}") from e

    def run_cell(label: str, ctx: AlmostSimpleContext, r: int, expected: str, a) -> None:
        nonlocal any_uncertified, any_violation
        res = beta(ctx, r, width)
        if res.value is None or not res.exhaustive or (a is not None and not a.exhaustive):
            any_uncertified = True
        if res.value is None:
            ok = None
        elif expected == "eq-r-1":
            ok = res.value == r - 1
        elif expected == "eq-3":
            ok = res.value == 3
        else:
            ok = res.value <= r - 1
        if ok is False:
            any_violation = True
        rec = {
            "socle": label,
            "aut": ctx.element,
            "aut_order": ctx.element.order(),
            "r": r,
            "beta": res.value,
            "expected": {"eq-r-1": "= r-1", "eq-3": "= 3", "le-r-1": "<= r-1"}[
                expected
            ],
            "bound_ok": ok,
            "exhaustive": res.exhaustive,
            "witness": res.witness,
            "certificate_order": res.certificate_order,
        }
        if a is not None:
            rec["alpha"] = a.value
            if res.value is not None and a.value is not None and res.value > a.value:
                raise InvariantViolation(
                    f"beta {res.value} exceeds alpha {a.value} for {label}, "
                    f"x={ctx.element}, r={r}"
                )
        records.append(rec)

    for n in ns:
        socle = alternating_group(n)
        r_list = r_given if r_given is not None else [
            p for p in range(3, n + 1) if is_prime(p)
        ]
        r_list = [r for r in r_list if r <= n]
        # alpha does not depend on r: once per context
        for x, p, _k in prime_order_class_representatives(n):
            ctx = context(socle, x)
            a = alpha(ctx, width) if args.include_alpha and r_list else None
            for r in r_list:
                expected = "eq-r-1" if x.is_transposition() else "le-r-1"
                run_cell(f"A{n}", ctx, r, expected, a)
        if n == 6:
            pg = projective_semilinear_9()
            ctx = context(pg.socle, pg.involution_outside_s6)
            rs = [r for r in r_list if r in (3, 5)]
            a = alpha(ctx, width) if args.include_alpha and rs else None
            for r in rs:
                run_cell("A6:pgammal", ctx, r, "eq-3" if r == 3 else "le-r-1", a)

    if any_violation:
        code = 1
    else:
        code = 3 if any_uncertified else 0
    return dict(
        inputs={
            "n": args.n,
            "r": args.r,
            "include_alpha": args.include_alpha,
        },
        results=records,
        summary={
            "cells": len(records),
            "violations": sum(1 for rec in records if rec["bound_ok"] is False),
            "unknown": sum(1 for rec in records if rec["bound_ok"] is None),
        },
    ), code


def cmd_verify_bs(args) -> tuple[dict, int]:
    name, G, spec = _resolve_group(args)
    primes = [args.p] if args.p is not None else sorted(G.order.prime_support)
    if not primes:
        raise ValueError("the trivial group has no primes to verify")
    records: list[dict] = []
    for p in primes:
        res = baer_suzuki_check(G, p)
        for r in res.records:
            w = r.witness
            records.append(
                {
                    "group": name,
                    "p": p,
                    "representative": r.representative,
                    "in_radical": r.in_radical,
                    "all_pairs_p_groups": w is None,
                    "witness_pair": (w[0], w[-1]) if w else None,
                    "witness_order": r.witness_order,
                    "radical_order": res.radical_order,
                }
            )
    return dict(
        inputs={"group": name, "p": args.p},
        results=records,
        summary={"consistent": True, "primes": primes},
    ), 0


def cmd_verify_bs_sweep(args) -> tuple[dict, int]:
    if args.order_cap < 2:
        raise ValueError(f"--order-cap must be >= 2 (C2 has order 2), got {args.order_cap}")
    records: list[dict] = []
    for entry in catalog_groups(max_order=args.order_cap):
        G = entry.group
        if G.order_int == 1:
            continue
        for p in sorted(G.order.prime_support):
            res = baer_suzuki_check(G, p)
            records.append(
                {
                    "group": entry.name,
                    "order": G.order_int,
                    "p": p,
                    "classes_checked": len(res.records),
                    "radical_order": res.radical_order,
                    "consistent": True,
                }
            )
    return dict(
        inputs={"order_cap": args.order_cap},
        results=records,
        summary={"groups_and_primes": len(records), "consistent": True},
    ), 0


# ---------------------------------------------------------------------------
# parser assembly


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared by every later
    one: ``parse_args`` keeps no state between calls, and building it costs
    more than answering a small question."""
    parser = argparse.ArgumentParser(
        prog="piradical",
        description="Exact width and radical experiments on small permutation groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("radical", help="largest normal subgroup with order support in pi")
    _add_group_flags(p)
    p.add_argument("--pi", help='prime set: "2,3" or "all-except:5"')
    _add_output_flags(p)
    p.set_defaults(func=cmd_radical)

    p = sub.add_parser("alpha", help="minimal conjugates of --aut generating <socle, aut>")
    _add_group_flags(p)
    p.add_argument("--aut", help='cycles like "(1 2)", or outer-involution / field-involution')
    _add_budget_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_width)

    p = sub.add_parser(
        "beta", help="minimal conjugates of --aut generating order divisible by --r"
    )
    _add_group_flags(p)
    p.add_argument("--aut", help='cycles like "(1 2)", or outer-involution / field-involution')
    p.add_argument("--r", type=int, required=True, help="a prime")
    _add_budget_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_width)

    p = sub.add_parser(
        "bs-check", help="does width m separate the radical from its complement?"
    )
    _add_group_flags(p)
    p.add_argument("--pi", help='prime set: "2,3" or "all-except:5"')
    p.add_argument("--m", type=int, required=True)
    p.add_argument(
        "--find-min",
        action="store_true",
        help="also compute the least m for which the test holds",
    )
    _add_budget_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_bs_check)

    p = sub.add_parser(
        "transposition-sweep",
        help="sweep (r-2)-subsets of transpositions of Sym(r) for pi = primes below r",
    )
    p.add_argument("--r", type=int, required=True, help=f"a prime from 3 to {SWEEP_MAX_R}")
    _add_output_flags(p)
    p.set_defaults(func=cmd_transposition_sweep)

    p = sub.add_parser(
        "width-table",
        help="tabulate beta over prime-order class representatives for Alt(n) socles",
    )
    p.add_argument("--n", required=True, help='degree or range: "6" or "5-8"')
    p.add_argument("--r", help='comma-separated odd primes; default: all odd primes <= n')
    p.add_argument("--include-alpha", action="store_true")
    _add_budget_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_width_table)

    p = sub.add_parser(
        "verify-bs", help="pairwise-generation criterion for the p-radical, one group"
    )
    _add_group_flags(p)
    p.add_argument("--p", type=int, default=None, help="a prime; default: all dividing |G|")
    _add_output_flags(p)
    p.set_defaults(func=cmd_verify_bs)

    p = sub.add_parser(
        "verify-bs-sweep",
        help="pairwise-generation criterion across the whole catalog",
    )
    p.add_argument("--order-cap", type=int, default=2000)
    _add_output_flags(p)
    p.set_defaults(func=cmd_verify_bs_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    try:
        fields, code = args.func(args)
        report = ExperimentReport(
            args.command, **fields, provenance=_provenance(args, t0)
        )
        text = report.render(args.format)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        return code
    except (BudgetExhausted, TooLarge) as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return 3
    except InvariantViolation as e:
        print(f"INVARIANT VIOLATION (implementation bug): {e}", file=sys.stderr)
        return 1
    except (PiradicalError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
