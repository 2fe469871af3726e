"""Independent checks of piradical's reports.

Every fact a report is compared with is computed here, from the generators
the benchmark handed to the program, with this directory's own permutation
arithmetic and closure (``perm``), or is a property the answer must have
by a theorem.  Nothing here imports piradical, and nothing is compared with
a stored copy of an earlier run.  Ground truth (group elements, brute-force
scans) is cached per process, so later rounds of a run check their reports
against the same facts at little cost.
"""

from __future__ import annotations

import itertools
import json
import math

import perm
from inputs import Group, Question, prime_support

CROSSCHECK_CAP = 10_000  # `piradical radical` runs its lattice crosscheck up to this order


def factored_value(text: str) -> int:
    """Value of piradical's factored notation, e.g. ``2^3·3·5``."""
    if text == "1":
        return 1
    value = 1
    for part in text.split("·"):
        p, _, e = part.partition("^")
        value *= int(p) ** int(e or 1)
    return value


def is_pi_number(n: int, pi) -> bool:
    return all(p in pi for p in prime_support(n))


def describe(q: Question) -> str:
    """The question as a command line, with the group's name for its spec file."""
    args = [a for a in q.argv[1:-2] if a != "--spec" and not a.endswith(".spec")]
    return " ".join([q.argv[0]] + ([q.group.name] if q.group else []) + args)


def least_prime_outside(pi) -> int:
    r = 2
    while r in pi or any(r % d == 0 for d in range(2, r)):
        r += 1
    return r


def membership_bound(pi) -> int:
    """m(pi) from the paper's main theorem: with r the least prime outside
    pi, width r settles membership in O_pi when r is 2 or 3, and r - 1
    when r >= 5."""
    r = least_prime_outside(pi)
    return r if r <= 3 else r - 1


class Checker:
    def __init__(self):
        self._closures: dict[tuple, frozenset] = {}
        self._orders: dict[tuple, int] = {}
        self._classes: dict[tuple, frozenset] = {}
        self._brute: dict[tuple, str | None] = {}
        self._factor_radicals: dict[tuple, int] = {}
        self._checks = {
            "alpha": self._width, "beta": self._width, "radical": self._radical,
            "bs-check": self._bs_check, "verify-bs": self._verify_bs,
            "transposition-sweep": self._transposition_sweep,
        }

    def elements(self, gens, degree: int) -> frozenset:
        key = (degree, tuple(sorted(set(gens))))
        if key not in self._closures:
            self._closures[key] = perm.closure(key[1], degree)
        return self._closures[key]

    def membership(self, gens, degree: int):
        """Membership test for the group the generators generate.  The only
        subgroup of Sym(n) of order n!/2 is Alt(n), where parity decides;
        other groups are looked up in their closure."""
        if 2 * self.order(gens, degree) == math.factorial(degree):
            return perm.is_even
        return self.elements(gens, degree).__contains__

    def conjugacy_class(self, gens, x) -> frozenset:
        key = (tuple(sorted(set(gens))), x)
        if key not in self._classes:
            self._classes[key] = perm.conjugacy_class(x, key[0])
        return self._classes[key]

    def order(self, gens, degree: int) -> int:
        key = (degree, tuple(sorted(set(gens))))
        if key not in self._orders:
            self._orders[key] = len(self._closures.get(key) or perm.closure(key[1], degree))
        return self._orders[key]

    # -- one round ---------------------------------------------------------

    def check_round(self, questions: list[Question], answers: list[tuple[int, str]]) -> list[str]:
        """Errors found in one round's answers; empty when all are right."""
        errors: list[str] = []
        widths: dict[str, dict] = {}
        for q, (rc, text) in zip(questions, answers):
            where = describe(q)
            if rc != 0:
                errors.append(f"{where}: exit code {rc}")
                continue
            try:
                report = json.loads(text)
                found = self._checks[q.kind](q, report)
            except (KeyError, IndexError, TypeError, ValueError) as e:
                found = [f"unreadable report ({type(e).__name__}: {e})"]
            errors += [f"{where}: {msg}" for msg in found]
            if q.kind in ("alpha", "beta") and not found:
                widths.setdefault(q.context, {})[q.r or "alpha"] = report["results"][0]["value"]
        for context, values in widths.items():
            a = values.get("alpha")
            for r, b in values.items():
                if r != "alpha" and a is not None and b > a:
                    errors.append(f"{context}: beta_{r} = {b} exceeds alpha = {a}")
        return errors

    # -- width-table -------------------------------------------------------

    def _width(self, q: Question, report: dict) -> list[str]:
        rec = report["results"][0]
        L, x, n, r = q.group, q.x, q.group.degree, q.r
        errs = []
        if rec["exhaustive"] is not True or rec["revalidated"] is not True:
            return [f"exhaustive={rec['exhaustive']} revalidated={rec['revalidated']}"]
        value = rec["value"]
        socle, in_socle = self.order(L.gens, n), self.membership(L.gens, n)
        if 2 * socle == math.factorial(n):
            # L is Alt(n), so <L, x> is Sym(n) exactly when x is odd
            ambient = socle * (1 if perm.is_even(x) else 2)
        else:
            ambient = self.order(L.gens + (x,), n)
        if (rec["socle_order"], rec["ambient_order"]) != (socle, ambient):
            errs.append(f"orders {rec['socle_order']}, {rec['ambient_order']} != {socle}, {ambient}")
        members = [perm.parse(m, n) for m in rec["members"]]
        witnesses = [perm.parse(w, n) for w in rec["witness"]]
        if not len(members) == len(witnesses) == value:
            errs.append(f"{len(members)} members, {len(witnesses)} witnesses for width {value}")
        for m, w in zip(members, witnesses):
            if m != perm.conjugate(x, w):
                errs.append(f"member {perm.to_text(m)} is not x conjugated by {perm.to_text(w)}")
            if not in_socle(w):
                errs.append(f"witness {perm.to_text(w)} is not in the socle")
        H = self.order(members, n)
        if q.kind == "alpha" and H != ambient:
            errs.append(f"members generate order {H}, not |<L, x>| = {ambient}")
        if q.kind == "beta" and H % r:
            errs.append(f"members generate order {H}, not divisible by {r}")
        if factored_value(rec["certificate_order"]) != H:
            errs.append(f"certificate order {rec['certificate_order']} != {H}")
        s, xo = perm.support_size(x), perm.order(x)
        if q.kind == "alpha":
            if xo == 2 and value < 3:
                errs.append(f"alpha = {value} < 3 for an involution")
            if value < math.ceil((n - 1) / (s - 1)):
                errs.append(f"alpha = {value} below the orbit bound ceil(({n}-1)/({s}-1))")
            if perm.cycle_type(x) == (2,) and value != n - 1:
                errs.append(f"alpha = {value} for a transposition of degree {n}")
        else:
            if (value == 1) != (xo % r == 0):
                errs.append(f"beta_{r} = {value} but |x| = {xo}")
            if perm.cycle_type(x) == (2,) and value != r - 1:
                errs.append(f"beta_{r} = {value} for a transposition")
        if n <= 6:
            shorter = self._brute_force(q, ambient, value - 1)
            if shorter is not None:
                errs.append(f"width {value - 1} already works: {shorter}")
        return errs

    def _brute_force(self, q: Question, ambient: int, width: int) -> str | None:
        """A tuple of ``width`` conjugates of x, x first, that meets the
        question's predicate, or None.  Repeated entries add nothing, so
        distinct conjugates suffice."""
        key = (q.context, q.r, width)
        if key not in self._brute:
            L, x, n = q.group, q.x, q.group.degree
            conj = sorted({perm.conjugate(x, g) for g in self.elements(L.gens, n)} - {x})
            found = None
            tuples = itertools.combinations(conj, width - 1) if width >= 1 else ()
            for rest in tuples:
                order = len(perm.closure((x,) + rest, n))
                if (order == ambient) if q.kind == "alpha" else (order % q.r == 0):
                    found = " ".join(perm.to_text(y) for y in (x,) + rest)
                    break
            self._brute[key] = found
        return self._brute[key]

    # -- radical-catalog ---------------------------------------------------

    def expected_radical(self, G: Group, pi) -> int:
        """|O_pi(G)|.  A catalog group's nontrivial normal subgroups all
        contain a nonabelian simple socle whose order has every prime of
        |G|, so its radical is G or 1.  A direct product's radical is the
        product of its factors' radicals."""
        if not G.factors:
            return self.order(G.gens, G.degree) if is_pi_number(G.order, pi) else 1
        return math.prod(self.factor_radical(f, pi) for f in G.factors)

    def factor_radical(self, F: Group, pi) -> int:
        """|O_pi(F)| by brute force: the join of the normal closures of
        elements whose normal closure is a pi-group."""
        key = (F.name, tuple(sorted(p for p in pi if F.order % p == 0)))
        if key not in self._factor_radicals:
            elems = self.elements(F.gens, F.degree)
            kept = []
            for x in elems:
                cls = {perm.conjugate(x, g) for g in elems}
                if is_pi_number(len(perm.closure(cls, F.degree)), pi):
                    kept.append(x)
            self._factor_radicals[key] = len(perm.closure(kept, F.degree))
        return self._factor_radicals[key]

    def _radical(self, q: Question, report: dict) -> list[str]:
        rec = report["results"][0]
        G, n = q.group, q.group.degree
        errs = []
        order = self.order(G.gens, n)
        if rec["group_order"] != order:
            errs.append(f"group order {rec['group_order']} != {order}")
        got = rec["radical_order_int"]
        if factored_value(rec["radical_order"]) != got:
            errs.append(f"radical order {rec['radical_order']} != {got}")
        want = self.expected_radical(G, q.pi)
        if got != want:
            errs.append(f"radical order {got}, expected {want}")
        gens = [perm.parse(g, n) for g in rec["radical_generators"]]
        R = perm.closure(gens, n)
        if len(R) != got:
            errs.append(f"radical generators close to order {len(R)}, not {got}")
        if any(perm.conjugate(h, g) not in R for h in gens for g in G.gens):
            errs.append("the radical is not normal")
        crosscheck = "agrees" if order <= CROSSCHECK_CAP else "skipped"
        if rec["crosscheck"] != crosscheck:
            errs.append(f"crosscheck {rec['crosscheck']!r}, expected {crosscheck!r}")
        return errs

    # -- membership-bs -----------------------------------------------------

    def _bs_check(self, q: Question, report: dict) -> list[str]:
        G, n, pi = q.group, q.group.degree, q.pi
        summary, records = report["summary"], report["results"]
        errs = []
        order = self.order(G.gens, n)
        radical = self.expected_radical(G, pi)
        if factored_value(summary["radical_order"]) != radical:
            errs.append(f"radical order {summary['radical_order']}, expected {radical}")
        if sum(rec["class_size"] for rec in records) != order:
            errs.append(f"class sizes do not sum to |G| = {order}")
        m_min, bound = summary["minimal_m"], membership_bound(pi)
        if not 1 <= m_min <= bound:
            errs.append(f"minimal_m = {m_min} exceeds m(pi) = {bound}")
        if G.name == "S7" and tuple(pi) == (2, 3, 5) and m_min != 6:
            errs.append(f"minimal_m = {m_min}; five transpositions of S7 generate a {{2,3,5}}-group")
        per_class = summary["minimal_m_per_class"]
        if max(per_class.values(), default=1) != m_min:
            errs.append("minimal_m is not the largest per-class width")
        if summary["holds"] != (m_min <= 2):
            errs.append(f"holds = {summary['holds']} at m = 2 with minimal_m = {m_min}")
        outside = {rec["representative"] for rec in records if not rec["in_radical"]}
        if set(per_class) != outside:
            errs.append("minimal_m_per_class does not list exactly the classes outside the radical")
        for rec in records:
            rep = perm.parse(rec["representative"], n)
            if radical == 1 and rec["in_radical"] != (rep == perm.identity(n)):
                errs.append(f"in_radical = {rec['in_radical']} for {rec['representative']}")
            if rec["violation_width"] is not None:
                errs += self._non_pi_witness(G, rep, rec["witness"], pi, rec["violation_width"])
            width = per_class.get(rec["representative"])
            if width is None:
                continue
            # one element generates a non-pi group exactly when its order is
            # not a pi-number; a verified witness bounds the width above, and
            # an exhaustive search at m = 2 that found none bounds it below
            if (width == 1) != (not is_pi_number(perm.order(rep), pi)):
                errs.append(f"width {width} for {rec['representative']} of order {perm.order(rep)}")
            if rec["violation_width"] is not None and width > rec["violation_width"]:
                errs.append(f"width {width} for {rec['representative']} above its "
                            f"width-{rec['violation_width']} witness")
            if rec["violation_width"] is None and rec["exhaustive"] and width <= 2:
                errs.append(f"width {width} for {rec['representative']}, which has no witness at m = 2")
        return errs

    def _non_pi_witness(self, G: Group, rep, witness, pi, width: int) -> list[str]:
        n = G.degree
        ys = [perm.parse(y, n) for y in witness]
        if len(ys) != width or len(ys) > 2:
            return [f"witness {witness} for width {width}"]
        cls = self.conjugacy_class(G.gens, rep)
        if any(y not in cls for y in ys):
            return [f"witness {witness} is not in the G-class of {perm.to_text(rep)}"]
        order = self.order(ys, n)
        if is_pi_number(order, pi):
            return [f"witness {witness} generates a {set(pi)}-group of order {order}"]
        return []

    def _verify_bs(self, q: Question, report: dict) -> list[str]:
        G, n = q.group, q.group.degree
        errs = []
        if sorted({rec["p"] for rec in report["results"]}) != prime_support(G.order):
            errs.append("primes checked are not those of |G|")
        for rec in report["results"]:
            rep = perm.parse(rec["representative"], n)
            p = rec["p"]
            if rec["in_radical"] != rec["all_pairs_p_groups"]:
                errs.append(f"p={p} {rec['representative']}: in_radical != all_pairs_p_groups")
            radical = self.expected_radical(G, (p,))
            if factored_value(rec["radical_order"]) != radical:
                errs.append(f"p={p}: radical order {rec['radical_order']}, expected {radical}")
            if radical == 1 and rec["in_radical"] != (rep == perm.identity(n)):
                errs.append(f"p={p}: in_radical = {rec['in_radical']} for {rec['representative']}")
            if rec["witness_pair"] is not None:
                errs += self._non_pi_witness(G, rep, rec["witness_pair"], (p,), 2)
            elif not rec["all_pairs_p_groups"]:
                errs.append(f"p={p} {rec['representative']}: no witness pair")
        return errs

    def _transposition_sweep(self, q: Question, report: dict) -> list[str]:
        rec = report["results"][0]
        r = q.r
        want = {
            "subsets_checked": math.comb(r * (r - 1) // 2, r - 2),
            "all_small_subsets_pi": True,
            "exhaustive": True,
            "implied_lower_bound": r - 1,
            "pi": ",".join(str(p) for p in prime_support(math.factorial(r - 1))),
            "radical_order": "1",
        }
        errs = [f"{k} = {rec[k]!r}, expected {v!r}" for k, v in want.items() if rec[k] != v]
        star = [perm.parse(t, r) for t in rec["witness_subset"]]
        order = self.order(star, r)
        if len(star) != r - 1 or order != math.factorial(r) or factored_value(rec["witness_order"]) != order:
            errs.append(f"witness subset of {len(star)} generates order {order}, reported {rec['witness_order']}")
        return errs
