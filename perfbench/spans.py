"""The traced run: spans and counts at piradical's layer boundaries.

Every boundary is wrapped from here, at the module or class attribute where
the calling layer looks the name up, so no file of the program changes.  A
wrapped call that other wrapped calls nest in records a span (name, start,
end, parent, and the time its child spans cover); the spans stay in memory
and are written out when the run ends.  The hottest boundaries -- building a
``Permutation``, a membership sift, a ``factored`` call -- run millions of
times, so they are not kept one by one: they are counted and timed, and
their time is charged to the enclosing span as child time, which keeps
every self time exact.  A layer's self time is its span time minus the time
its child spans cover.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# the per-layer metrics and their units
PER_LAYER = {
    "cli.self_s": "s", "catalog.build_s": "s", "factored.import_s": "s",
    "factored.calls": "count", "perms.built": "count", "perms.build_s": "s",
    "groups.chain_builds": "count", "groups.extends": "count", "groups.build_s": "s",
    "groups.sifts": "count", "groups.sift_s": "s", "groups.enumerated": "count",
    "groups.enumerate_s": "s", "structure.orbits": "count",
    "structure.orbit_unique_ratio": "ratio", "structure.orbit_s": "s",
    "structure.class_reps_s": "s", "structure.normal_closure_s": "s",
    "structure.lattice_s": "s", "width.searches": "count", "width.states": "count",
    "width.search_self_s": "s", "width.context_s": "s",
}

# spans whose time is reported inclusive of the spans inside them; only the
# outermost of a nest counts, so nested calls are not counted twice
INCLUSIVE = ("catalog", "context")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, parent id, start, end, child time)
        self.stack: list[list] = []  # open spans: [id, start, child time]
        self.counts: Counter = Counter()
        self.leaf_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.inclusive_s: defaultdict = defaultdict(float)
        self.depth: Counter = Counter()
        self.orbit_keys: set = set()
        self.reset()

    def reset(self) -> None:
        """Start a new round.  The wrappers hold the containers, so they are
        cleared in place."""
        for box in (self.spans, self.counts, self.leaf_s, self.self_s, self.inclusive_s, self.orbit_keys):
            box.clear()
        self.next_id = 0
        self.distinct_orbits = 0

    def span(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so each call records a span named ``name``."""
        stack, depth = self.stack, self.depth

        def wrapped(*args, **kwargs):
            self.counts[name] += 1
            parent = stack[-1][0] if stack else -1
            span_id = self.next_id
            self.next_id += 1
            depth[name] += 1
            frame = [span_id, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] -= 1
                total = end - frame[1]
                self.self_s[name] += total - frame[2]
                if name in INCLUSIVE and depth[name] == 0:
                    self.inclusive_s[name] += total
                if stack:
                    stack[-1][2] += total
                self.spans.append((span_id, name, parent, frame[1], end, frame[2]))
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapped

    def leaf(self, name: str, fn, timed: bool = True):
        """Wrap a hot boundary: count its calls and, when ``timed``, charge
        their time to the enclosing span."""
        stack, counts, leaf_s = self.stack, self.counts, self.leaf_s
        if not timed:
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        def wrapped(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                counts[name] += 1
                leaf_s[name] += dt
                if stack:
                    stack[-1][2] += dt

        return wrapped

    def metrics(self) -> dict[str, float]:
        c, own = self.counts, self.self_s
        orbits = c["orbit"]
        return {
            "cli.self_s": own["cli"],
            "catalog.build_s": self.inclusive_s["catalog"],
            "factored.calls": c["factored"],
            "perms.built": c["perm"],
            "perms.build_s": self.leaf_s["perm"],
            "groups.chain_builds": c["build"],
            "groups.extends": c["extend"],
            "groups.build_s": own["build"] + own["extend"],
            "groups.sifts": c["sift"],
            "groups.sift_s": self.leaf_s["sift"],
            "groups.enumerated": c["enumerated"],
            "groups.enumerate_s": own["enumerate"],
            "structure.orbits": orbits,
            "structure.orbit_unique_ratio": self.distinct_orbits / orbits if orbits else 0.0,
            "structure.orbit_s": own["orbit"],
            "structure.class_reps_s": own["class_reps"],
            "structure.normal_closure_s": own["normal_closure"],
            "structure.lattice_s": own["lattice"],
            "width.searches": c["search"],
            "width.states": c["states"],
            "width.search_self_s": own["search"],
            "width.context_s": self.inclusive_s["context"],
        }

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as f:
            for span_id, name, parent, start, end, child in sorted(self.spans):
                f.write(json.dumps({"id": span_id, "name": name, "parent": parent,
                                    "start": start, "end": end, "child_s": child}) + "\n")


def install(tracer: Tracer, package) -> None:
    """Wrap piradical's layer boundaries; ``package`` is the imported package."""
    cli, catalog, factored, groups, perms, structure, width = (
        package.cli, package.catalog, package.factored, package.groups,
        package.perms, package.structure, package.width,
    )
    t = tracer

    traced_main = t.span("cli", cli.main)

    def main(argv=None):
        t.orbit_keys.clear()  # an orbit counts as repeated within one question
        return traced_main(argv)

    cli.main = main

    for name in ("group_by_name", "socle_by_name", "automorphism_by_name", "load_spec"):
        setattr(cli, name, t.span("catalog", getattr(cli, name)))
    for name in ("group", "socle"):
        setattr(catalog.GroupSpec, name, t.span("catalog", getattr(catalog.GroupSpec, name)))

    def orbit_seen(args, _result):
        G, x = args[0], args[1]
        key = (tuple(g.images for g in G.generators), x.images)
        if key not in t.orbit_keys:
            t.orbit_keys.add(key)
            t.distinct_orbits += 1

    orbit = t.span("orbit", structure.conjugation_orbit, orbit_seen)
    structure.conjugation_orbit = width.conjugation_orbit = orbit
    reps = t.span("class_reps", structure.class_representatives)
    structure.class_representatives = width.class_representatives = reps
    structure.normal_closure = t.span("normal_closure", structure.normal_closure)
    cli.normal_subgroups = t.span("lattice", cli.normal_subgroups)
    # the other layers' entry points, so that their own loops are not
    # counted as the CLI's time; they are in the trace file, not in a metric
    cli.pi_radical = t.span("radical", cli.pi_radical)
    for name in ("alpha", "beta", "bs_membership", "minimal_membership_width",
                 "baer_suzuki_check", "transposition_pi_sweep"):
        setattr(cli, name, t.span("width_entry", getattr(cli, name)))

    def states(_args, result):
        t.counts["states"] += result.states_visited

    width.min_width_search = t.span("search", width.min_width_search, states)
    build = width.AlmostSimpleContext.__dict__["build"].__func__
    width.AlmostSimpleContext.build = classmethod(t.span("context", build))

    def enumerated(_args, result):
        t.counts["enumerated"] += len(result)

    PermGroup = groups.PermGroup
    for name in ("elements", "element_tuples"):
        setattr(PermGroup, name, t.span("enumerate", getattr(PermGroup, name), enumerated))
    from_generators = PermGroup.__dict__["from_generators"].__func__
    PermGroup.from_generators = classmethod(t.span("build", from_generators))
    PermGroup.extend = t.span("extend", PermGroup.extend)
    PermGroup._contains_tuple = t.leaf("sift", PermGroup._contains_tuple)
    perms.Permutation.__init__ = t.leaf("perm", perms.Permutation.__init__)

    FI = factored.FactoredInteger
    for name in ("from_int", "from_product"):
        setattr(FI, name, classmethod(t.leaf("factored", FI.__dict__[name].__func__, timed=False)))
    for module in (cli, catalog, structure, width):
        module.is_prime = t.leaf("factored", module.is_prime, timed=False)


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Counts from the first round, which a seed fixes exactly (later rounds
    find piradical's memo caches warm); times as the median over rounds."""
    out = {}
    for name, unit in PER_LAYER.items():
        values = [r[name] for r in rounds if name in r]
        if not values:
            continue
        out[name] = values[0] if unit != "s" else statistics.median(values)
    return out
