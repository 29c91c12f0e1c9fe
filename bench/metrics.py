"""Metric names, units and how each is derived.

END_TO_END metrics come from untraced passes; PER_LAYER metrics from the
traced run.  Both lists must match BENCHMARK.json (bench/selftest.py checks
that they do).

Every per-layer time is a mean per call, so it is None where the workload
never calls that function; run.py then measures it on the other workloads'
smoke passes and says so.  Counts and ratios always come from the workload
itself and are 0 where it bypasses a layer.
"""

from __future__ import annotations

import math
import statistics

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "cli_cold_ms": "ms",
}

DEPTHS = (10, 40, 160)
SNF_SIZES = (32, 64, 96)
LAYERS = ("diagram", "paths", "ktheory", "generators", "soe", "cli")
CLI_COMMANDS = ("validate", "rank", "vershik", "k0", "k1", "extremal",
                "perfect", "telescope", "oracle", "soe_check", "soe_search")


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def _ms(ns):
    return None if ns is None else ns / 1e6


def _s(ns):
    return None if ns is None else ns / 1e9


def _us(ns):
    return None if ns is None else ns / 1e3


def _layer_defs():
    """(name, unit, fn(view) -> value or None).

    view.mean(name, tag) is the mean inclusive ns per call over the traced
    set-up and passes; view.per_pass(name) the calls per traced pass.
    """
    defs = [
        ("diagram.in_edges_us", "us",
         lambda v: _us(v.mean("diagram.in_edges"))),
        ("diagram.in_edges.calls", "count",
         lambda v: v.per_pass("diagram.in_edges")),
        ("paths.path_counts.calls", "count",
         lambda v: v.per_pass("paths.path_counts")),
        ("diagram.load_ms", "ms",
         lambda v: _ms(v.mean("diagram.diagram_from_json"))),
        ("diagram.validate_ms", "ms",
         lambda v: _ms(v.mean("diagram.validate_diagram"))),
        ("diagram.telescope_ms", "ms",
         lambda v: _ms(v.mean("diagram.telescope"))),
        ("diagram.check_fem_ms", "ms",
         lambda v: _ms(v.mean("diagram.check_fem_properties"))),
    ]
    for short, fn in (("rank", "path_rank"), ("unrank", "path_unrank"),
                      ("successor", "vershik_successor"),
                      ("predecessor", "vershik_predecessor")):
        for d in DEPTHS:
            defs.append((f"paths.{short}_us.d{d}", "us",
                         lambda v, fn=fn, d=d: _us(v.mean(f"paths.{fn}", d))))
    defs += [
        ("paths.make_path_us.d160", "us",
         lambda v: _us(v.mean("paths.make_path", 160))),
        ("paths.make_path_us", "us", lambda v: _us(v.mean("paths.make_path"))),
        ("paths.make_path.calls", "count",
         lambda v: v.per_pass("paths.make_path")),
        ("paths.make_path.per_op", "count",
         lambda v: v.per_pass("paths.make_path") / v.ops_per_pass),
        ("paths.all_paths_ms", "ms", lambda v: _ms(v.mean("paths.all_paths"))),
        ("paths.extremal_ms", "ms",
         lambda v: _ms(v.mean("paths.extremal_paths"))),
        ("soe.interleave_ms", "ms",
         lambda v: _ms(v.mean("soe.build_interleaved"))),
        ("soe.properties_ms", "ms",
         lambda v: _ms(v.mean("soe.check_interleaved_properties"))),
        ("soe.pairing_ms", "ms",
         lambda v: _ms(v.mean("soe.pair_extremal_paths"))),
        ("soe.realize_ms", "ms",
         lambda v: _ms(v.mean("soe.realize_orbit_map"))),
        ("soe.continuity_s", "s",
         lambda v: _s(v.mean("soe.check_cocycle_continuity"))),
        ("soe.continuity_us_per_cylinder", "us",
         lambda v: (v.total_ns("soe.check_cocycle_continuity")
                    / v.counter("eligible") / 1e3
                    if v.counter("eligible") else None)),
        ("soe.eligible", "count", lambda v: v.counter("eligible") / v.passes),
        ("soe.cocycle.calls", "count", lambda v: v.per_pass("soe.cocycle")),
        ("soe.verify_us", "us", lambda v: _us(v.mean("soe.verify_cocycle"))),
    ]
    for n in SNF_SIZES:
        defs.append((f"ktheory.snf_ms.n{n}", "ms",
                     lambda v, n=n: _ms(v.mean("ktheory.smith_normal_form",
                                               n))))
    defs += [
        ("ktheory.verify_snf_ms.n96", "ms",
         lambda v: _ms(v.mean("ktheory.verify_snf", 96))),
        ("ktheory.smith_normal_form.calls", "count",
         lambda v: v.per_pass("ktheory.smith_normal_form")),
        ("ktheory.element_equal_ms", "ms",
         lambda v: _ms(v.mean("ktheory.element_equal"))),
        ("ktheory.k1_rank_ms", "ms", lambda v: _ms(v.mean("ktheory.k1_rank"))),
    ]
    for c in CLI_COMMANDS:
        defs.append((f"cli.run_ms.{c}", "ms",
                     lambda v, c=c: _ms(v.mean("cli.run", c))))
        defs.append((f"cli.self_ms.{c}", "ms",
                     lambda v, c=c: _ms(v.mean_self("cli.run", c))))
    defs += [
        ("cli.build_parser_ms", "ms",
         lambda v: _ms(v.mean("cli.build_parser"))),
        ("cli.import_ms", "ms", lambda v: v.external.get("cli.import_ms")),
        ("cli.interp_ms", "ms", lambda v: v.external.get("cli.interp_ms")),
        ("generators.build_ms", "ms",
         lambda v: _ms(v.setup_layer_entry("generators"))),
    ]
    for layer in LAYERS:
        defs.append((f"{layer}.self_frac", "ratio",
                     lambda v, layer=layer: v.layer_self_frac(layer)))
    defs += [
        ("bench.self_frac", "ratio", lambda v: 1 - sum(
            v.layer_self_frac(layer) for layer in LAYERS)),
        ("trace.spans", "count", lambda v: v.spans_per_pass),
        ("trace.wall_s", "s", lambda v: v.traced_wall_s),
        ("trace.untraced_wall_s", "s", lambda v: v.untraced_wall_s),
        ("trace.overhead_s", "s",
         lambda v: v.traced_wall_s - v.untraced_wall_s),
        ("trace.overhead_frac", "ratio",
         lambda v: v.traced_wall_s / v.untraced_wall_s - 1),
    ]
    return defs


LAYER_DEFS = _layer_defs()
PER_LAYER = {name: unit for name, unit, _ in LAYER_DEFS}


class View:
    """Read-only access to one traced run's recorders for LAYER_DEFS."""

    def __init__(self, rec, setup_rec, passes, ops, counters, traced_walls,
                 untraced_walls, external):
        self.rec, self.setup_rec = rec, setup_rec
        self.passes = passes
        self.ops_per_pass = ops / passes
        self.counters = counters
        self.traced_wall_s = statistics.median(traced_walls)
        self.untraced_wall_s = statistics.median(untraced_walls)
        self.external = external
        self.spans_per_pass = (sum(st[0] for st in rec.stats.values())
                               / passes)

    def _sum(self, name, tag, col, recs):
        return sum(st[col] for r in recs for (n, t), st in r.stats.items()
                   if n == name and (tag is None or t == tag))

    def calls(self, name, tag=None):
        return self._sum(name, tag, 0, (self.rec,))

    def per_pass(self, name):
        return self.calls(name) / self.passes

    def total_ns(self, name):
        return self._sum(name, None, 1, (self.rec,))

    def mean(self, name, tag=None):
        recs = (self.rec, self.setup_rec)
        n = self._sum(name, tag, 0, recs)
        return self._sum(name, tag, 1, recs) / n if n else None

    def mean_self(self, name, tag=None):
        recs = (self.rec, self.setup_rec)
        n = self._sum(name, tag, 0, recs)
        return self._sum(name, tag, 2, recs) / n if n else None

    def counter(self, name):
        return self.counters.get(name, 0)

    def layer_self_ms(self, layer):
        """Self time of a layer per traced pass."""
        return self.rec.layer_self.get(layer, 0) / self.passes / 1e6

    def layer_self_frac(self, layer):
        return self.layer_self_ms(layer) / (self.traced_wall_s * 1e3)

    def setup_layer_entry(self, layer):
        return self.setup_rec.layer_entry.get(layer, 0)


def layer_metrics(view) -> dict:
    return {name: fn(view) for name, _, fn in LAYER_DEFS}
