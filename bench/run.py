#!/usr/bin/env python3
"""Benchmark of the bratteli package: end-to-end and per-layer metrics.

    python3 bench/run.py --workload soe-pipeline --seed 1 --seconds 20
    python3 bench/run.py --workload all      # each workload in its own process
    python3 bench/run.py --workload deep-paths --smoke

One run sets up the workload's inputs several times (``setup_s`` is the
median), then runs its fixed job list in passes from a single caller with no
threads (closed loop) until ``--seconds`` have gone, checking every output
against an independent answer.  With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it runs untraced passes for half the time and
traced passes for the other half and prints the per-layer metrics, including
the tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Results, and the spans of a traced run, are also written to bench/out/.
See bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import spans
import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
WORKLOAD_NAMES = ("soe-pipeline", "deep-paths", "cli-invariants")

SETUP_REPEATS = 5             # at least; see Bench.setup
SETUP_TARGET_S = 3.0
SETUP_MAX_REPEATS = 400
COLD_RUNS = 21
MIN_LATENCY_SAMPLES = 100     # p90 needs at least 10 samples beyond it
HARD_LIMIT_S = 150            # never start a pass after this many seconds


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _subprocess_ms(argv, check=None):
    """Wall time of one child process in ms; fails the run if it fails."""
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    elapsed = (time.perf_counter() - start) * 1e3
    if proc.returncode != 0 or (check and not check(proc.stdout)):
        raise RuntimeError(f"{argv[1:]} failed: {proc.stderr[-500:]}")
    return elapsed


def _commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except OSError:
        return "unknown"
    lines = top.stdout.split()
    if top.returncode == 0 and len(lines) == 2 and \
            Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return "unknown"


def _signature(ledger):
    text = json.dumps(sorted(ledger.kinds.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Bench:
    def __init__(self, workload, seed, seconds, smoke):
        from bratteli import (cli, diagram, generators, ktheory, paths,
                              soe)
        import bratteli
        import workloads
        self.modules = (bratteli, diagram, paths, ktheory, generators, soe,
                        cli)
        # Cleared before every pass so each pass starts cold.
        self.caches = [
            obj for mod in self.modules for obj in vars(mod).values()
            if hasattr(obj, "cache_clear")
            and getattr(obj, "__module__", "").startswith("bratteli")]
        self.clock = speed.RawClock()
        self.Ledger = workloads.Ledger
        self.workloads = workloads
        self.wl = workloads.WORKLOADS[workload]
        self.seed, self.seconds, self.smoke = seed, seconds, smoke
        self.workdir = OUT / f"{workload}-{os.getpid()}"

    def setup(self):
        """Set up several times; returns the inputs and the intervals.

        Cheap set-ups (a few ms) are repeated until they add up to
        SETUP_TARGET_S, so that their median is steady too."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        times = []
        repeats = 3 if self.smoke else SETUP_REPEATS
        while len(times) < repeats:
            gc.collect()
            start = self.clock.now()
            inputs = self.wl.setup(self.seed, str(self.workdir), self.smoke)
            times.append((start, self.clock.now()))
            if len(times) == 1 and not self.smoke:
                first = max(times[0][1] - times[0][0], 1e-6)
                repeats = min(max(SETUP_REPEATS,
                                  math.ceil(SETUP_TARGET_S / first)),
                              SETUP_MAX_REPEATS)
        return inputs, times

    def passes(self, inputs, seconds, rec=None, min_samples=0):
        """Run whole passes while another one fits in ``seconds``."""
        out = []           # (start, end, ledger) on self.clock
        start = time.perf_counter()
        while True:
            for c in self.caches:
                c.cache_clear()
            gc.collect()
            ledger = self.Ledger(self.clock, rec)
            t0 = self.clock.now()
            self.wl.run_pass(inputs, ledger)
            out.append((t0, self.clock.now(), ledger))
            elapsed = time.perf_counter() - start
            typical = statistics.median(t1 - t0 for t0, t1, _ in out)
            samples = sum(len(lg.starts) for _, _, lg in out)
            if self.smoke or elapsed > HARD_LIMIT_S:
                break
            if elapsed + typical > seconds and samples >= min_samples:
                break
        for c in self.caches:
            c.cache_clear()
        return out

    def cold_cli_ms(self, clock):
        """Median of cold CLI runs, each scaled by reference slices timed
        just before and after it (the sampling timer is off meanwhile)."""
        args, _ = self.workloads.write_soe_inputs(str(self.workdir))
        argv = [sys.executable, "-m", "bratteli.cli", "soe", "check", *args,
                "--depth", "4"]
        ok = lambda out: json.loads(out)["status"] == "ok"
        times = []
        for _ in range(COLD_RUNS):
            for _ in range(3):
                clock.tick()
            t0 = clock.now()
            raw = _subprocess_ms(argv, ok)
            for _ in range(3):
                clock.tick()
            times.append(raw / clock.factor(t0))
        return statistics.median(times)

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _totals(runs):
    ledgers = [lg for _, _, lg in runs]
    return (sum(lg.attempted for lg in ledgers),
            sum(lg.failed for lg in ledgers),
            [e for lg in ledgers for e in lg.errors][:5])


def end_to_end(bench, meta):
    clock = bench.clock = speed.Speed()
    with clock:
        inputs, setups = bench.setup()
        runs = bench.passes(inputs, bench.seconds, min_samples=0
                            if bench.smoke else MIN_LATENCY_SAMPLES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cold = bench.cold_cli_ms(clock)
    attempted, failed, errors = _totals(runs)
    walls = [clock.scaled(t0, t1) for t0, t1, _ in runs]
    lat = [clock.scaled(a, b) for _, _, lg in runs
           for a, b in zip(lg.starts, lg.ends)]
    values = {
        "setup_s": statistics.median(clock.scaled(*t) for t in setups),
        "wall_s": statistics.median(walls),
        "ops_per_s": attempted / sum(walls),
        "op_p50_ms": metrics.percentile(lat, 0.50) * 1e3,
        "op_p90_ms": metrics.percentile(lat, 0.90) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "cli_cold_ms": cold,
    }
    raw_walls = [t1 - t0 for t0, t1, _ in runs]
    meta.update(passes=len(runs), latency_samples=len(lat),
                ops_per_pass=runs[0][2].attempted,
                ops_signature=_signature(runs[0][2]), errors=errors,
                setup_repeats=len(setups),
                cold_runs=COLD_RUNS, pass_s=walls, raw_pass_s=raw_walls,
                raw_wall_s=statistics.median(raw_walls),
                slowdown=statistics.median(clock.took) / speed.NOMINAL_S,
                reference_slices=len(clock.took))
    notes = {"op_p50_ms": f"n={len(lat)}", "op_p90_ms": f"n={len(lat)}",
             "wall_s": f"median of {len(runs)} passes, raw "
                       f"{meta['raw_wall_s']:.4f}",
             "cli_cold_ms": f"median of {COLD_RUNS} cold runs"}
    return values, attempted, failed, notes


def _view(bench, inputs, seconds, setup_rec, untraced_walls, external):
    """Traced passes of ``inputs``; returns (View, runs, recorder)."""
    rec = spans.Recorder()
    with spans.traced(rec, bench.modules):
        runs = bench.passes(inputs, seconds, rec=rec)
    counters = {}
    for _, _, lg in runs:
        for k, n in lg.counters.items():
            counters[k] = counters.get(k, 0) + n
    ops = sum(lg.attempted for _, _, lg in runs)
    view = metrics.View(rec, setup_rec, len(runs), ops, counters,
                        [t1 - t0 for t0, t1, _ in runs], untraced_walls,
                        external)
    return view, runs, rec


def per_layer(bench, meta):
    setup_rec = spans.Recorder()
    bench.workdir.mkdir(parents=True, exist_ok=True)
    with spans.traced(setup_rec, bench.modules):
        inputs = bench.wl.setup(bench.seed, str(bench.workdir), bench.smoke)
    half = bench.seconds / 2
    untraced = bench.passes(inputs, half)
    external = {
        "cli.interp_ms": statistics.median(
            _subprocess_ms([sys.executable, "-c", "pass"])
            for _ in range(COLD_RUNS)),
        "cli.import_ms": statistics.median(
            _subprocess_ms([sys.executable, "-c", "import bratteli.cli"])
            for _ in range(COLD_RUNS)),
    }
    external["cli.import_ms"] -= external["cli.interp_ms"]
    view, traced_runs, rec = _view(bench, inputs, half, setup_rec,
                                   [t1 - t0 for t0, t1, _ in untraced],
                                   external)
    values = metrics.layer_metrics(view)
    rec.write(OUT / f"spans-{bench.wl.name}-seed{bench.seed}.json")

    # Times of functions this workload never calls are measured on the
    # other workloads' smoke passes, so every metric has a value.
    filled = {}
    for other in WORKLOAD_NAMES:
        missing = [k for k, v in values.items() if v is None]
        if not missing or other == bench.wl.name:
            continue
        probe = Bench(other, bench.seed, 0, smoke=True)
        probe.workdir = bench.workdir / other
        probe.workdir.mkdir(parents=True, exist_ok=True)
        pinputs = probe.wl.setup(bench.seed, str(probe.workdir), True)
        pview, pruns, _ = _view(probe, pinputs, 0, spans.Recorder(),
                                [t1 - t0 for t0, t1, _ in untraced],
                                external)
        _, pfailed, perrors = _totals(pruns)
        if pfailed:
            raise RuntimeError(f"{other} smoke pass failed: {perrors}")
        for k, v in metrics.layer_metrics(pview).items():
            if k in missing and v is not None:
                values[k] = v
                filled[k] = other
    unmeasured = sorted(k for k, v in values.items() if v is None)
    if unmeasured:
        raise RuntimeError(f"no workload measured {unmeasured}")

    runs = untraced + traced_runs
    attempted, failed, errors = _totals(runs)
    meta.update(untraced_passes=len(untraced), traced_passes=len(traced_runs),
                ops_signature=_signature(runs[0][2]), errors=errors,
                spans_kept=len(rec.spans), spans_dropped=rec.dropped,
                filled_from_other_workloads=filled,
                layer_self_ms={layer: view.layer_self_ms(layer)
                               for layer in metrics.LAYERS})
    notes = {k: f"from {w} smoke pass" for k, w in filled.items()}
    return values, attempted, failed, notes


def run_one(args):
    if not (SRC / "bratteli" / "__init__.py").is_file():
        _fail(f"package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)
    bench = Bench(args.workload, args.seed, args.seconds, args.smoke)
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "commit": _commit(),
            "client": "closed loop, 1 caller, no threads"}
    try:
        if args.trace:
            values, attempted, failed, notes = per_layer(bench, meta)
            units = metrics.PER_LAYER
        else:
            values, attempted, failed, notes = end_to_end(bench, meta)
            units = metrics.END_TO_END
    finally:
        bench.cleanup()
    meta["failed_frac"] = failed / attempted
    for key in ("seed", "python", "nproc", "commit", "ops_signature",
                "failed_frac"):
        print(f"# {key}: {meta[key]}")
    for e in meta["errors"]:
        print(f"# error: {e}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:36s} {values[name]:14.6f} {unit}{note}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace"
              f"{args.trace}{'-smoke' if args.smoke else ''}.json", "w") as f:
        json.dump({**result, "meta": meta}, f, indent=1)
        f.write("\n")
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own fresh process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
                name, "--seed", str(args.seed), "--seconds",
                str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            _fail(f"{name} exited with {proc.returncode}: "
                  f"{proc.stderr[-2000:]}")
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one pass, for the self-test")
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
