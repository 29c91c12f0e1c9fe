#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size.

    python3 bench/selftest.py

For every workload, with seeds 1 and 2 and with tracing off and on, it runs
``bench/run.py --smoke`` in a fresh process and checks that:
  * the last line is the result object with exactly the contract's keys;
  * every metric named in BENCHMARK.json is there with its unit, and no
    other (end-to-end ones untraced, per-layer ones traced);
  * nothing failed (failed_frac == 0) and something was attempted;
  * both seeds ran the same set of operations.
It also checks that the benchmark refuses to run, exit code not 0 and no
result printed, when the package source is missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _check_result(workload, seed, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", str(seed),
                "--seconds", "1", "--trace", str(trace), "--smoke")
    where = f"{workload} seed {seed} trace {trace}"
    assert proc.returncode == 0, f"{where}: {proc.stderr[-2000:]}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, \
        f"{where}: {[l for l in lines if l.startswith('# error')]}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = result["metrics"]
    assert set(got) == set(want), (f"{where}: missing {set(want) - set(got)}"
                                   f", extra {set(got) - set(want)}")
    for name, m in got.items():
        assert set(m) == {"value", "unit"} and m["unit"] == want[name], name
        assert isinstance(m["value"], (int, float)) and \
            math.isfinite(m["value"]), f"{where}: {name} = {m['value']}"
    signature = [l for l in lines if l.startswith("# ops_signature:")]
    assert len(signature) == 1, where
    return signature[0]


def _check_refuses_without_source():
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "bench")
    try:
        proc = _run(bare, "--workload", "deep-paths", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0, "ran without the package source"
        assert '"metrics"' not in proc.stdout, "printed a result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    import metrics
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == [
        "soe-pipeline", "deep-paths", "cli-invariants"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        metrics.PER_LAYER
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            sigs = {_check_result(w["name"], seed, trace) for seed in (1, 2)}
            assert len(sigs) == 1, f"{w['name']}: seeds ran different ops"
            print(f"ok  {w['name']} trace {trace}: seeds 1 and 2, "
                  f"{sigs.pop()[2:]}")
    _check_refuses_without_source()
    print("ok  refuses to run without the package source")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    main()
