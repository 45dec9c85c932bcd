#!/usr/bin/env python3
"""Smoke test of the benchmark itself.  Run from the repository root:

    python3 perfbench/smoke.py

For every workload it checks that an untraced run reports every end-to-end
metric with a positive value, that two traced runs with the same seed report
identical work counters, that every per-layer metric is non-zero on some
workload, and that the benchmark refuses to run, without a result line, in a
directory holding only BENCHMARK.json and perfbench/.  Exits non-zero on the
first problem.  Takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result_of(proc):
    if proc.returncode != 0:
        sys.exit(f"smoke: benchmark exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or not result["correct"]:
        sys.exit(f"smoke: bad result line: {result}")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    nonzero = set()
    for workload in WORKLOAD_NAMES:
        metrics = result_of(bench(workload, 0))["metrics"]
        if list(metrics) != end_to_end or not all(m["value"] > 0 for m in metrics.values()):
            sys.exit(f"smoke: {workload} end-to-end metrics: {metrics}")
        first, second = (result_of(bench(workload, 1))["metrics"] for _ in range(2))
        if list(first) != list(per_layer):
            sys.exit(f"smoke: {workload} per-layer metric names differ from BENCHMARK.json")
        for name, unit in per_layer.items():
            if unit in ("count", "ratio") and first[name] != second[name]:
                sys.exit(f"smoke: {workload} counter {name} did not repeat: "
                         f"{first[name]} then {second[name]}")
            if first[name]["value"]:
                nonzero.add(name)
        print(f"smoke: {workload} ok", flush=True)
    never = [n for n in per_layer if n not in nonzero and not n.endswith(".errors")]
    if never:
        sys.exit(f"smoke: per-layer metrics that no workload moves: {never}")

    bare = HERE / "out" / "bare_checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(WORKLOAD_NAMES[0], 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        sys.exit(f"smoke: without src/ the benchmark exited {proc.returncode}: {proc.stdout}")
    print("smoke: refuses to run without the package: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
