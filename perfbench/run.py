#!/usr/bin/env python3
"""Benchmark for tanglegcd: one workload per run, closed loop, one caller.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

`--trace 0` measures the end-to-end metrics named in BENCHMARK.json:
in-process operations for `--seconds`, with cold `python -m tanglegcd.cli`
calls and fresh-interpreter imports spread between them.  Their times are
rescaled to a nominal machine speed by a reference kernel timed between
them (`speed.py`); wall times are printed beside them.  `--trace 1`
runs a fixed number of blocks, set by the workload and `--seconds`, once
untraced and once with spans, drives the workload's cold command through
`cli.main` in-process, and reports the per-layer metrics.  `perfbench/design.json`
records why each workload exists and which layer metric should move which
end-to-end metric.

Every operation's output is checked against `oracle.py`.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Exit status: 0 when every check passed, 1 when any failed, 2 when
the package cannot be found under `src/`.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from itertools import islice
from pathlib import Path

from spans import NullTracer, Tracer, traced_cli
from speed import NOMINAL_S, STRETCH_S, WINDOW, Gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

COLD_SAMPLES = 25
FLOOR_SAMPLES = 11
TRACED_CLI_DRIVES = 3
WORKLOAD_NAMES = ("certify", "untangle", "replay", "bigint")
MAX_FAILURES_KEPT = 20


def locate_package():
    """Import tanglegcd from this checkout's src/, or exit 2."""
    package = SRC / "tanglegcd"
    if not (package / "cli.py").is_file():
        print(f"perfbench: no tanglegcd package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import tanglegcd.cli

    if Path(tanglegcd.cli.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported {tanglegcd.cli.__file__}, not {package}", file=sys.stderr)
        sys.exit(2)
    return tanglegcd.cli


def subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def timed_python(argv, env, stdout=subprocess.PIPE) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    return time.perf_counter() - start, proc


def median_fresh_runs(argv, samples, env) -> float:
    """Median wall time of `samples` fresh interpreters, after one warm-up."""
    walls = []
    for _ in range(samples + 1):
        wall, proc = timed_python(argv, env)
        if proc.returncode != 0:
            raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr.strip()}")
        walls.append(wall)
    return statistics.median(walls[1:])


def run_op(workload, tracer, item, failures) -> float:
    """Run and check one operation; return its latency in seconds.

    Every operation starts from the same collector state, as a fresh CLI call
    does: otherwise the collections that fall inside a long operation depend
    on what ran before it, and the same long operation's time varies by up
    to a third between repeats.
    """
    gc.collect()
    start = time.perf_counter()
    try:
        out = tracer.call("op." + workload.name, workload.op, tracer, item)
    except Exception as exc:  # any raise is a failed operation, never a crash
        elapsed = time.perf_counter() - start
        failures.append(f"{str(item)[:80]}: raised {type(exc).__name__}: {exc}")
        return elapsed
    elapsed = time.perf_counter() - start
    try:
        workload.check(item, out)
    except Exception as exc:
        failures.append(f"{str(item)[:80]}: {type(exc).__name__}: {exc}")
    return elapsed


def check_cold(workload, code, stdout, failures, how) -> None:
    try:
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        workload.check_cold(stdout)
    except Exception as exc:
        failures.append(f"{how} {' '.join(workload.cold_argv)[:80]}: "
                        f"{type(exc).__name__}: {exc}")


def nearest_rank(sorted_values, share) -> float:
    return sorted_values[max(0, math.ceil(share * len(sorted_values)) - 1)]


def untraced(workload, seed, seconds):
    tracer = NullTracer()
    failures: list[str] = []
    latencies: list[float] = []  # wall seconds per operation
    whole_blocks: list[tuple[int, int]] = []  # first and end operation
    env = subprocess_env()
    cold_argv = ["-m", "tanglegcd.cli", *workload.cold_argv]
    # Wall seconds, with the indices of the kernel timings before and after.
    cold: list[tuple[float, int, int]] = []
    setup: list[tuple[float, int, int]] = []
    outputs: list[tuple[Path, int]] = []
    OUT.mkdir(exist_ok=True)
    gauge = Gauge()
    stretches: list[tuple[int, int, int, int]] = []  # ops first, end; timings before, after
    last_timing = 0
    stretch_s = 0.0

    def close_stretch():
        nonlocal last_timing, stretch_s
        first = stretches[-1][1] if stretches else 0
        if first < len(latencies):
            after = gauge.measure()
            stretches.append((first, len(latencies), last_timing, after))
            last_timing, stretch_s = after, 0.0

    def between_timings(argv, stdout=subprocess.PIPE):
        nonlocal last_timing
        before = gauge.measure(WINDOW) + WINDOW - 1
        wall, proc = timed_python(argv, env, stdout)
        after = gauge.measure(WINDOW)
        last_timing = after + WINDOW - 1
        return (wall, before, after), proc

    def sample():
        # The CLI writes to a file that is read only after peak RSS is taken,
        # so this process never holds a cold call's output during the loop.
        path = OUT / f"cold_{workload.name}_{len(outputs)}.out"
        with open(path, "w", encoding="utf-8") as stdout:
            timing, proc = between_timings(cold_argv, stdout)
        outputs.append((path, proc.returncode))
        cold.append(timing)
        timing, proc = between_timings(["-c", "import tanglegcd.cli"])
        if proc.returncode != 0:
            failures.append(f"import tanglegcd.cli exited {proc.returncode}: {proc.stderr[-200:]}")
        setup.append(timing)

    sample()  # warms the page and bytecode caches; not reported
    cold.clear()
    setup.clear()
    # The whole run, cold calls and fresh imports included, takes `seconds`.
    # Those are spread over the run, between operations, so that their
    # medians see the same machine as the operations do.
    start = time.perf_counter()
    deadline = start + seconds
    due = [start + seconds * (i + 0.5) / COLD_SAMPLES for i in range(COLD_SAMPLES)]
    blocks = workload.blocks(random.Random(seed))
    while time.perf_counter() < deadline:
        block = next(blocks)
        first = len(latencies)
        for item in block:
            latency = run_op(workload, tracer, item, failures)
            latencies.append(latency)
            stretch_s += latency
            if stretch_s >= STRETCH_S:
                close_stretch()
            if len(cold) < COLD_SAMPLES and time.perf_counter() >= due[len(cold)]:
                close_stretch()
                sample()
            if time.perf_counter() >= deadline:
                break
        else:
            whole_blocks.append((first, len(latencies)))
    close_stretch()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(cold) < COLD_SAMPLES:
        sample()
    for path, code in outputs:
        check_cold(workload, code, path.read_text(encoding="utf-8"), failures, "cold")
        path.unlink()

    rescaled = latencies[:]  # at the kernel's nominal speed
    for first, end, before, after in stretches:
        factor = gauge.factor(before, after)
        rescaled[first:end] = [wall * factor for wall in latencies[first:end]]
    cold_s = [wall * gauge.factor(before, after) for wall, before, after in cold]
    setup_s = [wall * gauge.factor(before, after) for wall, before, after in setup]
    # A block longer than the run: report the partial block's rate.
    counted = whole_blocks or [(0, len(latencies))]
    whole_ops = sum(end - first for first, end in counted)
    whole_s = sum(sum(rescaled[first:end]) for first, end in counted)

    ordered = sorted(rescaled)
    attempted = len(latencies) + 2 * len(outputs)
    beyond = len(latencies) - math.ceil(0.9 * len(latencies))
    values = {
        "ops_per_s": whole_ops / whole_s,
        "op_p50_ms": statistics.median(ordered) * 1e3,
        "op_p90_ms": nearest_rank(ordered, 0.9) * 1e3,
        "cli_p50_ms": statistics.median(cold_s) * 1e3,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "op_ok_ratio": (attempted - len(failures)) / attempted,
    }
    wall_sorted = sorted(latencies)
    notes = {
        "ops_per_s": f"{whole_ops} ops in {len(whole_blocks)} whole blocks; "
                     f"{len(latencies)} ops in {sum(latencies):.3f} s busy wall, "
                     f"{len(latencies) / sum(latencies):.4g}/s by wall time",
        "op_p50_ms": f"n={len(latencies)}; wall {statistics.median(wall_sorted) * 1e3:.4g} ms",
        "op_p90_ms": f"n={len(latencies)}, {beyond} beyond; "
                     f"wall {nearest_rank(wall_sorted, 0.9) * 1e3:.4g} ms",
        "cli_p50_ms": f"n={len(cold)} cold calls of: tanglegcd {' '.join(workload.cold_argv)[:60]}; "
                      f"wall {statistics.median(c[0] for c in cold) * 1e3:.4g} ms",
        "setup_s": f"n={len(setup)} fresh imports of tanglegcd.cli; "
                   f"wall {statistics.median(s[0] for s in setup):.4g} s",
        "peak_rss_mb": "max RSS of the process running the operations",
        "op_ok_ratio": f"op_fail_ratio {len(failures)}/{attempted} = {len(failures) / attempted:.6f}",
        "speed": f"speed kernel {gauge.mean_s() * 1e3:.4g} ms mean over {len(gauge.timings)} "
                 f"timings, nominal {NOMINAL_S * 1e3:.4g} ms; times above are rescaled to nominal",
    }
    return values, notes, attempted, failures, None


def traced(workload, seed, seconds, cli):
    nblocks = max(1, round(seconds * workload.traced_blocks_per_s))
    blocks = list(islice(workload.blocks(random.Random(seed)), nblocks))
    items = [item for block in blocks for item in block]
    failures: list[str] = []
    tracer = Tracer()
    busy = {NullTracer: 0.0, Tracer: 0.0}
    for index, block in enumerate(blocks):
        # Each block runs untraced and traced, alternating which goes first.
        for t in (NullTracer(), tracer)[:: 1 if index % 2 == 0 else -1]:
            busy[type(t)] += sum(run_op(workload, t, item, failures) for item in block)
    untraced_s, traced_s = busy[NullTracer], busy[Tracer]

    argv = list(workload.cold_argv)
    for _ in range(TRACED_CLI_DRIVES):
        buffer = io.StringIO()
        code = None
        try:
            with traced_cli(tracer, cli), redirect_stdout(buffer):
                code = tracer.call("cli.main", cli.main, argv)
        except (Exception, SystemExit) as exc:
            failures.append(f"cli.main {argv[0]}: {type(exc).__name__}: {exc}")
            continue
        check_cold(workload, code, buffer.getvalue(), failures, "cli.main")
        tracer.add("cli.bytes_rendered", len(buffer.getvalue().encode()))
    floor = median_fresh_runs(["-c", "pass"], FLOOR_SAMPLES, subprocess_env())

    seconds_by_name, calls = tracer.self_times()
    counts = tracer.counts
    values: dict[str, float] = dict(counts)
    values.update({f"{name}.s": s for name, s in seconds_by_name.items()})
    values.update({f"{name}.calls": c for name, c in calls.items()})
    if calls.get("enumeration.minimize"):
        values["enumeration.traces_per_pair"] = (
            counts["enumeration.traces_examined"] / calls["enumeration.minimize"])
    if counts.get("tangles.stages"):
        values["tangles.moves_per_stage"] = counts["tangles.stage_twists"] / counts["tangles.stages"]
    values["python.floor_s"] = floor
    values["trace.ops"] = len(items)
    values["trace.ops_per_s_untraced"] = len(items) / untraced_s
    values["trace.ops_per_s_traced"] = len(items) / traced_s
    notes = {
        "trace.ops_per_s_traced": f"{len(items)} ops in {traced_s:.3f} s traced, "
                                  f"{untraced_s:.3f} s untraced "
                                  f"(traced/untraced = {untraced_s / traced_s:.4f})",
        "python.floor_s": f"n={FLOOR_SAMPLES} runs of python -c pass",
    }
    attempted = 2 * len(items) + TRACED_CLI_DRIVES
    return values, notes, attempted, failures, tracer


def environment(cpus) -> dict:
    return {
        "python": sys.version.split()[0],
        "optimize": sys.flags.optimize,
        "nproc": len(cpus),
        "pinned_cpu": max(cpus),
        "int_max_str_digits": sys.get_int_max_str_digits(),
    }


def run_one(args) -> int:
    cli = locate_package()
    # The operations, the speed kernel and every child process share one CPU,
    # so that the kernel measures the speed of the CPU the work runs on.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    from workloads import WORKLOADS  # imports tanglegcd, so only once src/ is on the path

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    # Objects from start-up are never garbage; frozen, they make the
    # collection before each operation cost microseconds, not milliseconds.
    gc.collect()
    gc.freeze()
    if args.trace:
        declared = spec["per_layer"]
        values, notes, attempted, failures, tracer = traced(workload, args.seed, args.seconds, cli)
    else:
        declared = spec["end_to_end"]
        values, notes, attempted, failures, tracer = untraced(workload, args.seed, args.seconds)
    # A layer that the workload never calls reads 0: its prediction is "no change".
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}

    env = environment(cpus)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          + "  ".join(f"{k} {v}" for k, v in env.items()))
    for name, metric in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']:<6} {note}")
    if "speed" in notes:
        print(f"  {notes['speed']}")
    for failure in failures[:MAX_FAILURES_KEPT]:
        print(f"  FAILED {failure}")

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    record = dict(result, environment=env, notes=notes, all_values=values,
                  failures=failures[:MAX_FAILURES_KEPT])
    (OUT / f"result_{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"spans_{stem}.jsonl")
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]) or proc.stderr.strip())
        if proc.returncode not in (0, 1) or not lines:
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
