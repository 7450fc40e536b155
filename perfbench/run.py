"""Benchmark runner for certisqrt; see README.md in this directory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process and prints its metrics, one per line,
then a JSON summary as the last line.  ``--workload all`` runs every
workload in its own subprocess, one after another.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Timed passes per run = --seconds over the workload's pass_seconds in
# spec.json, a fixed figure, so the count does not follow the speed of
# the code under test; at least MIN_PASSES, and no new pass is started
# after DEADLINE_FACTOR * --seconds.
MIN_PASSES = 2
DEADLINE_FACTOR = 3


def percentile(samples: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank p-th percentile and the number of samples above it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def pass_count(spec: dict, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / spec["pass_seconds"]))


def time_setups(workload, count: int) -> list[float]:
    times = []
    for _ in range(count):
        start = perf_counter()
        workload.setup()
        times.append(perf_counter() - start)
    return times


def run_passes(workload, spec: dict, count: int,
               deadline: float) -> tuple[list[float], list]:
    """`count` timed passes, each after a batch of timed set-ups, so that
    set-up samples are spread over the run as the passes are."""
    setups, passes = [], []
    start = perf_counter()
    while len(passes) < count and (not passes
                                   or perf_counter() - start < deadline):
        setups += time_setups(workload, spec["setups_per_pass"])
        passes.append(workload.run_pass())
    return setups, passes


def one_pass_seconds(passes: list) -> list[float]:
    """Each input's time, as the least of its timings over the passes.

    The work is deterministic and, on a shared host, interference from
    other tenants only adds time; it comes in spells of tens of seconds
    that can make medians of one run differ by half from the next.  The
    least timing of each input, repeated across the run, is the
    steadiest estimate of its cost."""
    return [min(column) for column in zip(*(p.latencies for p in passes))]


def end_to_end(spec: dict, setups: list[float],
               passes: list) -> tuple[dict[str, float], dict[str, str]]:
    per_input = one_pass_seconds(passes)
    wall = sum(per_input)
    ops = passes[0].attempted
    per_op = [s * len(per_input) / ops for s in per_input]
    p50, _ = percentile(per_op, 50)
    tail_p = spec["tail_percentile"]
    tail, beyond = percentile(per_op, tail_p)
    metrics = {
        "setup_s": min(setups),
        "wall_s": wall,
        "ops_per_s": ops / wall,
        "op_p50_ms": p50 * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    notes = {
        "setup_s": f"least of {len(setups)} set-ups spread over the run",
        "wall_s": f"{ops} operations, {len(per_input)} inputs at their "
                  f"least over {len(passes)} passes",
        "ops_per_s": f"{ops} operations per pass",
        "op_p50_ms": f"{len(per_op)} samples",
        "op_tail_ms": f"p{tail_p}, {len(per_op)} samples, {beyond} beyond",
        "peak_rss_mb": "whole process",
    }
    return metrics, notes


def traced_cycles(workload, tracer, count: int,
                  deadline: float) -> list[dict]:
    """Traced set-up plus traced pass, repeated; one record per cycle."""
    cycles = []
    start = perf_counter()
    while len(cycles) < count and (len(cycles) < MIN_PASSES
                                   or perf_counter() - start < deadline):
        workload.setup()
        setup_calls, setup_self = tracer.fold()
        result = workload.run_pass()
        pass_calls, pass_self = tracer.fold()
        counts = {f"{t}.calls": setup_calls[t] + pass_calls[t]
                  for t in tracer.targets}
        counts.update(tracer.take_counters())
        counts["report.json_bytes"] = result.json_bytes
        counts["lut.table_entries"] = workload.table_entries
        counts["ops_per_pass"] = result.attempted
        cycles.append({"result": result, "counts": counts,
                       "pass_calls": pass_calls,
                       "self_s": {t: setup_self[t] + pass_self[t]
                                  for t in tracer.targets}})
    return cycles


def per_layer(tracer, cycles: list[dict], untraced: list,
              lines: list[str]) -> tuple[dict[str, float], bool]:
    first = cycles[0]
    metrics: dict[str, float] = dict(first["counts"])
    for t in tracer.targets:
        metrics[f"{t}.self_s"] = statistics.median(c["self_s"][t]
                                                   for c in cycles)
    ops = first["counts"]["ops_per_pass"]
    for t in ("lut.validate_step", "fixarith.FixProfile.validate",
              "exact.cmp_sqrt"):
        metrics[f"{t}.calls_per_op"] = first["pass_calls"][t] / ops
    traced_wall = sum(one_pass_seconds([c["result"] for c in cycles]))
    untraced_wall = sum(one_pass_seconds(untraced))
    metrics["trace_overhead_frac"] = traced_wall / untraced_wall - 1
    lines.append(f"ratios per operation use ops_per_pass = {ops}; "
                 f"traced wall_s {traced_wall:.6g} over untraced "
                 f"{untraced_wall:.6g}")
    differing = sorted(k for c in cycles[1:] for k, v in c["counts"].items()
                       if v != first["counts"][k])
    lines.append(f"count self-check over {len(cycles)} traced cycles: "
                 + ("pass" if not differing else f"FAIL {differing}"))
    return metrics, not differing


def run_one(args, bench: dict, spec: dict) -> int:
    sys.path.insert(0, str(SRC))
    from tracer import Tracer
    from workloads import WORKLOADS

    wl_spec = dict(spec["workloads"][args.workload], name=args.workload)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    lines = [f"workload {args.workload}, seed {args.seed}, "
             f"python {platform.python_version()}, nproc {os.cpu_count()}, "
             f"trace {args.trace}"]
    try:
        workload = WORKLOADS[args.workload](wl_spec, spec["profiles"],
                                            args.seed, work)
        deadline = DEADLINE_FACTOR * args.seconds
        if not args.trace:
            setups, passes = run_passes(
                workload, wl_spec, pass_count(wl_spec, args.seconds), deadline)
            metrics, notes = end_to_end(wl_spec, setups, passes)
            counts_ok = True
            wanted = bench["end_to_end"]
        else:
            count = pass_count(wl_spec, args.seconds / 2)
            _, untraced = run_passes(workload, wl_spec, count, deadline / 2)
            targets = [m["name"][:-len(".calls")] for m in bench["per_layer"]
                       if m["name"].endswith(".calls")]
            tracer = Tracer(targets)
            with tracer:
                cycles = traced_cycles(workload, tracer, count, deadline / 2)
            passes = untraced + [c["result"] for c in cycles]
            metrics, counts_ok = per_layer(tracer, cycles, untraced, lines)
            notes = {}
            wanted = bench["per_layer"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    for m in wanted:
        note = notes.get(m["name"])
        lines.append(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}"
                     + (f"  ({note})" if note else ""))
    attempted = sum(p.attempted for p in passes)
    refused = sum(p.refused for p in passes)
    failed = sum(p.failed for p in passes)
    wrong = [w for p in passes for w in p.wrong]
    lines.append(f"refused_frac = {refused / attempted:.6g}  "
                 f"({refused} of {attempted} typed refusals)")
    lines.append(f"failed_frac = {failed / attempted:.6g}  "
                 f"({failed} of {attempted} failed)")
    for message in sorted(set(wrong))[:10]:
        print(f"wrong output: {message}", file=sys.stderr)
    correct = not wrong and counts_ok
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


def run_all(args, spec: dict) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        out = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not out:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(out[-1])
        print("\n".join(f"{name}: {line}" for line in out[:-1]))
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "certisqrt" / "__init__.py").is_file():
        print(f"error: no certisqrt sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in spec["workloads"]:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args, bench, spec)


if __name__ == "__main__":
    sys.exit(main())
