#!/usr/bin/env python3
"""Steadiness check: repeat the benchmark and hold its figures to its bounds.

    python3 perfbench/steady.py [--workload NAME ...]

For each workload (all of them unless ``--workload`` names some), runs
``run.py`` untraced for BENCHMARK.json's ``run_seconds`` in two sets of
RUNS runs, the first with seeds 1..RUNS and the second with seeds
RUNS+1..2*RUNS, and then twice traced with seed 1. Every workload's first
set runs before any second set, so the two sets are minutes apart. For
each end-to-end metric it prints both sets' medians and quartile spreads
(Q3 - Q1 over the median, as ``statistics.quantiles(values, n=4)`` gives
them) next to the metric's bound. It exits 1 when a run, traced or not,
is not correct, when the failed share of the operations differs between
runs, when a spread exceeds its bound, when the two medians differ by more
than the bound (as a share of the first), or when a per-layer count
differs between the two traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: {json.dumps(result)}", flush=True)
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    workloads = parser.parse_args().workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    sets = {workload: [] for workload in workloads}
    for first_seed in (1, RUNS + 1):
        for workload in workloads:
            sets[workload].append(
                [run(workload, seed, seconds, 0) for seed in range(first_seed, first_seed + RUNS)])

    problems = []
    for workload, (one, two) in sets.items():
        shares = {r["failed"] / r["attempted"] for r in one + two}
        print(f"{workload}: failed shares {sorted(shares)}")
        if len(shares) != 1 or not all(r["correct"] for r in one + two):
            problems.append(f"{workload}: incorrect run or unequal failed shares")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians, spreads = [], []
            for results in (one, two):
                values = [r["metrics"][name]["value"] for r in results]
                q1, _, q3 = statistics.quantiles(values, n=4)
                medians.append(statistics.median(values))
                spreads.append((q3 - q1) / medians[-1])
            shift = medians[1] / medians[0] - 1
            print(f"  {name}: medians {medians[0]:.4f} / {medians[1]:.4f} {metric['unit']} "
                  f"(shift {shift:+.3f}), spreads {spreads[0]:.3f} / {spreads[1]:.3f} "
                  f"(bound {bound})")
            if max(spreads) > bound:
                problems.append(f"{workload}: {name} spread {max(spreads):.3f}")
            if abs(shift) > bound:
                problems.append(f"{workload}: {name} median moved {shift:+.3f}")
        traced = [run(workload, 1, seconds, 1) for _ in range(2)]
        if not all(r["correct"] for r in traced):
            problems.append(f"{workload}: incorrect traced run")
        traced = [r["metrics"] for r in traced]
        for metric in bench["per_layer"]:
            name = metric["name"]
            if metric["unit"] == "count" and traced[0][name] != traced[1][name]:
                problems.append(f"{workload}: count {name} did not repeat")
    for problem in problems:
        print(f"unsteady: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
