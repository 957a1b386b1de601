#!/usr/bin/env python3
"""projsep benchmark: one workload per call, checked, as one JSON line.

    python3 perfbench/run.py --workload {ellipsoid_phase,cone_phase,classify} \
        --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; projsep is imported from its
``src``. Each call pins the BLAS thread pools to one thread, starts and
discards one interpreter to warm the bytecode and page caches, and runs
the workload in a fresh child process (child.py) for ``--seconds``.
``setup_s`` is the median over SETUP_SPAWNS fresh interpreters, that
child and interpreters that only set up, half of them started before it
and half after, of the time up to the point where the workload's inputs
are ready. The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with ``setup_s``, ``wall_s`` and ``peak_rss_mb`` when ``--trace 0``, and
the per-layer metrics of a traced child when ``--trace 1``. Progress and
errors go to standard error. The exit code is not 0 when a child could not
run at all (for example, when ``src/projsep`` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ellipsoid_phase", "cone_phase", "classify")
SETUP_SPAWNS = 7
TIME_LIMIT_S = 170.0
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list[str], env: dict[str, str], deadline: float) -> tuple[float, dict]:
    """Run one child to its end; returns its start time and its last JSON line."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, *args], env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(deadline - started, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{args[:3]} ran out of time") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{args[:3]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        return started, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise ChildFailed(f"{args[:3]} printed no result") from None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "projsep" / "__init__.py").is_file():
        print(f"error: no projsep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    check_import = (
        "import sys, projsep, projsep.cli; "
        f"sys.exit(not projsep.__file__.startswith({str(ROOT / 'src')!r}))"
    )
    child = [str(HERE / "child.py"), "--workload", args.workload, "--seed", str(args.seed)]
    try:
        warm = subprocess.run([sys.executable, "-c", check_import], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if warm.returncode != 0:
            raise ChildFailed(f"projsep does not import from src: {warm.stderr.strip()[-2000:]}")
        if args.trace:
            plain = spawn(child + ["--seconds", str(args.seconds / 2)], env, deadline)[1]
            traced = spawn(child + ["--seconds", str(args.seconds / 2), "--trace", "1"],
                           env, deadline)[1]
            runs = [plain, traced]
            metrics = traced["layers"]
            overhead = statistics.median(traced["walls"]) - statistics.median(plain["walls"])
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        else:
            def setup_only() -> float:
                started, out = spawn(child + ["--seconds", "0", "--setup-only"], env, deadline)
                return out["ready"] - started

            setups = [setup_only() for _ in range(SETUP_SPAWNS // 2)]
            started, main_run = spawn(child + ["--seconds", str(args.seconds)], env, deadline)
            setups.append(main_run["ready"] - started)
            setups += [setup_only() for _ in range(SETUP_SPAWNS - len(setups))]
            runs = [main_run]
            values = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(main_run["walls"]),
                "peak_rss_mb": main_run["peak_rss_mb"],
            }
            units = {m["name"]: m["unit"]
                     for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
            metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for run in runs:
        for problem in run["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
