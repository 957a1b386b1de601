"""One workload in one fresh interpreter: set up, run whole rounds, check.

run.py starts this script with the BLAS thread counts pinned to one and
``src`` on PYTHONPATH. It imports projsep, builds the workload's inputs,
then repeats the workload's fixed work in whole rounds until the time is
spent, checking every round's outputs. The last line of its standard
output is one JSON object: the set-up end time, the round wall times, the
operation counts, the check verdict, the peak resident memory and, when
traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

MIN_ROUNDS = 3
OUT_DIR = Path(__file__).resolve().parent / "out"


def _dispatch(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; returns its exit code and stderr."""
    import projsep.cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = projsep.cli.dispatch(argv)
    return code, err.getvalue()


class EllipsoidPhase:
    """Criterion 6's hyperplane sweep through ``run_ellipsoid_phase``.

    The sweep seed stays 2024 whatever ``--seed`` is: which decisions come
    out Indeterminate depends on the draws, and a fixed seed keeps the
    failed share of the operations the same in every run.
    """

    n, zetas, trials, sweep_seed, max_iter = 40, (100.0, 200.0, 300.0, 400.0), 21, 2024, 4000
    ops = len(zetas) * n * trials  # projected-pair decisions per round

    def __init__(self, seed: int, workdir: Path) -> None:
        self.ms = tuple(range(1, self.n + 1))
        self.first = None

    def setup(self) -> None:
        pass

    def run(self):
        import projsep

        return projsep.run_ellipsoid_phase(
            self.n, self.zetas, self.ms, trials=self.trials, seed=self.sweep_seed,
            variant="hyperplane", max_iter=self.max_iter,
        )

    def failed(self, grid) -> int:
        return int(grid.indeterminate.sum())

    def check(self, grid) -> None:
        import checks

        counts = (grid.successes.tolist(), grid.indeterminate.tolist())
        self.first = self.first or counts
        checks.require(counts == self.first, "sweep counts changed between rounds")
        checks.require(tuple(grid.axis2) == self.ms and grid.trials == self.trials,
                       "sweep axes or trials are wrong")
        checks.check_ellipsoid_grid(
            self.ms, self.trials, grid.successes, grid.indeterminate,
            grid.meta["mean_sq_bound"], self.n,
        )


class ConePhase:
    """Criterion 1's sweep through ``projsep cone-phase``; the sweep seed is ``--seed``."""

    n, trials = 100, 50
    alphas = (math.pi / 8, math.pi / 4, 3 * math.pi / 8)
    ops = len(alphas) * n * trials  # null-space tests per round

    def __init__(self, seed: int, workdir: Path) -> None:
        self.out = workdir / "cone.csv"
        self.argv = [
            "cone-phase", "--n", str(self.n), "--grid", ",".join(repr(a) for a in self.alphas),
            "--trials", str(self.trials), "--seed", str(seed), "--out", str(self.out),
        ]
        self.first = None

    def setup(self) -> None:
        pass

    def run(self):
        return _dispatch(self.argv)

    def failed(self, result) -> int:
        return 0  # the exact test cannot fail; a CLI error fails the check

    def check(self, result) -> None:
        import checks

        code, err = result
        checks.require(code == 0, f"cone-phase exited {code}: {err.strip()[-200:]}")
        checks.require(self.out.with_suffix(".meta.json").is_file(), "no .meta.json sidecar")
        text = self.out.read_text()
        self.first = self.first or text
        checks.require(text == self.first, "grid CSV changed between rounds")
        rows = checks.read_phase_csv(text)
        checks.check_cone_grid(rows, self.n, self.alphas, self.trials)


class Classify:
    """``projsep plan`` then ``projsep classify`` on criterion 9's mixture.

    Five ellipsoid classes in R^200 centred at 30 e_k with shapes A A^T,
    A Gaussian / sqrt(200), 200 points each drawn uniformly inside; the
    mixture is drawn from ``--seed`` and the split seed is ``--seed + 1``.
    """

    n, per_class, classes, budget = 200, 200, 5, 0.1
    ops = 2  # CLI commands per round

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.classes_path = workdir / "classes.json"
        self.data_path = workdir / "data.csv"
        self.plan_path = workdir / "plan.json"
        self.report_path = workdir / "report.csv"
        self.reference_m = None

    def setup(self) -> None:
        import numpy as np
        from projsep.classify import Dataset, save_dataset

        rng = np.random.default_rng(self.seed)
        self.centers, self.shapes, blocks = [], [], []
        for k in range(self.classes):
            center = np.zeros(self.n)
            center[k] = 30.0
            a = rng.standard_normal((self.n, self.n)) / math.sqrt(self.n)
            shape = a @ a.T
            x = rng.standard_normal((self.per_class, self.n))
            x *= (rng.random(self.per_class) ** (1.0 / self.n) / np.linalg.norm(x, axis=1))[:, None]
            blocks.append(center + x @ shape.T)
            self.centers.append(center)
            self.shapes.append(shape)
        entries = [{"center": c.tolist(), "shape": s.tolist()} for c, s in zip(self.centers, self.shapes)]
        self.classes_path.write_text(json.dumps({"classes": entries}))
        labels = np.repeat(np.arange(self.classes), self.per_class)
        save_dataset(Dataset(np.vstack(blocks), labels), self.data_path)

    def run(self):
        code, err = _dispatch(["plan", "--classes", str(self.classes_path),
                               "--p", str(self.budget), "--out", str(self.plan_path)])
        if code != 0:
            return [code, None], err, None
        m = json.loads(self.plan_path.read_text())["m"]
        argv = ["classify", "--data", str(self.data_path), "--seed", str(self.seed + 1),
                "--tol", "0", "--max-iters", "2000", "--out", str(self.report_path)]
        for method in ("identity", f"rp:{m}", f"pca:{m}"):
            argv += ["--method", method]
        code2, err2 = _dispatch(argv)
        return [code, code2], err + err2, m

    def failed(self, result) -> int:
        return sum(code != 0 for code in result[0])

    def check(self, result) -> None:
        import checks

        codes, err, m = result
        checks.require(codes == [0, 0], f"exit codes {codes}: {err.strip()[-200:]}")
        if self.reference_m is None:
            self.reference_m = checks.reference_plan_m(self.centers, self.shapes, self.budget)
        rows = checks.read_report_csv(self.report_path.read_text())
        checks.check_classification(m, self.reference_m, rows, self.n)


WORKLOADS = {"ellipsoid_phase": EllipsoidPhase, "cone_phase": ConePhase, "classify": Classify}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import projsep  # noqa: F401  (the imports are part of set-up)
    import projsep.cli  # noqa: F401

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workload = WORKLOADS[args.workload](args.seed, Path(tmp))
        workload.setup()
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        result = run_rounds(workload, args.seconds, tracer)
    result["ready"] = ready
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(tracer.spans))
    print(json.dumps(result))
    return 0


def run_rounds(workload, seconds: float, tracer) -> dict:
    """Whole rounds until ``seconds`` would be overrun, at least MIN_ROUNDS."""
    import checks
    import spans

    walls, problems, rounds = [], [], []
    attempted = failed = 0
    setup_layers = tracer.summary() if tracer else None
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.reset()
        t0 = time.perf_counter()
        output = workload.run()
        walls.append(time.perf_counter() - t0)
        if tracer:
            rounds.append(tracer.summary())
        attempted += workload.ops
        failed += workload.failed(output)
        try:
            workload.check(output)
        except checks.CheckError as exc:
            problems.append(str(exc))
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_ROUNDS and elapsed + statistics.median(walls) > seconds:
            break
    result = {"walls": walls, "attempted": attempted, "failed": failed}
    if tracer:
        problems += tracer.problems
        problems += [
            f"count {name} changed between rounds"
            for name, unit in spans.METRICS.items()
            if unit == "count" and len({r.get(name) for r in rounds}) > 1
        ]
        result["layers"] = {
            name: {
                "value": setup_layers[name] + statistics.median(r[name] for r in rounds),
                "unit": spans.METRICS[name],
            }
            for name in setup_layers
        }
    result["correct"] = not problems
    result["problems"] = problems[:5]
    return result


if __name__ == "__main__":
    sys.exit(main())
