"""Per-layer tracing from outside the program.

``install`` replaces each traced public function by a wrapper under the
name through which its calling module looks it up (``projsep.experiments.
decide_disjoint``, ``projsep.cli.load_dataset``, ...); the program's files
stay untouched. Each call records a span (name, start, end, parent) in
memory. A layer's self time is its spans' time minus their child spans'.
A name the program no longer has is skipped, never an error. The
``projsep._rng`` layer is named ``rng`` in metric names, which must start
with a letter or a digit.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks

clock = time.perf_counter

# traced layer -> projsep modules whose global of that name is wrapped
LAYERS = {
    "separation.decide_disjoint": ("experiments", "cli"),
    "separation.nullspace_avoids_cone": ("experiments",),
    "bodies.make_ellipsoid": ("bodies", "experiments"),
    "bodies.Ellipsoid": ("experiments",),
    "bodies.ellipsoid_from_dict": ("cli",),
    "rng.substream": ("_rng", "experiments", "classify"),
    "experiments.sample_wishart_shape": ("experiments",),
    "experiments.run_ellipsoid_phase": ("", "cli"),
    "experiments.run_cone_phase": ("cli",),
    "experiments.save_phase_grid": ("cli",),
    "widths.width_bound_ellipsoids": ("experiments", "escape"),
    "escape.plan_multiclass": ("cli",),
    "pca.principal_subspace": ("classify",),
    "classify.save_dataset": ("classify", "cli"),
    "classify.load_dataset": ("cli",),
    "classify.train_mlr": ("classify",),
    "cli.dispatch": ("cli",),
}

# per-layer metric -> unit, as BENCHMARK.json lists them
METRICS = {
    metric["name"]: metric["unit"]
    for metric in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                             .read_text())["per_layer"]
}

OBSERVE = "bench.observe"
NULLSPACE_SAMPLE_STRIDE = 25


class Tracer:
    """Spans and counters of one traced child process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.problems: list[str] = []
        self.nullspace_seen = 0

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.samples.clear()

    def wrap(self, name: str, fn, observe=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if observe is not None:
                # a sibling span, so checking is not billed to the caller
                start = clock()
                observe(self, args, kwargs, result)
                spans.append([OBSERVE, start, clock(), stack[-1] if stack else -1])
            return result

        return traced

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counters recorded so far."""
        child_time = np.zeros(len(self.spans))
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            self_s[name] += end - start - inner
            durations[name].append(end - start)
        out = {}
        for metric in METRICS:
            layer, _, kind = metric.rpartition(".")
            if layer not in LAYERS:
                continue
            calls = durations.get(layer, [])
            if kind == "calls":
                out[metric] = len(calls)
            elif kind == "self_s":
                out[metric] = self_s.get(layer, 0.0)
            elif kind in ("p50_ms", "p99_ms"):
                q = 50 if kind == "p50_ms" else 99
                out[metric] = float(np.percentile(calls, q)) * 1e3 if calls else 0.0
            elif kind == "iterations_p99":
                its = self.samples.get(layer + ".iterations", [])
                out[metric] = float(np.percentile(its, 99)) if its else 0.0
            elif kind == "step_ms":
                steps = self.counters.get(layer + ".steps", 0)
                out[metric] = self_s.get(layer, 0.0) * 1e3 / steps if steps else 0.0
            else:
                out[metric] = self.counters.get(metric, 0)
        return out


def _observe_decision(tracer: Tracer, args, kwargs, verdict) -> None:
    name = "separation.decide_disjoint"
    tracer.counters[name + ".iterations"] += verdict.iterations
    tracer.samples[name + ".iterations"].append(verdict.iterations)
    e1, e2 = args[0], args[1]
    c1, b1, c2, b2 = e1.center, e1.shape, e2.center, e2.shape
    try:
        if verdict.state == "Indeterminate":
            tracer.counters[name + ".indeterminate"] += 1
        elif verdict.state == "Disjoint":
            checks.check_disjoint_certificate(c1, b1, c2, b2, verdict.certificate)
        else:
            tol = kwargs.get("tol", args[2] if len(args) > 2 else 1e-7)
            checks.check_intersecting_witness(c1, b1, c2, b2, *verdict.witness, tol)
    except checks.CheckError as exc:
        tracer.problems.append(f"decide_disjoint: {exc}")


def _observe_nullspace(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["separation.nullspace_avoids_cone.rank_deficient"] += result.rank_deficient
    tracer.nullspace_seen += 1
    if tracer.nullspace_seen % NULLSPACE_SAMPLE_STRIDE:
        return
    matrix, cone = np.asarray(args[0]), args[1]
    try:
        checks.check_nullspace_test(matrix, cone.axis, cone.half_angle, result.avoids)
    except checks.CheckError as exc:
        tracer.problems.append(f"nullspace_avoids_cone: {exc}")


def _observe_training(tracer: Tracer, args, kwargs, model) -> None:
    tracer.counters["classify.train_mlr.steps"] += len(model.loss_trace) - 1


OBSERVERS = {
    "separation.decide_disjoint": _observe_decision,
    "separation.nullspace_avoids_cone": _observe_nullspace,
    "classify.train_mlr": _observe_training,
}


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced name the program has; returns the names wrapped."""
    wrapped = []
    for layer, modules in LAYERS.items():
        attr = layer.rpartition(".")[2]
        for module_name in modules:
            try:
                module = importlib.import_module("projsep" + ("." + module_name if module_name else ""))
            except ModuleNotFoundError:
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, tracer.wrap(layer, original, OBSERVERS.get(layer)))
            wrapped.append(f"{module.__name__}.{attr}")
    return wrapped
