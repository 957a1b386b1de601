"""Command line interface.

Subcommands: bound, separate, cone-phase, ellipsoid-phase, plan, width-mc,
pca-toy, classify. Exit codes: 0 success, 1 domain error (one-line
machine-parsable reason on stderr), 2 usage error. Every run echoes its
fully resolved configuration, including the seed, as one JSON line on
stderr; rerunning with identical arguments rewrites primary output files
byte-for-byte (timing columns excepted, as wall-clock is measured).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._rng import fresh_seed
from .bodies import CircularCone, ellipsoid_from_dict
from .classify import dataset_from_arrays, load_dataset, run_pipeline, save_dataset, save_report
from .escape import plan_multiclass, required_dim_gordon
from .experiments import (
    run_cone_phase,
    run_ellipsoid_phase,
    save_phase_grid,
)
from .pca import toy_cross_polytope_balls, toy_two_balls
from .separation import decide_disjoint
from .widths import mc_width_circular, mc_width_pseudoprojection, width_bound_ellipsoids

SCHEMA_VERSION = 1

THEOREM_HYPOTHESIS_REASON = "theorem-hypothesis-violated"

# most points a lo:step:hi grid may expand to
MAX_GRID_POINTS = 100_000


def _slug(message: str) -> str:
    head = message.split("\n", 1)[0].split(":", 1)[0]
    slug = re.sub(r"[^a-z0-9]+", "-", head.lower()).strip("-")
    return slug or "domain-error"


def parse_grid(text: str) -> list[float]:
    """Grid syntax: ``lo:step:hi`` (inclusive), comma list, or one number."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be lo:step:hi, got {text!r}")
        lo, step, hi = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (lo, step, hi)):
            raise ValueError("grid lo, step and hi must be finite")
        if step <= 0.0 or hi < lo:
            raise ValueError(f"grid must advance from lo to hi, got {text!r}")
        # the range has floor(span) + 1 points; an infinite span has too many
        span = (hi - lo) / step + 1e-9
        if span >= MAX_GRID_POINTS:
            raise ValueError(f"grid has more than {MAX_GRID_POINTS} points")
        return [lo + k * step for k in range(int(math.floor(span)) + 1)]
    if "," in text:
        return [float(p) for p in text.split(",") if p]
    return [float(text)]


def parse_int_grid(text: str) -> list[int]:
    values = parse_grid(text)
    out = []
    for v in values:
        if abs(v - round(v)) > 1e-9:
            raise ValueError(f"grid value {v} is not an integer")
        out.append(int(round(v)))
    return out


def _load_json(path: str) -> dict:
    return json.loads(Path(path).read_text())


def _load_pair(path: str):
    data = _load_json(path)
    if not (isinstance(data, dict) and "e1" in data and "e2" in data):
        raise ValueError("pair file must hold an object with keys e1 and e2")
    return ellipsoid_from_dict(data["e1"]), ellipsoid_from_dict(data["e2"])


def _first_axis(n: int, value: float = 1.0) -> np.ndarray:
    """``value`` times the first standard basis vector of R^n."""
    if n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")
    axis = np.zeros(n)
    axis[0] = value
    return axis


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _echo_config(args: argparse.Namespace, resolved: dict) -> None:
    config = {"command": args.command, **resolved}
    print(json.dumps(config, sort_keys=True), file=sys.stderr)


def _resolve_seed(args: argparse.Namespace) -> int:
    return fresh_seed() if args.seed is None else int(args.seed)


def _cmd_bound(args: argparse.Namespace) -> int:
    e1, e2 = _load_pair(args.pair)
    _echo_config(args, {"pair": args.pair, "eta": args.eta, "out": args.out})
    bound = width_bound_ellipsoids(e1, e2)
    if not bound.valid:
        print(f"error: {THEOREM_HYPOTHESIS_REASON}", file=sys.stderr)
        return 1
    payload = {
        "width_bound": bound.to_dict(),
        "eta": args.eta,
        "required_m": required_dim_gordon(bound.value, args.eta),
    }
    _emit(payload, args.out)
    return 0


def _cmd_separate(args: argparse.Namespace) -> int:
    e1, e2 = _load_pair(args.pair)
    _echo_config(args, {"pair": args.pair, "out": args.out})
    verdict = decide_disjoint(e1, e2)
    _emit(verdict.to_dict(), args.out)
    return 0


def _cmd_cone_phase(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    alphas = parse_grid(args.grid)
    ms = parse_int_grid(args.ms) if args.ms else list(range(1, args.n + 1))
    _echo_config(
        args,
        {
            "n": args.n,
            "grid": alphas,
            "ms": ms,
            "trials": args.trials,
            "seed": seed,
            "out": args.out,
        },
    )
    grid = run_cone_phase(args.n, alphas, ms, args.trials, seed)
    save_phase_grid(grid, args.out)
    return 0


def _cmd_ellipsoid_phase(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    zetas = parse_grid(args.grid)
    ms = parse_int_grid(args.ms) if args.ms else list(range(1, args.n + 1))
    _echo_config(
        args,
        {
            "n": args.n,
            "grid": zetas,
            "ms": ms,
            "trials": args.trials,
            "seed": seed,
            "variant": args.variant,
            "out": args.out,
        },
    )
    grid = run_ellipsoid_phase(args.n, zetas, ms, args.trials, seed, variant=args.variant)
    save_phase_grid(grid, args.out)
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    data = _load_json(args.classes)
    entries = data.get("classes") if isinstance(data, dict) else data
    if not isinstance(entries, list):
        raise ValueError("classes file must hold a list of ellipsoids")
    ellipsoids = [ellipsoid_from_dict(entry) for entry in entries]
    _echo_config(args, {"classes": args.classes, "p": args.p, "out": args.out})
    plan = plan_multiclass(ellipsoids, args.p)
    print(plan.render_table())
    if args.out:
        _emit(plan.to_dict(), args.out)
    if not plan.feasible:
        print(f"error: {THEOREM_HYPOTHESIS_REASON}", file=sys.stderr)
        return 1
    return 0


def _cmd_width_mc(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    if args.alpha is not None:
        if args.n is None:
            print("error: --alpha requires --n", file=sys.stderr)
            return 2
        _echo_config(
            args,
            {"alpha": args.alpha, "n": args.n, "trials": args.trials, "seed": seed, "out": args.out},
        )
        cone = CircularCone(_first_axis(args.n), args.alpha)
        bound = mc_width_circular(cone, args.trials, seed)
    else:
        if not args.pair:
            print("error: provide --pair or --alpha with --n", file=sys.stderr)
            return 2
        e1, e2 = _load_pair(args.pair)
        _echo_config(
            args, {"pair": args.pair, "trials": args.trials, "seed": seed, "out": args.out}
        )
        bound = mc_width_pseudoprojection(e1, e2, args.trials, seed)
        if not bound.valid:
            print(f"error: {THEOREM_HYPOTHESIS_REASON}", file=sys.stderr)
            return 1
    _emit(bound.to_dict(), args.out)
    return 0


def _cmd_pca_toy(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    _echo_config(
        args,
        {
            "kind": args.kind,
            "n": args.n,
            "radius": args.radius,
            "center_norm": args.center_norm,
            "samples": args.samples,
            "seed": seed,
            "out": args.out,
        },
    )
    if args.kind == "two-balls":
        center = _first_axis(args.n, args.center_norm)
        points = toy_two_balls(args.n, center, args.radius, args.samples, seed)
    else:
        points = toy_cross_polytope_balls(args.n, args.radius, args.samples, seed)
    save_dataset(dataset_from_arrays(points.features, points.labels), args.out)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    methods = args.method or ["identity"]
    _echo_config(
        args,
        {
            "data": args.data,
            "ratio": args.ratio,
            "methods": methods,
            "seed": seed,
            "l2": args.l2,
            "max_iters": args.max_iters,
            "tol": args.tol,
            "out": args.out,
        },
    )
    data = load_dataset(args.data)
    reports = run_pipeline(
        data,
        args.ratio,
        methods,
        seed,
        l2=args.l2,
        max_iters=args.max_iters,
        tol=args.tol,
    )
    for report in reports:
        print(
            f"{report.method}\tM={report.m}\terror={report.error:.4f}"
            f"\ttrain_seconds={report.train_seconds:.3f}"
        )
    if args.out:
        save_report(reports, args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="projsep",
        description="Random-projection separability toolkit",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"projsep {__version__} (schema {SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p: argparse.ArgumentParser, seed: bool = True) -> None:
        p.add_argument("--config", help="JSON file of defaults merged under explicit flags")
        if seed:
            p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("bound", help="closed-form width bound and required dimension")
    p.add_argument("--pair", required=True, help="JSON file with ellipsoids e1, e2")
    p.add_argument("--eta", type=float, default=0.01)
    p.add_argument("--out")
    common(p, seed=False)
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("separate", help="decide disjointness with certificate")
    p.add_argument("--pair", required=True)
    p.add_argument("--out")
    common(p, seed=False)
    p.set_defaults(handler=_cmd_separate)

    p = sub.add_parser("cone-phase", help="cone angle vs projected dimension sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", required=True, help="half-angles, lo:step:hi or list")
    p.add_argument("--ms", help="projected dimensions, defaults to 1..n")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(handler=_cmd_cone_phase)

    p = sub.add_parser("ellipsoid-phase", help="center gap vs projected dimension sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", required=True, help="center gaps, lo:step:hi or list")
    p.add_argument("--ms", help="projected dimensions, defaults to 1..n")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--variant", choices=("general", "hyperplane"), default="general")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(handler=_cmd_ellipsoid_phase)

    p = sub.add_parser("plan", help="projection dimension plan for many classes")
    p.add_argument("--classes", required=True, help="JSON list of ellipsoids")
    p.add_argument("--p", type=float, default=0.1, help="total failure budget")
    p.add_argument("--out")
    common(p, seed=False)
    p.set_defaults(handler=_cmd_plan)

    p = sub.add_parser("width-mc", help="Monte Carlo width estimate")
    p.add_argument("--pair")
    p.add_argument("--alpha", type=float, default=None, help="circular cone half-angle")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--out")
    common(p)
    p.set_defaults(handler=_cmd_width_mc)

    p = sub.add_parser("pca-toy", help="write a ball-mixture dataset CSV")
    p.add_argument("--kind", choices=("two-balls", "cross-polytope"), default="two-balls")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--center-norm", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=1000, help="samples per ball")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(handler=_cmd_pca_toy)

    p = sub.add_parser("classify", help="projection vs PCA classification pipeline")
    p.add_argument("--data", required=True)
    p.add_argument("--ratio", type=float, default=0.5)
    p.add_argument("--method", action="append", help="identity, rp:M, or pca:M")
    p.add_argument("--l2", type=float, default=1e-4)
    p.add_argument("--max-iters", type=int, default=5000)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out")
    common(p)
    p.set_defaults(handler=_cmd_classify)

    return parser


def _with_config(args: argparse.Namespace, argv: list[str]) -> list[str]:
    """The arguments with the config file's values inserted as flags ahead of them.

    argparse keeps the last value given for a flag, so explicit flags, in
    full or abbreviated, override the file, and every value passes through
    its flag's type. A list value repeats its flag, unless the flag was given.
    """
    config = _load_json(args.config)
    if not isinstance(config, dict):
        raise ValueError("config file must hold a JSON object")
    flags = []
    for key, value in config.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ValueError(f"config key {key!r} is not a flag of this subcommand")
        if isinstance(value, list) and getattr(args, attr) is not None:
            continue
        flag = "--" + key.replace("_", "-")
        flags += [f"{flag}={v}" for v in (value if isinstance(value, list) else [value])]
    at = argv.index(args.command) + 1
    return argv[:at] + flags + argv[at:]


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_usage(sys.stderr)
            return 2
        if args.config:
            args = parser.parse_args(_with_config(args, list(argv)))
        return args.handler(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {_slug(str(exc))}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
