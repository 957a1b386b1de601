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
from .bodies import CircularCone, _json_value, ellipsoid_from_dict
from .classify import (DEFAULT_L2, DEFAULT_MAX_ITERS, DEFAULT_TOL, dataset_from_arrays,
                       load_dataset, run_pipeline, save_dataset, save_report)
from .escape import plan_multiclass, required_dim_gordon
from .experiments import run_cone_phase, run_ellipsoid_phase, save_phase_grid
from .pca import toy_cross_polytope_balls, toy_two_balls
from .separation import decide_disjoint
from .widths import WidthBound, mc_width_circular, mc_width_pseudoprojection, width_bound_ellipsoids

SCHEMA_VERSION = 1

# most points a lo:step:hi grid may expand to
MAX_GRID_POINTS = 100_000


def _slug(message: str) -> str:
    """The first line's text before its first ``: `` as a slug, then ``: `` and the rest, if any."""
    head, _, reason = message.split("\n", 1)[0].partition(": ")
    slug = re.sub(r"[^a-z0-9]+", "-", head.lower()).strip("-") or "domain-error"
    reason = reason.strip()
    return f"{slug}: {reason}" if reason else slug


def parse_grid(text: str) -> list[float]:
    """Grid syntax: ``lo:step:hi`` (inclusive), comma list, or one number."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"malformed grid: expected lo:step:hi, got {text!r}")
        lo, step, hi = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (lo, step, hi)):
            raise ValueError("grid lo, step and hi must be finite")
        if step <= 0.0 or hi < lo:
            raise ValueError(f"grid does not advance: expected step > 0 and hi >= lo, got {text!r}")
        # the range has floor(span) + 1 points; an infinite span has too many
        span = (hi - lo) / step + 1e-9
        if span >= MAX_GRID_POINTS:
            raise ValueError(f"grid too long: more than {MAX_GRID_POINTS} points")
        return [lo + k * step for k in range(int(math.floor(span)) + 1)]
    if "," in text:
        return [float(p) for p in text.split(",") if p]
    return [float(text)]


def parse_int_grid(text: str) -> list[int]:
    values = parse_grid(text)
    out = []
    for v in values:
        if not math.isfinite(v) or abs(v - round(v)) > 1e-9:
            raise ValueError(f"non-integer grid value: got {v}")
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
        raise ValueError(f"--n out of range: expected at least 1, got {n}")
    axis = np.zeros(n)
    axis[0] = value
    return axis


def _emit(payload, out: str | None) -> None:
    text = json.dumps(_json_value(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _echo_config(args: argparse.Namespace, **resolved) -> None:
    """Echo the parsed flags, each under its own name, with the values the handler resolved."""
    config = {key: value for key, value in vars(args).items() if key not in ("handler", "config")}
    echo = _json_value({**config, **resolved})
    print(json.dumps(echo, sort_keys=True, allow_nan=False), file=sys.stderr)


def _valid(bound: WidthBound) -> WidthBound:
    """The bound, refused unless the hypothesis of the theorem behind it holds."""
    if not bound.valid:
        raise ValueError("theorem-hypothesis-violated")
    return bound


def _sweep_axes(args: argparse.Namespace) -> tuple[list[float], list[int]]:
    """A phase sweep's parameter grid and projected dimensions, echoed with its flags."""
    grid = parse_grid(args.grid)
    ms = parse_int_grid(args.ms) if args.ms else list(range(1, args.n + 1))
    _echo_config(args, grid=grid, ms=ms)
    return grid, ms


def _cmd_bound(args: argparse.Namespace) -> int:
    e1, e2 = _load_pair(args.pair)
    _echo_config(args)
    bound = _valid(width_bound_ellipsoids(e1, e2))
    payload = {
        "width_bound": bound,
        "eta": args.eta,
        "required_m": required_dim_gordon(bound.value, args.eta),
    }
    _emit(payload, args.out)
    return 0


def _cmd_separate(args: argparse.Namespace) -> int:
    e1, e2 = _load_pair(args.pair)
    _echo_config(args)
    verdict = decide_disjoint(e1, e2)
    _emit(verdict, args.out)
    return 0


def _cmd_cone_phase(args: argparse.Namespace) -> int:
    alphas, ms = _sweep_axes(args)
    grid = run_cone_phase(args.n, alphas, ms, args.trials, args.seed)
    save_phase_grid(grid, args.out)
    return 0


def _cmd_ellipsoid_phase(args: argparse.Namespace) -> int:
    zetas, ms = _sweep_axes(args)
    grid = run_ellipsoid_phase(args.n, zetas, ms, args.trials, args.seed, variant=args.variant)
    save_phase_grid(grid, args.out)
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    data = _load_json(args.classes)
    entries = data.get("classes") if isinstance(data, dict) else data
    if not isinstance(entries, list):
        raise ValueError("classes file must hold a list of ellipsoids")
    ellipsoids = [ellipsoid_from_dict(entry) for entry in entries]
    _echo_config(args)
    plan = plan_multiclass(ellipsoids, args.p)
    print(plan.render_table())
    if args.out:
        _emit(plan, args.out)
    if not plan.feasible:
        # the first pair without a dimension says why: its bound does not
        # apply, or its width needs a dimension beyond the doubles, which
        # required_dim_gordon refuses again with the message in bound.reason
        pair = next(pair for pair in plan.pairs if pair.m_required is None)
        required_dim_gordon(_valid(pair.bound).value, pair.eta)
    return 0


def _cmd_width_mc(args: argparse.Namespace) -> int:
    if args.alpha is not None:
        if args.n is None:
            print("error: --alpha requires --n", file=sys.stderr)
            return 2
        _echo_config(args)
        cone = CircularCone(_first_axis(args.n), args.alpha)
        bound = mc_width_circular(cone, args.trials, args.seed)
    else:
        if not args.pair:
            print("error: provide --pair or --alpha with --n", file=sys.stderr)
            return 2
        e1, e2 = _load_pair(args.pair)
        _echo_config(args)
        bound = _valid(mc_width_pseudoprojection(e1, e2, args.trials, args.seed))
    _emit(bound, args.out)
    return 0


def _cmd_pca_toy(args: argparse.Namespace) -> int:
    _echo_config(args)
    if args.kind == "two-balls":
        center = _first_axis(args.n, args.center_norm)
        points = toy_two_balls(args.n, center, args.radius, args.samples, args.seed)
    else:
        points = toy_cross_polytope_balls(args.n, args.radius, args.samples, args.seed)
    save_dataset(dataset_from_arrays(points.features, points.labels), args.out)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    methods = args.method or ["identity"]
    _echo_config(args, methods=methods)
    data = load_dataset(args.data)
    reports = run_pipeline(
        data,
        args.ratio,
        methods,
        args.seed,
        l2=args.l2,
        max_iters=args.max_iters,
        tol=args.tol,
    )
    for report in reports:
        print(
            f"{report.method}\tM={report.m}\terror={report.error:.4f}"
            f"\ttrain_seconds={report.train_seconds:.3f}"
            f"\tsteps={report.steps}\tconverged={report.converged}"
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
    p.add_argument("--l2", type=float, default=DEFAULT_L2)
    p.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
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
            raise ValueError(f"unknown config key: {key!r} is not a flag of this subcommand")
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
        if "seed" in vars(args) and args.seed is None:
            args.seed = fresh_seed()
        return args.handler(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {_slug(str(exc))}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out-of-memory", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
