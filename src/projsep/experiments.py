"""Phase-transition experiment harnesses and their CSV output.

Grids sweep a geometry parameter (cone half-angle or center gap) against
the projected dimension M, counting disjointness successes per cell. Each
trial derives its own RNG substream from the master seed and draws one
Gaussian matrix, whose first M rows project for every M, so a cell's count
does not depend on evaluation order or on the rest of the grid, and every
row of counts is non-decreasing in M.

CSV schema: header ``param,M,trials,successes,indeterminate``, one row per
cell, param formatted with six decimals. A sibling ``<name>.meta.json``
records the resolved configuration and extras.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ._rng import substream
from .bodies import CircularCone, Ellipsoid, make_ellipsoid
from .separation import DISJOINT, INDETERMINATE, decide_disjoint
from .widths import width_bound_ellipsoids

CSV_HEADER = ("param", "M", "trials", "successes", "indeterminate")

CONE_KIND = "cone-phase"
ELLIPSOID_GENERAL_KIND = "ellipsoid-phase-general"
ELLIPSOID_HYPERPLANE_KIND = "ellipsoid-phase-hyperplane"


@dataclass
class PhaseGrid:
    """Success counts over a (parameter, projected dimension) grid.

    ``successes[i, j]`` counts Disjoint verdicts for ``axis1[i]`` and
    ``axis2[j]``; each row is non-decreasing in M, since disjointness under
    a matrix's first M rows implies it under its first M + 1. ``indeterminate``
    tallies verdicts whose certificate and witness both failed their checks
    (they count as failures in the success ratio).
    """

    axis1: tuple[float, ...]
    axis2: tuple[int, ...]
    trials: int
    successes: np.ndarray
    indeterminate: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        expected = (len(self.axis1), len(self.axis2))
        if self.successes.shape != expected or self.indeterminate.shape != expected:
            raise ValueError("count matrices must be axis1-by-axis2")
        if np.any(self.successes < 0) or np.any(self.successes > self.trials):
            raise ValueError("successes must lie in [0, trials]")
        if np.any(np.diff(self.successes, axis=1) < 0):
            raise ValueError("successes must not fall as M grows")
        if np.any(self.indeterminate < 0) or np.any(self.indeterminate > self.trials):
            raise ValueError("indeterminate counts must lie in [0, trials]")

    @property
    def success_ratio(self) -> np.ndarray:
        return self.successes / float(self.trials)


@dataclass(frozen=True)
class TransitionEstimate:
    """Interpolated success-level crossing for one parameter value.

    ``band`` holds the 5% and 95% crossings; endpoints are NaN when the
    grid never reaches that level. ``flag`` marks saturated rows
    ("all-success" when the first cell already meets the level,
    "all-failure" when no cell does).
    """

    param: float
    m_cross: float
    band: tuple[float, float]
    flag: str | None = None


def _validate_axis2(ms) -> tuple[int, ...]:
    ms = tuple(int(m) for m in ms)
    if not ms:
        raise ValueError("need at least one projected dimension")
    if any(m2 <= m1 for m1, m2 in zip(ms, ms[1:])):
        raise ValueError("projected dimensions must be strictly increasing")
    if ms[0] < 1:
        raise ValueError("projected dimensions must be >= 1")
    return ms


def run_cone_phase(n: int, alphas, ms, trials: int, seed: int) -> PhaseGrid:
    """Sweep circular-cone half-angles against projected dimensions.

    Each trial draws one ``ms[-1]``-by-n Gaussian matrix and projects by
    its first M rows for every M. Success means that prefix's null space
    misses the cone around the first axis: always when M = n, otherwise iff
    the axis' null-space projection is shorter than ``cos(half_angle)``.
    One QR of the transpose gives that length for every prefix. The test
    is exact, so the indeterminate tally is always zero.
    """
    if n < 1:
        raise ValueError(f"ambient dimension must be >= 1, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    alphas = tuple(float(a) for a in alphas)
    ms = _validate_axis2(ms)
    if ms[-1] > n:
        raise ValueError("projected dimensions must not exceed the ambient dimension")
    axis = np.zeros(n)
    axis[0] = 1.0
    cosines = np.array([[math.cos(CircularCone(axis, a).half_angle)] for a in alphas])
    dims = np.array(ms)
    successes = np.zeros((len(alphas), len(ms)), dtype=np.int64)
    for t in range(trials):
        matrix = substream(seed, CONE_KIND, t).standard_normal((ms[-1], n))
        q = np.linalg.qr(matrix.T)[0]
        # ||P_null(axis)||^2 = 1 - ||P_row(axis)||^2 for each row prefix
        row_sq = np.cumsum(q[0] ** 2)[dims - 1]
        null_norm = np.sqrt(np.maximum(1.0 - row_sq, 0.0))
        successes += (dims == n) | (cosines > null_norm)
    return PhaseGrid(
        axis1=alphas,
        axis2=ms,
        trials=trials,
        successes=successes,
        indeterminate=np.zeros_like(successes),
        meta=_base_meta(CONE_KIND, n, seed, trials),
    )


def sample_wishart_shape(n: int, seed, constrained_axis=None) -> np.ndarray:
    """Draw a Wishart shape matrix ``X @ X.T`` with n degrees of freedom.

    ``seed`` may be an integer or an existing Generator. ``constrained_axis``,
    if given, must be a signed standard basis vector; the matrix then
    annihilates it exactly, with an (n-1)-dimensional Wishart block on the
    other coordinates.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed, "wishart")
    if constrained_axis is None:
        x = rng.standard_normal((n, n))
        w = x @ x.T
        return 0.5 * (w + w.T)
    axis = np.asarray(constrained_axis, dtype=float)
    if axis.shape != (n,):
        raise ValueError("constrained_axis dimension mismatch")
    nonzero = np.flatnonzero(axis)
    if nonzero.size != 1 or abs(axis[nonzero[0]]) != 1.0:
        raise ValueError("constrained_axis must be a signed standard basis vector")
    y = rng.standard_normal((n - 1, n - 1))
    w = y @ y.T
    rest = np.delete(np.arange(n), nonzero[0])
    out = np.zeros((n, n))
    out[np.ix_(rest, rest)] = 0.5 * (w + w.T)
    return out


def run_ellipsoid_phase(
    n: int,
    zetas,
    ms,
    trials: int,
    seed: int,
    variant: str = "general",
    max_iter: int | None = None,
) -> PhaseGrid:
    """Sweep center gaps against projected dimensions for Wishart ellipsoids.

    Each trial draws two Wishart shapes (annihilating the center axis in
    the ``hyperplane`` variant), then one ``ms[-1]``-by-n Gaussian matrix,
    shared by every gap and M. The shapes are centered at ``+/- zeta/2``
    along the first coordinate and projected by the matrix's first M rows.
    Success is a step in M (a common point under M + 1 rows is one under
    the first M), so a bisection over ``ms`` finds the least M certified
    disjoint. An Indeterminate verdict is a failure, tallied where decided.
    Unprojected pairs are never prefiltered; their status and the mean
    squared width bound per gap are recorded in ``meta`` instead.

    ``max_iter`` is accepted and ignored: the decision is exact and has no
    iteration cap. The keyword remains for callers that still pass it.
    """
    if n < 2:
        raise ValueError(f"ambient dimension must be >= 2, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if variant not in ("general", "hyperplane"):
        raise ValueError(f"variant must be 'general' or 'hyperplane', got {variant!r}")
    zetas = tuple(float(z) for z in zetas)
    if any(z < 0.0 for z in zetas):
        raise ValueError("center gaps must be >= 0")
    ms = _validate_axis2(ms)
    if ms[-1] > n:
        raise ValueError("projected dimensions must not exceed the ambient dimension")
    kind = ELLIPSOID_GENERAL_KIND if variant == "general" else ELLIPSOID_HYPERPLANE_KIND
    axis = np.zeros(n)
    axis[0] = 1.0
    constrained = axis if variant == "hyperplane" else None
    successes = np.zeros((len(zetas), len(ms)), dtype=np.int64)
    indet = np.zeros_like(successes)
    preproj = [0] * len(zetas)
    bound_sq = [[] for _ in zetas]
    for t in range(trials):
        rng = substream(seed, kind, t)
        shape1 = sample_wishart_shape(n, rng, constrained_axis=constrained)
        shape2 = sample_wishart_shape(n, rng, constrained_axis=constrained)
        matrix = rng.standard_normal((ms[-1], n))
        for i, zeta in enumerate(zetas):
            c1 = 0.5 * zeta * axis
            body1 = make_ellipsoid(c1, shape1)
            body2 = make_ellipsoid(-c1, shape2)
            if zeta > 0.0:
                bound = width_bound_ellipsoids(body1, body2)
                if bound.valid:
                    bound_sq[i].append(bound.value**2)
            if variant == "hyperplane":
                # parallel hyperplanes <z, axis> = +/- zeta/2 are disjoint
                preproj[i] += zeta > 0.0
            else:
                preproj[i] += decide_disjoint(body1, body2).state == DISJOINT
            # least index of ms whose prefix is certified disjoint (len(ms): none)
            lo, hi = 0, len(ms)
            while lo < hi:
                mid = (lo + hi - 1) // 2
                rows = matrix[: ms[mid]]
                verdict = decide_disjoint(
                    Ellipsoid(rows @ c1, rows @ shape1),
                    Ellipsoid(-(rows @ c1), rows @ shape2),
                )
                if verdict.state == DISJOINT:
                    hi = mid
                else:
                    lo = mid + 1
                    indet[i, mid] += verdict.state == INDETERMINATE
            successes[i, lo:] += 1
    meta = _base_meta(kind, n, seed, trials)
    meta.update(
        {
            "variant": variant,
            "preprojection_disjoint": preproj,
            "mean_sq_bound": [sum(b) / len(b) if b else None for b in bound_sq],
        }
    )
    return PhaseGrid(
        axis1=zetas,
        axis2=ms,
        trials=trials,
        successes=successes,
        indeterminate=indet,
        meta=meta,
    )


def _base_meta(kind: str, n: int, seed: int, trials: int) -> dict:
    return {
        "kind": kind,
        "n": n,
        "seed": int(seed),
        "trials": trials,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _crossing(ms: tuple[int, ...], ratios: np.ndarray, level: float) -> float:
    if ratios[0] >= level:
        return float(ms[0])
    above = np.flatnonzero(ratios >= level)
    if above.size == 0:
        return math.nan
    j = int(above[0])
    r_lo, r_hi = float(ratios[j - 1]), float(ratios[j])
    return ms[j - 1] + (level - r_lo) * (ms[j] - ms[j - 1]) / (r_hi - r_lo)


def estimate_transition(grid: PhaseGrid, level: float = 0.5) -> list[TransitionEstimate]:
    """Per-parameter success-level crossings with a 5%-95% band.

    Crossings are interpolated linearly between grid points. No smoothing
    is needed: ``PhaseGrid`` rows are non-decreasing in M.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level!r}")
    estimates = []
    for i, param in enumerate(grid.axis1):
        ratios = grid.success_ratio[i]
        m_cross = _crossing(grid.axis2, ratios, level)
        if ratios[0] >= level:
            flag = "all-success"
        elif math.isnan(m_cross):
            flag = "all-failure"
        else:
            flag = None
        band = (
            _crossing(grid.axis2, ratios, 0.05),
            _crossing(grid.axis2, ratios, 0.95),
        )
        estimates.append(
            TransitionEstimate(param=float(param), m_cross=m_cross, band=band, flag=flag)
        )
    return estimates


def meta_path(path) -> Path:
    return Path(path).with_suffix(".meta.json")


def save_phase_grid(grid: PhaseGrid, path) -> None:
    """Write the cell counts as CSV plus a sibling ``.meta.json``.

    The CSV is byte-stable for a fixed grid: params carry six decimals,
    counts are plain integers, rows sweep axis1 then axis2.
    """
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for i, param in enumerate(grid.axis1):
            for j, m in enumerate(grid.axis2):
                writer.writerow(
                    [
                        f"{param:.6f}",
                        m,
                        grid.trials,
                        int(grid.successes[i, j]),
                        int(grid.indeterminate[i, j]),
                    ]
                )
    with meta_path(path).open("w") as handle:
        json.dump(grid.meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
