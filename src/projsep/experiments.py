"""Phase-transition experiment harnesses and their on-disk format.

Grids sweep a geometry parameter (cone half-angle or center gap) against
the projected dimension M, counting disjointness successes per cell. Each
trial derives its own RNG substream from the master seed and draws one
Gaussian matrix, whose first M rows project for every M, so a cell's count
does not depend on evaluation order or on the rest of the grid.

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
    ``axis2[j]``; ``indeterminate`` tallies verdicts whose certificate and
    witness both failed their checks (they count as failures in the success
    ratio).
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

    ``seed`` may be an integer or an existing Generator. With
    ``constrained_axis`` the matrix annihilates that unit axis: for a
    signed standard basis axis the Wishart block is embedded on the
    complementary coordinates (so ``A @ axis`` is exactly zero), otherwise
    a Householder basis of the orthogonal complement carries the block.
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
    if abs(float(np.linalg.norm(axis)) - 1.0) > 1e-12:
        raise ValueError("constrained_axis must have unit norm")
    y = rng.standard_normal((n - 1, n - 1))
    w = y @ y.T
    w = 0.5 * (w + w.T)
    nonzero = np.flatnonzero(axis)
    if nonzero.size == 1 and abs(axis[nonzero[0]]) == 1.0:
        rest = np.delete(np.arange(n), nonzero[0])
        out = np.zeros((n, n))
        out[np.ix_(rest, rest)] = w
        return out
    basis = np.eye(n)[:, 1:]
    u = axis - np.eye(n)[:, 0]
    u_norm = float(np.linalg.norm(u))
    if u_norm > 1e-12:
        householder = np.eye(n) - 2.0 * np.outer(u, u) / (u_norm**2)
        basis = householder[:, 1:]
    out = basis @ w @ basis.T
    return 0.5 * (out + out.T)


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


def _isotonic_non_decreasing(values: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators fit with equal weights."""
    levels: list[float] = []
    counts: list[int] = []
    for v in values:
        levels.append(float(v))
        counts.append(1)
        while len(levels) > 1 and levels[-2] > levels[-1]:
            total = counts[-2] + counts[-1]
            pooled = (levels[-2] * counts[-2] + levels[-1] * counts[-1]) / total
            levels[-2:] = [pooled]
            counts[-2:] = [total]
    out = np.empty(len(values))
    pos = 0
    for level, count in zip(levels, counts):
        out[pos : pos + count] = level
        pos += count
    return out


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

    Rows are smoothed to be non-decreasing in M (isotonic fit) before
    interpolating crossings linearly between grid points. The sweeps' rows
    are non-decreasing by construction, so the fit only changes rows read
    from CSVs written before the sweeps shared one matrix per trial.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level!r}")
    estimates = []
    for i, param in enumerate(grid.axis1):
        ratios = _isotonic_non_decreasing(grid.success_ratio[i])
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


def load_phase_grid(path) -> PhaseGrid:
    """Rebuild a PhaseGrid from ``save_phase_grid`` output."""
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = tuple(next(reader))
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        rows = [
            (row[0], int(row[1]), int(row[2]), int(row[3]), int(row[4]))
            for row in reader
        ]
    if not rows:
        raise ValueError("grid CSV has no data rows")
    axis1 = tuple(dict.fromkeys(float(r[0]) for r in rows))
    axis2 = tuple(dict.fromkeys(r[1] for r in rows))
    trials = rows[0][2]
    if any(r[2] != trials for r in rows):
        raise ValueError("trials must be uniform across cells")
    if len(rows) != len(axis1) * len(axis2):
        raise ValueError("grid CSV is ragged")
    successes = np.zeros((len(axis1), len(axis2)), dtype=np.int64)
    indeterminate = np.zeros_like(successes)
    for idx, row in enumerate(rows):
        i, j = divmod(idx, len(axis2))
        successes[i, j] = row[3]
        indeterminate[i, j] = row[4]
    meta = {}
    sidecar = meta_path(path)
    if sidecar.exists():
        meta = json.loads(sidecar.read_text())
    return PhaseGrid(
        axis1=axis1,
        axis2=axis2,
        trials=trials,
        successes=successes,
        indeterminate=indeterminate,
        meta=meta,
    )
