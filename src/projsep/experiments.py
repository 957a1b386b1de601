"""Phase-transition experiment harnesses and their CSV output.

Grids sweep a geometry parameter (cone half-angle or center gap) against
the projected dimension M, counting disjointness successes per cell. Each
trial derives its own RNG substream from the master seed and draws one
Gaussian matrix, whose first M rows project for every M, so a cell's count
does not depend on evaluation order or on the rest of the grid, and every
row of counts is non-decreasing in M: each trial's success is a step in M.

CSV schema: header ``param,M,trials,successes,indeterminate``, one row per
cell, param formatted with six decimals. A sibling ``<name>.meta.json``
records the resolved configuration and extras, among them ``m_star``, the
summary of each trial's least successful M per parameter.
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
from .bodies import CircularCone, _json_value
from .separation import DISJOINT, INDETERMINATE, _decide_stack, _factor_rows, _prefix_factors
from .widths import _axis_pair_bounds

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
            raise ValueError(f"successes out of range: expected each in [0, {self.trials}]")
        if np.any(np.diff(self.successes, axis=1) < 0):
            raise ValueError("successes must not fall as M grows")
        if np.any(self.indeterminate < 0) or np.any(self.indeterminate > self.trials):
            raise ValueError(f"indeterminate counts out of range: expected each in [0, {self.trials}]")

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


def _validate_sweep(n: int, n_min: int, trials: int, params, name: str, ms):
    """The checks both sweeps make; returns the parameters as floats and ``ms`` as ints."""
    if n < n_min:
        raise ValueError(f"ambient dimension out of range: expected >= {n_min}, got {n}")
    if trials < 1:
        raise ValueError(f"trials out of range: expected >= 1, got {trials}")
    params = tuple(float(p) for p in params)
    if not params:
        raise ValueError(f"empty grid: need at least one {name}")
    ms = tuple(int(m) for m in ms)
    if not ms:
        raise ValueError("need at least one projected dimension")
    if any(m2 <= m1 for m1, m2 in zip(ms, ms[1:])):
        raise ValueError("projected dimensions must be strictly increasing")
    if ms[0] < 1:
        raise ValueError(f"projected dimension out of range: expected >= 1, got {ms[0]}")
    if ms[-1] > n:
        raise ValueError("projected dimensions must not exceed the ambient dimension")
    return params, ms


def run_cone_phase(n: int, alphas, ms, trials: int, seed: int) -> PhaseGrid:
    """Sweep circular-cone half-angles against projected dimensions.

    Each trial draws one ``ms[-1]``-by-n Gaussian matrix G and projects by
    its first M rows for every M. Success means that prefix's null space
    misses the cone around the first axis e1: always when M = n, otherwise
    iff e1's null-space projection is shorter than ``cos(half_angle)``.
    One Householder QR of ``[G.T | e1]``, of which only R is kept, gives
    that length for every prefix: the first M columns of Q span the first
    M rows of G, so the last column of R holds e1's coordinates in that
    basis, and the cumulative sums of their squares are the squared row-space
    projections of e1. No Q is formed. The test is exact, so the
    indeterminate tally is always zero.

    A trial's success is a step in M (the null-space projection cannot grow
    as rows are added), so ``meta`` records ``m_star`` as the ellipsoid
    sweep does, per half-angle: the mean and standard error of the least
    successful M over the trials that have one, its histogram over ``ms``
    and the count of trials successful at no M of the grid.
    """
    alphas, ms = _validate_sweep(n, 1, trials, alphas, "cone half-angle", ms)
    axis = np.zeros(n)
    axis[0] = 1.0
    cosines = np.array([[math.cos(CircularCone(axis, a).half_angle)] for a in alphas])
    dims = np.array(ms)
    least = np.empty((trials, len(alphas)), dtype=np.int64)
    for t in range(trials):
        matrix = substream(seed, CONE_KIND, t).standard_normal((ms[-1], n))
        # raw h is LAPACK's array transposed, so h[-1, j] is R[j, last]
        h = np.linalg.qr(np.vstack((matrix, axis)).T, mode="raw")[0]
        # ||P_null(axis)||^2 = 1 - ||P_row(axis)||^2 for each row prefix
        row_sq = np.cumsum(h[-1, :ms[-1]] ** 2)[dims - 1]
        null_norm = np.sqrt(np.maximum(1.0 - row_sq, 0.0))
        ok = (dims == n) | (cosines > null_norm)
        least[t] = len(ms) - ok.sum(axis=1)
    indeterminate = np.zeros((len(alphas), len(ms)), dtype=np.int64)
    return _phase_grid(CONE_KIND, n, seed, alphas, ms, least, indeterminate, {})


def sample_wishart_shape(n: int, seed, constrained_axis=None) -> np.ndarray:
    """Draw a Wishart shape matrix ``X @ X.T`` with n degrees of freedom.

    ``seed`` may be an integer or an existing Generator. ``constrained_axis``,
    if given, must be a signed standard basis vector; the matrix then
    annihilates it exactly, with an (n-1)-dimensional Wishart block on the
    other coordinates.
    """
    if n < 1:
        raise ValueError(f"dimension out of range: expected >= 1, got {n}")
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
    along the first coordinate and projected by the matrix's first M rows,
    which are the first M rows of the matrix's images of the shapes and
    of the axis. Every trial is drawn first, in trial order, and only
    those images are kept. Success is a step in M (a common point under
    M + 1 rows is one under the first M), so ``_bisect`` finds each
    trial's least M certified disjoint per gap, ``M*``, from those images
    alone. An Indeterminate verdict is a failure, tallied in the probed
    cell where it was decided.

    Unprojected pairs are never prefiltered; their status (one stack of
    every trial, deciding every gap) and the mean squared width bound per
    gap, over the trials whose bound applies (None where none does, inf
    where the mean is beyond the doubles), are recorded in ``meta``. The
    bound takes the Wishart shapes, symmetric PSD by construction, unchecked.
    So are ``m_star``, per gap: the mean and standard error of ``M*`` over
    the trials that have one, its histogram over ``ms`` and the count of
    trials disjoint at no M of the grid; and ``decisions``: the pairs
    decided (``calls``, one per trial and probe), the decompositions of
    ``[B1 B2]`` they took and the per-gap verdicts they gave.

    ``max_iter`` is accepted and ignored: the decision is exact and has no
    iteration cap. The keyword remains because callers still pass it, the
    benchmark harness among them (``max_iter=4000``).
    """
    if variant not in ("general", "hyperplane"):
        raise ValueError(f"unknown variant: expected 'general' or 'hyperplane', got {variant!r}")
    zetas, ms = _validate_sweep(n, 2, trials, zetas, "center gap", ms)
    bad = [z for z in zetas if not 0.0 <= z < math.inf]
    if bad:
        raise ValueError(f"center gap out of range: expected finite and >= 0, got {bad[0]}")
    kind = ELLIPSOID_GENERAL_KIND if variant == "general" else ELLIPSOID_HYPERPLANE_KIND
    axis = np.zeros(n)
    axis[0] = 1.0
    constrained = axis if variant == "hyperplane" else None
    gaps = np.array(zetas)
    bound_sq = [[] for _ in zetas]
    halves = np.empty((trials, ms[-1]))
    images1, images2 = np.empty((trials, ms[-1], n)), np.empty((trials, ms[-1], n))
    shapes = []
    for t in range(trials):
        rng = substream(seed, kind, t)
        shape1 = sample_wishart_shape(n, rng, constrained_axis=constrained)
        shape2 = sample_wishart_shape(n, rng, constrained_axis=constrained)
        matrix = rng.standard_normal((ms[-1], n))
        # numpy's scalar pow gives the bits of ``float ** 2``, but inf, not
        # OverflowError, where the square is beyond the doubles
        with np.errstate(over="ignore"):
            for i, bound in enumerate(_axis_pair_bounds(shape1, shape2, axis, zetas)):
                if bound is not None and bound.valid:
                    bound_sq[i].append(float(np.float64(bound.value) ** 2))
        if variant == "general":
            shapes.append((shape1, shape2))
        halves[t] = 0.5 * (matrix @ axis)
        images1[t], images2[t] = matrix @ shape1, matrix @ shape2
    if variant == "hyperplane":
        # parallel hyperplanes <z, axis> = +/- zeta/2 are disjoint
        preproj, decisions = trials * (gaps > 0.0), {}
    else:
        # the unprojected pairs are the pairs that the identity's n rows project
        shapes1, shapes2 = (np.array(pair) for pair in zip(*shapes))
        centers = np.broadcast_to(0.5 * axis, (trials, n))
        unprojected, _, decisions = _bisect(centers, shapes1, shapes2, gaps, (n,))
        preproj = np.sum(unprojected == 0, axis=0)
    least, indet, record = _bisect(halves, images1, images2, gaps, ms)
    extra = {
        "variant": variant,
        "preprojection_disjoint": preproj.tolist(),
        "mean_sq_bound": [sum(b) / len(b) if b else None for b in bound_sq],
        "decisions": {key: decisions.get(key, 0) + count for key, count in record.items()},
    }
    return _phase_grid(kind, n, seed, zetas, ms, least, indet, extra)


def _bisect(halves, images1, images2, gaps, ms: tuple[int, ...]):
    """Each trial's least index of ``ms`` at which its pair is disjoint, per gap.

    Trial t's pair at prefix M and gap zeta is centred at ``+/- zeta *
    halves[t, :M]`` with shapes ``images1[t, :M]`` and ``images2[t, :M]``;
    ``halves`` is (trials, ms[-1]) and the images (trials, ms[-1], n).
    Disjointness must be a step in M. A trial's gaps share one bisection:
    each keeps its own bracket, the midpoint of the widest open bracket is
    probed, and one decision serves every gap whose bracket holds that
    probe, since at one prefix the gaps differ only in the scale of the
    centres (the dual function scales as ``zeta**2``). The trials'
    bisections share their decisions largest prefix first: each pass
    decides, as one stack (``separation._decide_stack``), every unfinished
    trial whose next probe is the largest M any of them probes next. Each
    trial's ``[B1 B2]`` over all ``ms[-1]`` rows is factored once, by one
    Householder QR of its transpose (``separation._factor_rows``), before
    the bisections start: the first M columns of Q and the leading block
    of ``R^-1`` whiten prefix M, so a probe needs one ``eigh`` and no SVD. A prefix whose R pivots are not safely nonzero,
    such as M = n in the hyperplane variant, takes the SVD path. A stack
    shares its ``eigh`` and SVD calls and gives each trial the verdicts it
    would get alone, and a trial's probes follow only its own verdicts, so
    neither the grouping nor the order of the stacks changes what a
    trial's bisection finds. Makes no RNG call.

    Returns the least indices (trials, gaps), ``len(ms)`` where a trial is
    disjoint at no M of the grid; the Indeterminate verdicts per gap and
    probed index (gaps, len(ms)); and the ``decisions`` record.
    """
    indet = np.zeros((len(gaps), len(ms)), dtype=np.int64)
    decisions = {"calls": 0, "decompositions": 0, "verdicts": 0}
    factors = _factor_rows(images1, images2)
    # each trial's and gap's least disjoint index of ms lies in [lo, hi]
    lo = np.zeros((len(halves), len(gaps)), dtype=np.int64)
    hi = np.full((len(halves), len(gaps)), len(ms))
    while True:
        live = np.flatnonzero(np.any(lo < hi, axis=1))
        if not live.size:
            return lo, indet, decisions
        widest = np.argmax(hi[live] - lo[live], axis=1)
        mids = (lo[live, widest] + hi[live, widest] - 1) // 2
        mid = int(mids.max())
        group = live[mids == mid]
        probed = (lo[group] <= mid) & (mid < hi[group])
        m = ms[mid]
        centers = halves[group, :m]
        stack = _decide_stack(centers, -centers, images1[group, :m], images2[group, :m], gaps, probed,
                              _prefix_factors(factors, group, m))
        decisions["calls"] += len(group)
        decisions["decompositions"] += int(stack.decomposed.sum())
        decisions["verdicts"] += int(probed.sum())
        disjoint = stack.states == DISJOINT
        hi[group] = np.where(probed & disjoint, mid, hi[group])
        lo[group] = np.where(probed & ~disjoint, mid + 1, lo[group])
        indet[:, mid] += np.sum(stack.states == INDETERMINATE, axis=0)


def _phase_grid(kind: str, n: int, seed: int, params, ms, least, indeterminate, extra) -> PhaseGrid:
    """Tally each trial's least successful index of ``ms`` per parameter.

    ``least`` is (trials, params), ``len(ms)`` where a trial succeeds at no
    M of the grid. A trial's success is a step in M, so cell (i, j) counts
    the trials whose least index for ``params[i]`` is at most j. ``meta``
    holds the configuration, ``extra`` and the ``m_star`` summary.
    """
    trials = len(least)
    # least_counts[i, j]: trials whose least successful prefix is ms[j]; j = len(ms): none
    least_counts = np.zeros((len(params), len(ms) + 1), dtype=np.int64)
    np.add.at(least_counts, (np.arange(len(params)), least), 1)
    successes = np.cumsum(least_counts[:, :-1], axis=1)
    meta = {
        "kind": kind,
        "n": n,
        "seed": int(seed),
        "trials": trials,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        **extra,
        "m_star": _m_star_summary(ms, least_counts),
    }
    return PhaseGrid(axis1=params, axis2=ms, trials=trials, successes=successes,
                     indeterminate=indeterminate, meta=meta)


def _m_star_summary(ms: tuple[int, ...], least_counts: np.ndarray) -> dict:
    """Per gap: mean and standard error of ``M*`` over the trials that have one,
    its histogram over ``ms``, and the count of trials that have none."""
    values = np.array(ms, dtype=float)
    means, errors = [], []
    for counts in least_counts[:, :-1]:
        k = int(counts.sum())
        mean = float(counts @ values) / k if k else None
        means.append(mean)
        if k < 2:
            errors.append(None)
            continue
        variance = float(counts @ (values - mean) ** 2) / (k - 1)
        errors.append(math.sqrt(variance / k))
    return {
        "mean": means,
        "std_error": errors,
        "histogram": least_counts[:, :-1].tolist(),
        "none": least_counts[:, -1].tolist(),
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
        raise ValueError(f"level out of range: expected (0, 1), got {level!r}")
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
    counts are plain integers, rows sweep axis1 then axis2. The sidecar is
    strict JSON: a non-finite float in ``meta`` is written as null.
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
        json.dump(_json_value(grid.meta), handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")
