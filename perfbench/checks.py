"""Output checks for the benchmark's workloads, computed apart from projsep.

Every check recomputes what it needs with numpy, scipy and the standard
library and never calls the program under test, so a later change that
corrects the program's method still passes while a wrong output fails.
Each check raises ``CheckError`` with a one-line reason.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import combinations
from typing import NamedTuple

import numpy as np
import scipy.linalg

ESCAPE_ETA = 0.05
CROSSING_TOLERANCE = 4.0
ERROR_LIMIT = 0.05
PHASE_HEADER = ["param", "M", "trials", "successes", "indeterminate"]
REPORT_HEADER = ["method", "M", "seed", "error", "train_seconds"]


class CheckError(Exception):
    """An output of the program failed one of the benchmark's checks."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def isotonic(values) -> np.ndarray:
    """Non-decreasing least-squares fit (pool adjacent violators)."""
    blocks: list[list[float]] = []  # [mean, count]
    for v in values:
        blocks.append([float(v), 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            (m1, c1), (m2, c2) = blocks[-2], blocks.pop()
            blocks[-1] = [(m1 * c1 + m2 * c2) / (c1 + c2), c1 + c2]
    return np.concatenate([np.full(c, m) for m, c in blocks])


def rank_at(ms, ratios, level: float, n: int) -> float:
    """Projected dimension at which the isotonic success curve reaches level.

    Interpolates linearly between grid points; a level never reached
    counts as ``n + 1``.
    """
    fit = isotonic(ratios)
    above = np.flatnonzero(fit >= level)
    if above.size == 0:
        return n + 1.0
    j = int(above[0])
    if j == 0:
        return float(ms[0])
    lo, hi = fit[j - 1], fit[j]
    return ms[j - 1] + (level - lo) * (ms[j] - ms[j - 1]) / (hi - lo)


def escape_dimension(curve: float, eta: float = ESCAPE_ETA) -> float:
    """Gordon's escape dimension ``(sqrt(curve) + sqrt(2 ln 1/eta))^2 + 1``."""
    return (math.sqrt(curve) + math.sqrt(2.0 * math.log(1.0 / eta))) ** 2 + 1.0


def check_ellipsoid_grid(ms, trials, successes, indeterminate, curve, n) -> int:
    """Criterion 6's properties of an ellipsoid sweep; returns the Indeterminates.

    The squared-width curve must fall strictly with the gap, reach the 50%
    rank, and give an escape dimension at eta = 0.05 that reaches the 95%
    rank. Cell counts must be consistent with the trial count.
    """
    successes = np.asarray(successes)
    indeterminate = np.asarray(indeterminate)
    require(successes.shape == indeterminate.shape == (len(curve), len(ms)),
            "count matrices do not match the gaps by dimensions")
    require(successes.min() >= 0 and indeterminate.min() >= 0, "negative cell count")
    require(bool(np.all(successes + indeterminate <= trials)),
            "successes plus Indeterminate exceed the trials of a cell")
    require(all(c is not None for c in curve), "a gap has no valid width bound")
    require(all(a > b for a, b in zip(curve, curve[1:])),
            f"curve {curve} does not fall strictly with the gap")
    for row, c in enumerate(curve):
        ratios = successes[row] / trials
        rank50 = rank_at(ms, ratios, 0.5, n)
        rank95 = rank_at(ms, ratios, 0.95, n)
        require(c >= rank50, f"gap index {row}: curve {c:.3f} < 50% rank {rank50:.3f}")
        escape = escape_dimension(c)
        require(escape >= rank95, f"gap index {row}: escape {escape:.3f} < 95% rank {rank95:.3f}")
    return int(indeterminate.sum())


def check_disjoint_certificate(c1, b1, c2, b2, w) -> None:
    """``w . (c2 - c1) - ||B1' w|| - ||B2' w||`` must be positive."""
    margin = float(w @ (c2 - c1)) - float(np.linalg.norm(b1.T @ w)) - float(
        np.linalg.norm(b2.T @ w)
    )
    require(margin > 0.0, f"Disjoint certificate has margin {margin:.3g}")


def check_intersecting_witness(c1, b1, c2, b2, x, y, tol: float) -> None:
    """Unit-ball preimages of a common point, up to tol scaled to the bodies."""
    require(max(np.linalg.norm(x), np.linalg.norm(y)) <= 1.0 + 1e-9,
            "Intersecting witness leaves the unit ball")
    size = max(1.0, *(float(np.linalg.norm(a)) for a in (c1, c2, b1, b2)))
    residual = float(np.linalg.norm(c1 + b1 @ x - c2 - b2 @ y))
    require(residual <= tol * size,
            f"Intersecting witness misses by {residual:.3g} (bodies of size {size:.3g})")


class PhaseRow(NamedTuple):
    param: float
    m: int
    trials: int
    successes: int
    indeterminate: int


def read_phase_csv(text: str) -> list[PhaseRow]:
    rows = list(csv.reader(io.StringIO(text)))
    require(bool(rows) and rows[0] == PHASE_HEADER, "phase CSV header is wrong")
    try:
        return [PhaseRow(float(r[0]), *(int(v) for v in r[1:])) for r in rows[1:]]
    except (ValueError, TypeError, IndexError) as exc:
        raise CheckError(f"phase CSV row is malformed: {exc}") from None


def cone_prediction(n: int, alpha: float) -> float:
    """Statistical dimension of the circular cone, ``n sin^2 a + cos 2a``."""
    return n * math.sin(alpha) ** 2 + math.cos(2.0 * alpha)


def check_cone_grid(rows: list[PhaseRow], n: int, alphas, trials: int) -> None:
    """Criterion 1's crossings, and certain success at M = n."""
    require(len(rows) == len(alphas) * n, f"{len(rows)} rows for {len(alphas)} angles by {n}")
    for i, alpha in enumerate(alphas):
        block = rows[i * n : (i + 1) * n]
        require(all(abs(r.param - alpha) <= 1e-6 for r in block), f"angle {alpha} rows mislabelled")
        require([r.m for r in block] == list(range(1, n + 1)), "rows do not sweep M = 1..n")
        require(all(r.trials == trials for r in block), "trial count is wrong")
        require(all(0 <= r.successes <= trials for r in block), "success count out of range")
        require(all(r.indeterminate == 0 for r in block), "the exact cone test was Indeterminate")
        # a square Gaussian matrix is invertible, so its null space is trivial
        require(block[-1].successes == trials, f"angle {alpha}: M = n did not always succeed")
        ratios = [r.successes / trials for r in block]
        crossing = rank_at(range(1, n + 1), ratios, 0.5, n)
        predicted = cone_prediction(n, alpha)
        require(abs(crossing - predicted) <= CROSSING_TOLERANCE,
                f"angle {alpha}: 50% crossing {crossing:.2f} vs predicted {predicted:.2f}")


def check_nullspace_test(matrix, axis, half_angle: float, avoids: bool) -> None:
    """Recheck one null-space-versus-cone answer with ``scipy.linalg.null_space``."""
    basis = scipy.linalg.null_space(matrix)
    if basis.shape[1] == 0:
        require(bool(avoids), "trivial null space reported as meeting the cone")
        return
    gap = math.cos(half_angle) - float(np.linalg.norm(basis.T @ axis))
    if abs(gap) > 1e-9:
        require(bool(avoids) == (gap > 0.0), f"null-space test disagrees (gap {gap:.3g})")


def reference_plan_m(centers, shapes, p: float) -> int:
    """Planned M from the ellipsoid width bound and Gordon's dimension.

    Per pair, ``w = (||A_i||_F + ||A_j||_F) / (zeta - ||A_i e|| - ||A_j e||)
    + 1/sqrt(2 pi)`` and ``M = floor((w + sqrt(2 ln 1/eta))^2 + 1) + 1`` at
    ``eta = p / C(K, 2)``; the plan takes the largest.
    """
    k = len(centers)
    root = math.sqrt(2.0 * math.log(k * (k - 1) / (2.0 * p)))
    planned = 0
    for i, j in combinations(range(k), 2):
        gap = np.asarray(centers[i]) - np.asarray(centers[j])
        zeta = float(np.linalg.norm(gap))
        axis = gap / zeta
        slack = zeta - float(np.linalg.norm(shapes[i] @ axis)) - float(
            np.linalg.norm(shapes[j] @ axis)
        )
        require(slack > 0.0, f"classes {i} and {j} break the bound's hypothesis")
        fro = float(np.linalg.norm(shapes[i])) + float(np.linalg.norm(shapes[j]))
        width = fro / slack + 1.0 / math.sqrt(2.0 * math.pi)
        planned = max(planned, int(math.floor((width + root) ** 2 + 1.0)) + 1)
    return planned


class ReportRow(NamedTuple):
    method: str
    m: int
    error: float


def read_report_csv(text: str) -> list[ReportRow]:
    rows = list(csv.reader(io.StringIO(text)))
    require(bool(rows) and rows[0] == REPORT_HEADER, "report CSV header is wrong")
    try:
        return [ReportRow(r[0], int(r[1]), float(r[3])) for r in rows[1:]]
    except (ValueError, IndexError) as exc:
        raise CheckError(f"report CSV row is malformed: {exc}") from None


def check_classification(planned_m: int, reference_m: int, rows: list[ReportRow], n: int) -> None:
    """Criterion 9's rule on the planned M and the per-method test errors."""
    require(planned_m == reference_m, f"planned M {planned_m} != reference {reference_m}")
    methods = ["identity", f"rp:{planned_m}", f"pca:{planned_m}"]
    require([r.method for r in rows] == methods, f"report methods {[r.method for r in rows]}")
    require([r.m for r in rows] == [n, planned_m, planned_m], "report M column is wrong")
    identity = rows[0].error
    require(0.0 <= identity <= ERROR_LIMIT, f"identity error {identity:.4f} above {ERROR_LIMIT}")
    for row in rows[1:]:
        require(abs(row.error - identity) <= ERROR_LIMIT,
                f"{row.method} error {row.error:.4f} is not within {ERROR_LIMIT} of identity")
