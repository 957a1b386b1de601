"""Deciding disjointness of two ellipsoids, exactly or by certificate.

Disjointness of bodies A and B is equivalent to the difference set
``A - B`` missing the origin, so the decision reduces to a minimum-norm
point over the difference set (a conditional-gradient solve with exact
line search) plus two certificates: a small norm witnesses intersection,
and a dual-cone direction with positive margin witnesses separation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .bodies import Ball, CircularCone, Ellipsoid, GaussianProjection

DISJOINT = "Disjoint"
INTERSECTING = "Intersecting"
INDETERMINATE = "Indeterminate"

DEFAULT_TOL = 1e-7
MAX_ITER_PER_DIM = 50


@dataclass(frozen=True)
class MinNormResult:
    """Minimum-norm point of the difference set ``E1 - E2`` with witnesses.

    ``point == (c1 - c2) + B1 @ x - B2 @ y`` with ``||x||, ||y|| <= 1``;
    ``dual_gap`` is the final conditional-gradient gap (zero at optimum).
    """

    point: np.ndarray
    norm: float
    dual_gap: float
    iterations: int
    x: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class SeparationVerdict:
    """Outcome of a disjointness decision.

    ``certificate`` (Disjoint) is a unit direction with positive dual-cone
    margin; ``witness`` (Intersecting) is the pair of unit-ball preimages
    of a common point, up to the intersect tolerance. Touching bodies
    count as Intersecting.
    """

    state: str
    margin: float
    norm: float
    iterations: int
    certificate: np.ndarray | None = None
    witness: tuple[np.ndarray, np.ndarray] | None = None

    def to_dict(self) -> dict:
        return {
            "state": self.state,
            "margin": self.margin,
            "norm": self.norm,
            "iterations": self.iterations,
            "certificate": None if self.certificate is None else self.certificate.tolist(),
            "witness": None
            if self.witness is None
            else [self.witness[0].tolist(), self.witness[1].tolist()],
        }


@dataclass(frozen=True)
class NullspaceCheck:
    """Result of the exact null-space-versus-cone test; truthy when clear.

    ``gap`` is ``cos(half_angle) - ||projection of the axis onto the null
    space||``; the cone is avoided iff the gap is positive (or the null
    space is trivial). ``rank_deficient`` flags maps with rank below their
    row count (the computed rank is used).
    """

    avoids: bool
    gap: float
    rank: int
    rank_deficient: bool

    def __bool__(self) -> bool:
        return self.avoids


def _coerce(body: Ellipsoid | Ball) -> Ellipsoid:
    return body.to_ellipsoid() if isinstance(body, Ball) else body


def _check_pair(e1: Ellipsoid, e2: Ellipsoid) -> None:
    if e1.ambient_dim != e2.ambient_dim:
        raise ValueError(
            f"bodies must share an ambient dimension, got {e1.ambient_dim} "
            f"and {e2.ambient_dim}"
        )


def _prepare(
    e1: Ellipsoid | Ball, e2: Ellipsoid | Ball, tol: float, max_iter: int | None
) -> tuple[Ellipsoid, Ellipsoid, int]:
    """Validated bodies and iteration limit (default 50 per ambient dimension)."""
    e1, e2 = _coerce(e1), _coerce(e2)
    _check_pair(e1, e2)
    if tol < 0.0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    if max_iter is None:
        return e1, e2, MAX_ITER_PER_DIM * e1.ambient_dim
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    return e1, e2, max_iter


def _iterates(e1: Ellipsoid, e2: Ellipsoid):
    """Conditional-gradient iterates for the minimum-norm point of ``E1 - E2``.

    Yields ``(z, x, y, n1, n2, gap)`` before each step, where ``z = (c1 -
    c2) + B1 @ x - B2 @ y``, ``n1, n2 = ||B1' z||, ||B2' z||`` and ``gap =
    <z, z - d>`` is the duality gap at the linear minimizer d. Each step
    solves the linear subproblem in closed form (the difference set is a
    sum of ellipsoids, whose support maps are explicit) and uses the exact
    quadratic line search, so the norm never increases. The iteration
    ends only once a step would make no progress; callers stop it at
    their own rule.
    """
    c_gap = e1.center - e2.center
    b1, b2 = e1.shape, e2.shape
    z = c_gap.copy()
    x = np.zeros(b1.shape[1])
    y = np.zeros(b2.shape[1])
    while True:
        b1t_z = b1.T @ z
        b2t_z = b2.T @ z
        n1 = float(np.linalg.norm(b1t_z))
        n2 = float(np.linalg.norm(b2t_z))
        x_lmo = -b1t_z / n1 if n1 > 0.0 else np.zeros_like(x)
        y_lmo = b2t_z / n2 if n2 > 0.0 else np.zeros_like(y)
        d = c_gap + b1 @ x_lmo - b2 @ y_lmo
        gap = float(z @ (z - d))
        yield z, x, y, n1, n2, gap
        v = d - z
        vv = float(v @ v)
        if vv == 0.0:
            return
        gamma = min(gap / vv, 1.0)
        if gamma <= 0.0:
            return
        z = z + gamma * v
        x = x + gamma * (x_lmo - x)
        y = y + gamma * (y_lmo - y)


def min_norm_point(
    e1: Ellipsoid | Ball,
    e2: Ellipsoid | Ball,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
) -> MinNormResult:
    """Minimum-norm point of ``E1 - E2`` by conditional gradient.

    Parameters
    ----------
    e1, e2 : Ellipsoid or Ball
        Bodies in a common ambient dimension.
    tol : float
        Stop once the duality gap ``<z, z - d>`` falls to this level.
    max_iter : int, optional
        Defaults to 50 times the ambient dimension.

    Returns
    -------
    MinNormResult
        The iterate, its norm, the final gap, the number of gradient
        evaluations, and the unit-ball witnesses reproducing the point.
        Running out of iterations returns the iterate after the last step.
    """
    e1, e2, limit = _prepare(e1, e2, tol, max_iter)
    steps = _iterates(e1, e2)
    for iterations, (z, x, y, _, _, gap) in enumerate(islice(steps, limit), 1):
        if gap <= tol:
            break
    else:
        # out of iterations: take the last step too, unless the iteration stalled
        z, x, y, *_ = next(steps, (z, x, y))
    return MinNormResult(
        point=z,
        norm=float(np.linalg.norm(z)),
        dual_gap=gap,
        iterations=iterations,
        x=x,
        y=y,
    )


def dual_cone_margin(w, e1: Ellipsoid | Ball, e2: Ellipsoid | Ball) -> float:
    """Separation margin of a direction: ``<w, c2-c1> - ||B1'w|| - ||B2'w||``.

    Positive iff the hyperplane normal to w strictly separates the bodies
    (w points from the first body toward the second).
    """
    e1, e2 = _coerce(e1), _coerce(e2)
    _check_pair(e1, e2)
    w = np.asarray(w, dtype=float)
    if w.shape != (e1.ambient_dim,):
        raise ValueError("direction dimension does not match the bodies")
    if float(np.linalg.norm(w)) == 0.0:
        raise ValueError("direction must be nonzero")
    return (
        float(w @ (e2.center - e1.center))
        - float(np.linalg.norm(e1.shape.T @ w))
        - float(np.linalg.norm(e2.shape.T @ w))
    )


def decide_disjoint(
    e1: Ellipsoid | Ball,
    e2: Ellipsoid | Ball,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
) -> SeparationVerdict:
    """Decide whether two bodies are disjoint, with a checkable certificate.

    Runs the minimum-norm iteration and stops at the first of: iterate norm
    at most ``tol`` (Intersecting, with unit-ball witnesses), or the
    negated unit iterate achieving positive dual-cone margin (Disjoint,
    with that certificate). Exhausting ``max_iter`` (default 50 per
    ambient dimension) yields Indeterminate. Touching bodies intersect.
    """
    e1, e2, limit = _prepare(e1, e2, tol, max_iter)
    c_gap = e1.center - e2.center
    for iterations, (z, x, y, n1, n2, _) in enumerate(islice(_iterates(e1, e2), limit), 1):
        norm = float(np.linalg.norm(z))
        if norm <= tol:
            return SeparationVerdict(
                state=INTERSECTING,
                margin=0.0,
                norm=norm,
                iterations=iterations,
                witness=(x, y),
            )
        margin = (float(z @ c_gap) - n1 - n2) / norm
        if margin > 0.0:
            return SeparationVerdict(
                state=DISJOINT,
                margin=margin,
                norm=norm,
                iterations=iterations,
                certificate=-z / norm,
            )
    return SeparationVerdict(
        state=INDETERMINATE, margin=margin, norm=norm, iterations=iterations
    )


def nullspace_avoids_cone(projection, cone: CircularCone) -> NullspaceCheck:
    """Exact test that a map's null space misses a circular cone (minus 0).

    The null space meets the cone iff the axis' projection onto the null
    space has norm at least ``cos(half_angle)``, so the test reduces to
    one projection norm. A trivial null space (full-rank square map)
    avoids every cone.
    """
    matrix = (
        projection.entries
        if isinstance(projection, GaussianProjection)
        else np.asarray(projection, dtype=float)
    )
    if matrix.ndim != 2:
        raise ValueError("projection must be a matrix")
    m, n = matrix.shape
    if n != cone.ambient_dim:
        raise ValueError(
            f"projection columns {n} do not match cone dimension {cone.ambient_dim}"
        )
    rank, null_norm_sq = _null_projection_sq(matrix, cone.axis)
    if rank == n:
        return NullspaceCheck(
            avoids=True,
            gap=math.cos(cone.half_angle),
            rank=rank,
            rank_deficient=rank < m,
        )
    null_norm = math.sqrt(max(null_norm_sq, 0.0))
    gap = math.cos(cone.half_angle) - null_norm
    return NullspaceCheck(
        avoids=gap > 0.0, gap=gap, rank=rank, rank_deficient=rank < m
    )


def _null_projection_sq(matrix: np.ndarray, axis: np.ndarray) -> tuple[int, float]:
    """Rank of the matrix and ``||P_null(axis)||^2``, via the row space.

    Fast path assumes full row rank (Gram Cholesky); any numerical doubt
    falls back to a rank-revealing SVD.
    """
    m = matrix.shape[0]
    p_axis = matrix @ axis
    try:
        factor = cho_factor(matrix @ matrix.T)
        row_sq = float(p_axis @ cho_solve(factor, p_axis))
        if row_sq <= 1.0 + 1e-8:
            return m, max(1.0 - min(row_sq, 1.0), 0.0)
    except LinAlgError:
        pass
    svals, vt = np.linalg.svd(matrix, full_matrices=True)[1:]
    scale = float(svals[0]) if svals.size else 0.0
    rank = int(np.sum(svals > scale * max(matrix.shape) * np.finfo(float).eps))
    null_component = vt[rank:] @ axis
    return rank, float(null_component @ null_component)
