"""Deciding disjointness of two ellipsoids exactly, with checked certificates.

Write ``d = c2 - c1`` and ``Si = Bi Bi'``. The bodies meet iff ``d`` lies
in the Minkowski sum of the centred bodies, which is the intersection of
the outer ellipsoids ``{z : z' (S1/(1-s) + S2/s)^-1 z <= 1}`` over ``s`` in
(0, 1) (Kurzhanski and Valyi, 1997). Whitening ``S1 + S2`` on its range
turns that into one concave function of ``s`` (Gilitschenski and Hanebeck,
2012): the bodies are disjoint iff ``f(s) = sum_i v_i^2 s(1-s) / (mu_i s +
(1-mu_i)(1-s))`` exceeds 1 somewhere on [0, 1]. Every verdict is checked
before it is returned. ``min_norm_point`` keeps the conditional-gradient
minimum-norm point of ``E1 - E2`` for distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count

import numpy as np

from .bodies import Ball, CircularCone, Ellipsoid, GaussianProjection, binary_exponent

DISJOINT = "Disjoint"
INTERSECTING = "Intersecting"
INDETERMINATE = "Indeterminate"

# relative rounding allowed in an Intersecting witness
WITNESS_TOL = 1e-9
# whitened extents mu within this of 0 or 1 are rounding: that body is flat there
FLAT_TOL = 1e-10


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
    of a common point, up to ``WITNESS_TOL`` relative rounding. Touching
    bodies count as Intersecting. ``norm`` is the factor by which both
    bodies, scaled about their centres, touch: ``sqrt(max f)`` for
    Intersecting, and for Disjoint the lower bound ``<w, d> / (||B1'w|| +
    ||B2'w||)`` that the certificate w proves (None in ``to_dict`` when
    infinite). ``iterations`` counts evaluations of f.
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
            "norm": self.norm if math.isfinite(self.norm) else None,
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


def _pair(e1: Ellipsoid | Ball, e2: Ellipsoid | Ball) -> tuple[Ellipsoid, Ellipsoid]:
    e1, e2 = (e.to_ellipsoid() if isinstance(e, Ball) else e for e in (e1, e2))
    if e1.ambient_dim != e2.ambient_dim:
        raise ValueError(
            f"bodies must share an ambient dimension, got {e1.ambient_dim} "
            f"and {e2.ambient_dim}"
        )
    return e1, e2


def min_norm_point(
    e1: Ellipsoid | Ball,
    e2: Ellipsoid | Ball,
    tol: float = 1e-7,
    max_iter: int | None = None,
) -> MinNormResult:
    """Minimum-norm point of ``E1 - E2`` by conditional gradient.

    Each step solves the linear subproblem in closed form (the difference
    set is a sum of ellipsoids, whose support maps are explicit) and uses
    the exact quadratic line search, so the norm never increases.

    Parameters
    ----------
    e1, e2 : Ellipsoid or Ball
        Bodies in a common ambient dimension.
    tol : float
        Stop once the duality gap ``<z, z - d>`` at the linear minimizer
        d falls to this fraction of the pair's squared size ``(||c1 - c2||
        + ||B1||_F + ||B2||_F)^2``, so that scaling both bodies together
        scales the result and keeps the iteration count, and translating
        them changes neither.
    max_iter : int, optional
        Defaults to 50 times the ambient dimension.

    Returns
    -------
    MinNormResult
        The iterate, its norm, the final gap, the number of gradient
        evaluations, and the unit-ball witnesses reproducing the point.
        Running out of iterations returns the iterate after the last step.
    """
    e1, e2 = _pair(e1, e2)
    if tol < 0.0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    limit = 50 * e1.ambient_dim if max_iter is None else max_iter
    if limit < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    c_gap = e1.center - e2.center
    b1, b2 = e1.shape, e2.shape
    size = sum(float(np.linalg.norm(a)) for a in (c_gap, b1, b2))
    z = c_gap.copy()
    x = np.zeros(b1.shape[1])
    y = np.zeros(b2.shape[1])
    for iterations in range(1, limit + 1):
        b1t_z = b1.T @ z
        b2t_z = b2.T @ z
        n1 = float(np.linalg.norm(b1t_z))
        n2 = float(np.linalg.norm(b2t_z))
        x_lmo = -b1t_z / n1 if n1 > 0.0 else np.zeros_like(x)
        y_lmo = b2t_z / n2 if n2 > 0.0 else np.zeros_like(y)
        d = c_gap + b1 @ x_lmo - b2 @ y_lmo
        gap = float(z @ (z - d))
        v = d - z
        vv = float(v @ v)
        if gap <= tol * size**2 or vv == 0.0:
            break
        gamma = min(gap / vv, 1.0)
        z = z + gamma * v
        x = x + gamma * (x_lmo - x)
        y = y + gamma * (y_lmo - y)
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
    e1, e2 = _pair(e1, e2)
    w = np.asarray(w, dtype=float)
    if w.shape != (e1.ambient_dim,):
        raise ValueError("direction dimension does not match the bodies")
    if float(np.linalg.norm(w)) == 0.0:
        raise ValueError("direction must be nonzero")
    return _margin(w, e2.center - e1.center, e1.shape, e2.shape)


def _margin(w: np.ndarray, d: np.ndarray, b1: np.ndarray, b2: np.ndarray) -> float:
    return float(w @ d) - float(np.linalg.norm(b1.T @ w)) - float(np.linalg.norm(b2.T @ w))


def _certified(direction, d, b1, b2, evaluations: int, exp: int):
    """Disjoint with the unit direction as certificate, if its margin is positive.

    ``d = c2 - c1``, ``b1`` and ``b2`` are in units of ``2**exp``; the returned margin is not.
    """
    length = float(np.linalg.norm(direction))
    if not length > 0.0:
        return None
    w = direction / length
    margin = _margin(w, d, b1, b2)
    if not margin > 0.0:
        return None
    along = float(w @ d)
    return SeparationVerdict(
        state=DISJOINT,
        margin=math.ldexp(margin, exp),
        norm=along / (along - margin) if along > margin else math.inf,
        iterations=evaluations,
        certificate=w,
    )


def _weights(mu: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray]:
    """``s`` and ``1 - s`` over ``mu s + (1 - mu)(1 - s)``, per coordinate.

    Coordinates where body 1 (``mu = 0``) or body 2 (``mu = 1``) is flat
    take their limits, so ``s`` may be an endpoint of [0, 1].
    """
    flat1, flat2 = mu == 0.0, mu == 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        den = mu * s + (1.0 - mu) * (1.0 - s)
        a = np.where(flat1, 0.0, np.where(flat2, 1.0, s / den))
        b = np.where(flat2, 0.0, np.where(flat1, 1.0, (1.0 - s) / den))
    return a, b


def _maximize(mu: np.ndarray, v2: np.ndarray, level: float) -> tuple[float, float, int]:
    """Maximizer ``s`` of the concave ``f`` on [0, 1], or an ``s`` with ``f(s) > level``.

    Returns ``(s, f(s), evaluations)``. The sign of ``f'`` at each endpoint
    settles the flat-body cases in closed form; otherwise a bracketed
    Newton iteration on ``f'`` runs until ``f > level``, ``f'`` vanishes,
    the Newton step no longer moves ``s``, or the bracket holds no float.
    """
    flat1, flat2 = mu == 0.0, mu == 1.0
    if np.sum(v2[~flat2] / (1.0 - mu[~flat2])) <= np.sum(v2[flat2]):
        return 0.0, float(np.sum(v2[flat2])), 1
    if np.sum(v2[~flat1] / mu[~flat1]) <= np.sum(v2[flat1]):
        return 1.0, float(np.sum(v2[flat1])), 1
    lo, hi, s = 0.0, 1.0, 0.5
    for evaluations in count(1):
        den = mu * s + (1.0 - mu) * (1.0 - s)
        f = s * (1.0 - s) * float(np.sum(v2 / den))
        slope = float(np.sum(v2 * ((1.0 - mu) * (1.0 - s) ** 2 - mu * s * s) / den**2))
        if f > level or slope == 0.0:
            return s, f, evaluations
        if slope > 0.0:
            lo = s
        else:
            hi = s
        curvature = -2.0 * float(np.sum(v2 * mu * (1.0 - mu) / den**3))
        step = s - slope / curvature if curvature < 0.0 else 0.5 * (lo + hi)
        if step == s:
            return s, f, evaluations
        following = step if lo < step < hi else 0.5 * (lo + hi)
        if not lo < following < hi:
            return s, f, evaluations
        s = following


def decide_disjoint(e1: Ellipsoid | Ball, e2: Ellipsoid | Ball) -> SeparationVerdict:
    """Decide whether two bodies are disjoint, exactly, with a checked certificate.

    In order: the centre-line direction ``d / ||d||`` may separate; a
    component of ``d`` outside the range of ``S1 + S2`` separates; else
    the maximum of ``f`` decides. Above 1, ``lam = (S1/(1-s) + S2/s)^-1 d``
    separates; at most 1, the maximizer ``s`` gives the common point
    ``c1 + B1 x = c2 + B2 y`` with ``x = B1' lam / (1-s)`` and ``y = -B2'
    lam / s``, where ``||x|| = ||y|| = sqrt(max f)`` at an interior
    maximum. A certificate is returned only with a positive
    ``dual_cone_margin``, a witness only if it reproduces a common point up
    to ``WITNESS_TOL``; Indeterminate is left when neither check accepts.
    Touching bodies intersect. The decision runs on the pair divided by a
    power of two (see ``binary_exponent``), which is exact and keeps every
    norm in range, so it does not depend on the pair's scale.
    """
    e1, e2 = _pair(e1, e2)
    exp = binary_exponent(e1.center, e2.center, e1.shape, e2.shape)
    c1, c2, b1, b2 = (np.ldexp(a, -exp) for a in (e1.center, e2.center, e1.shape, e2.shape))
    d = c2 - c1
    verdict = _certified(d, d, b1, b2, 0, exp)
    if verdict is not None:
        return verdict
    # [B1 B2] = U diag(sigma) [P1 P2] whitens S1 + S2 = U diag(sigma^2) U' on
    # its range without squaring its condition number, as eigh(S1 + S2) would
    both = np.hstack((b1, b2))
    basis, sigma, rows = np.linalg.svd(both, full_matrices=False)
    rank = int(np.sum(sigma > sigma[:1] * max(both.shape) * np.finfo(float).eps))
    basis, sigma, rows = basis[:, :rank], sigma[:rank], rows[:rank]
    verdict = _certified(d - basis @ (basis.T @ d), d, b1, b2, 0, exp)
    if verdict is not None:
        return verdict
    p1, p2 = rows[:, : b1.shape[1]], rows[:, b1.shape[1] :]
    mu, rotation = np.linalg.eigh(p1 @ p1.T)
    mu = np.where(mu < FLAT_TOL, 0.0, np.where(mu > 1.0 - FLAT_TOL, 1.0, mu))
    coords = rotation.T @ ((basis.T @ d) / sigma)
    s, f, evaluations = _maximize(mu, coords**2, 1.0)
    if f > 1.0:
        a, b = _weights(mu, s)
        # s (1 - s) / den, which is 1 - s where body 2 is flat
        weight = np.where(mu == 1.0, (1.0 - s) * a, s * b)
        lam = basis @ ((rotation @ (weight * coords)) / sigma)
        verdict = _certified(lam, d, b1, b2, evaluations, exp)
        if verdict is not None:
            return verdict
        # touching up to rounding: only the maximizer itself gives a witness
        # with ||x|| = ||y|| = sqrt(max f), not the first s with f > 1
        s, f, more = _maximize(mu, coords**2, math.inf)
        evaluations += more
    a, b = _weights(mu, s)
    x = p1.T @ (rotation @ (a * coords))
    y = -(p2.T @ (rotation @ (b * coords)))
    size = max(float(np.linalg.norm(v)) for v in (c1, c2, b1, b2))
    residual = float(np.linalg.norm(c1 + b1 @ x - c2 - b2 @ y))
    reach = max(float(np.linalg.norm(x)), float(np.linalg.norm(y)))
    witnessed = reach <= 1.0 + WITNESS_TOL and residual <= WITNESS_TOL * size
    return SeparationVerdict(
        state=INTERSECTING if witnessed else INDETERMINATE,
        margin=0.0,
        norm=math.sqrt(f),
        iterations=evaluations,
        witness=(x, y) if witnessed else None,
    )


def nullspace_avoids_cone(projection, cone: CircularCone) -> NullspaceCheck:
    """Exact test that a map's null space misses a circular cone (minus 0).

    The null space meets the cone iff the axis' projection onto the null
    space has norm at least ``cos(half_angle)``, so the test reduces to
    one projection norm, taken from a rank-revealing SVD that also handles
    rank-deficient maps. A trivial null space avoids every cone. The cone
    sweep reads the same norm for every row prefix from one QR instead;
    this function is the reference it is tested against.
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
    gap = math.cos(cone.half_angle) - math.sqrt(null_norm_sq)
    return NullspaceCheck(
        avoids=rank == n or gap > 0.0, gap=gap, rank=rank, rank_deficient=rank < m
    )


def _null_projection_sq(matrix: np.ndarray, axis: np.ndarray) -> tuple[int, float]:
    """Rank of the matrix and ``||P_null(axis)||^2``, by a rank-revealing SVD.

    Singular values up to ``max(shape) * eps`` times the largest count as
    zero, so a rank-deficient map has the larger null space it should.
    """
    svals, vt = np.linalg.svd(matrix, full_matrices=True)[1:]
    scale = float(svals[0]) if svals.size else 0.0
    rank = int(np.sum(svals > scale * max(matrix.shape) * np.finfo(float).eps))
    null_component = vt[rank:] @ axis
    return rank, float(null_component @ null_component)
