"""Convex bodies (ellipsoids, balls, circular cones) and Gaussian projections.

An ellipsoid is the affine image of a unit ball, ``{center + shape @ x :
||x|| <= 1}``; the shape matrix need not be square or symmetric, so flat
(degenerate) bodies are representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SYMMETRY_TOL = 1e-10
EIGENVALUE_TOL = 1e-10
UNIT_NORM_TOL = 1e-12
MEMBERSHIP_TOL = 1e-9


def _as_float_array(value, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def binary_exponent(*arrays: np.ndarray) -> int:
    """Exponent ``e`` with the arrays' largest absolute entry in ``[2**(e-1), 2**e)``.

    0 when every entry is zero. Dividing by ``2**e`` (``np.ldexp(a, -e)``)
    is exact unless an entry falls below ``2**-1022``, and it brings sums
    of squares of the entries into range at any scale.
    """
    return math.frexp(max(np.abs(a).max(initial=0.0) for a in arrays))[1]


def _is_symmetric_psd(matrix: np.ndarray) -> bool:
    if matrix.shape[0] != matrix.shape[1]:
        return False
    if not np.all(np.abs(matrix - matrix.T) <= SYMMETRY_TOL):
        return False
    if matrix.shape[0] == 0:
        return True
    return float(np.linalg.eigvalsh(matrix)[0]) >= -EIGENVALUE_TOL


@dataclass(frozen=True)
class Ellipsoid:
    """Affine image of the unit ball: ``{center + shape @ x : ||x|| <= 1}``."""

    center: np.ndarray
    shape: np.ndarray

    def __post_init__(self) -> None:
        center = _as_float_array(self.center, "center", ndim=1)
        shape = _as_float_array(self.shape, "shape", ndim=2)
        if shape.shape[0] != center.shape[0]:
            raise ValueError(
                f"center length {center.shape[0]} does not match "
                f"shape rows {shape.shape[0]}"
            )
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "shape", shape)

    @property
    def ambient_dim(self) -> int:
        return self.center.shape[0]

    @cached_property
    def symmetric_psd(self) -> bool:
        """Square, symmetric to 1e-10 and with eigenvalues >= -1e-10."""
        return _is_symmetric_psd(self.shape)


@dataclass(frozen=True)
class Ball:
    """Euclidean ball with the given center and radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        center = _as_float_array(self.center, "center", ndim=1)
        radius = float(self.radius)
        if not math.isfinite(radius) or radius < 0.0:
            raise ValueError(f"radius must be finite and >= 0, got {radius}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)

    @property
    def ambient_dim(self) -> int:
        return self.center.shape[0]

    def to_ellipsoid(self) -> Ellipsoid:
        n = self.ambient_dim
        return Ellipsoid(self.center, self.radius * np.eye(n))


@dataclass(frozen=True)
class CircularCone:
    """Axis-symmetric cone ``{z : <z, axis> >= ||z|| cos(half_angle)}``."""

    axis: np.ndarray
    half_angle: float

    def __post_init__(self) -> None:
        axis = _as_float_array(self.axis, "axis", ndim=1)
        norm = float(np.linalg.norm(axis))
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"axis must have unit norm, got {norm!r}")
        angle = float(self.half_angle)
        if not 0.0 <= angle <= math.pi / 2:
            raise ValueError(f"half_angle must lie in [0, pi/2], got {angle!r}")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "half_angle", angle)

    @property
    def ambient_dim(self) -> int:
        return self.axis.shape[0]


@dataclass(frozen=True)
class GaussianProjection:
    """Random map with iid standard normal entries, row-major from one stream.

    Only ``(rows, cols, seed)`` is stored; the matrix is regenerated on
    first read, so two instances with equal fields are entry-for-entry
    identical.
    """

    rows: int
    cols: int
    seed: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be positive")
        if self.rows > self.cols:
            raise ValueError(
                f"projection must not increase dimension: rows {self.rows} "
                f"> cols {self.cols}"
            )

    @cached_property
    def entries(self) -> np.ndarray:
        from ._rng import substream

        matrix = substream(self.seed).standard_normal((self.rows, self.cols))
        matrix.setflags(write=False)
        return matrix


def make_ellipsoid(center, shape) -> Ellipsoid:
    """Validated ellipsoid constructor.

    Parameters
    ----------
    center : array_like, shape (n,)
    shape : array_like, shape (n, k)
        Columns span the body; ``k`` may be smaller than ``n`` (flat body).

    Returns
    -------
    Ellipsoid
        ``symmetric_psd`` is computed on first read.
    """
    return Ellipsoid(np.asarray(center, dtype=float), np.asarray(shape, dtype=float))


def support(body: Ellipsoid | Ball, direction) -> tuple[float, np.ndarray]:
    """Support function of the body: max of ``<p, direction>`` over the body.

    Parameters
    ----------
    body : Ellipsoid or Ball
    direction : array_like, shape (n,)
        Need not be normalized; must be nonzero.

    Returns
    -------
    value : float
        ``<center, u> + ||shape.T @ u||``.
    argmax : ndarray
        A maximizing point of the body (any boundary point when the
        direction annihilates the shape).
    """
    if isinstance(body, Ball):
        body = body.to_ellipsoid()
    u = np.asarray(direction, dtype=float)
    if u.shape != (body.ambient_dim,):
        raise ValueError(f"direction shape {u.shape} does not match body dimension")
    norm_u = float(np.linalg.norm(u))
    if norm_u == 0.0:
        raise ValueError("direction must be nonzero")
    bt_u = body.shape.T @ u
    norm_bt = float(np.linalg.norm(bt_u))
    value = float(body.center @ u) + norm_bt
    if norm_bt > 0.0:
        argmax = body.center + body.shape @ (bt_u / norm_bt)
    elif body.shape.shape[1] > 0:
        x = np.zeros(body.shape.shape[1])
        x[0] = 1.0
        argmax = body.center + body.shape @ x
    else:
        argmax = body.center.copy()
    return value, argmax


def project_body(projection, body: Ellipsoid | Ball) -> Ellipsoid:
    """Image of the body under a linear map: centers and shapes map directly."""
    if isinstance(body, Ball):
        body = body.to_ellipsoid()
    matrix = projection.entries if isinstance(projection, GaussianProjection) else np.asarray(projection, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("projection must be a matrix")
    if matrix.shape[1] != body.ambient_dim:
        raise ValueError(
            f"projection columns {matrix.shape[1]} do not match body dimension "
            f"{body.ambient_dim}"
        )
    return Ellipsoid(matrix @ body.center, matrix @ body.shape)


def difference_cone(ball1: Ball, ball2: Ball) -> CircularCone:
    """Circular cone generated by differences of points of two separated balls.

    Requires strict separation ``r1 + r2 < ||c1 - c2||``; the cone then has
    axis ``(c1 - c2)/||c1 - c2||`` and half-angle ``arcsin((r1+r2)/||c1-c2||)``.
    """
    if ball1.ambient_dim != ball2.ambient_dim:
        raise ValueError("balls must share an ambient dimension")
    gap = ball1.center - ball2.center
    dist = float(np.linalg.norm(gap))
    spread = ball1.radius + ball2.radius
    if spread >= dist:
        raise ValueError(
            f"balls are not strictly separated: r1 + r2 = {spread} >= "
            f"||c1 - c2|| = {dist}"
        )
    return CircularCone(gap / dist, math.asin(spread / dist))


def contains(body: Ellipsoid | Ball, point, tol: float = MEMBERSHIP_TOL) -> bool:
    """Membership test that also handles flat bodies.

    The point must lie in the affine span of the body (least-squares
    residual below ``tol``) and the minimum-norm preimage must satisfy
    ``||x|| <= 1 + tol``.
    """
    if isinstance(body, Ball):
        body = body.to_ellipsoid()
    p = np.asarray(point, dtype=float)
    if p.shape != (body.ambient_dim,):
        raise ValueError("point dimension does not match body")
    offset = p - body.center
    if body.shape.shape[1] == 0:
        return float(np.linalg.norm(offset)) <= tol
    x, *_ = np.linalg.lstsq(body.shape, offset, rcond=None)
    residual = float(np.linalg.norm(body.shape @ x - offset))
    if residual > tol:
        return False
    return float(np.linalg.norm(x)) <= 1.0 + tol


def ellipsoid_from_dict(data) -> Ellipsoid:
    """Ellipsoid from ``{"center": [...], "shape": [[...]]}``, or a ball's from
    ``{"center": [...], "radius": r}``; any other input raises ValueError."""
    try:
        center = np.asarray(data["center"], dtype=float)
        radius = float(data["radius"]) if "radius" in data else None
        shape = np.asarray(data["shape"], dtype=float) if radius is None else None
    except (TypeError, KeyError, OverflowError):
        raise ValueError("ellipsoid needs a numeric center and a radius or shape") from None
    if radius is not None:
        return Ball(center, radius).to_ellipsoid()
    return make_ellipsoid(center, shape)
