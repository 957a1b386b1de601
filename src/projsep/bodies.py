"""Convex bodies (ellipsoids, balls, circular cones) and Gaussian projections.

An ellipsoid is the affine image of a unit ball, ``{center + shape @ x :
||x|| <= 1}``; the shape matrix need not be square or symmetric, so flat
(degenerate) bodies are representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property

import numpy as np

SYMMETRY_TOL = 1e-10
EIGENVALUE_TOL = 1e-10
UNIT_NORM_TOL = 1e-12


def _as_float_array(value, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(
            f"wrong array dimensions: {name} must be {ndim}-dimensional, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite entries: {name} holds inf or nan")
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
    # the tolerances apply in units of the largest entry, so scaling keeps the answer
    matrix = np.ldexp(matrix, -binary_exponent(matrix))
    if not np.all(np.abs(matrix - matrix.T) <= SYMMETRY_TOL):
        return False
    # the least eigenvalue is >= -tol iff matrix + tol I is positive
    # definite, which a Cholesky factorization decides at an eighth of the
    # cost of the eigenvalues (only on the boundary do the two differ)
    matrix.flat[:: matrix.shape[0] + 1] += EIGENVALUE_TOL
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class Ellipsoid:
    """Affine image of the unit ball: ``{center + shape @ x : ||x|| <= 1}``.

    ``center`` is (n,) and ``shape`` (n, k), where k < n makes a flat body;
    both are converted to float, checked finite and kept as read-only copies.
    """

    center: np.ndarray
    shape: np.ndarray

    def __post_init__(self) -> None:
        center = _as_float_array(self.center, "center", ndim=1)
        shape = _as_float_array(self.shape, "shape", ndim=2)
        if shape.shape[0] != center.shape[0]:
            raise ValueError(
                f"center and shape disagree: center length {center.shape[0]}, "
                f"shape rows {shape.shape[0]}"
            )
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "shape", shape)

    @property
    def ambient_dim(self) -> int:
        return self.center.shape[0]

    @cached_property
    def symmetric_psd(self) -> bool:
        """Square, symmetric and PSD, to 1e-10 of the largest entry.

        After division by ``2**binary_exponent(shape)``, which brings the
        largest entry into ``[1/2, 1)``, the shape must be symmetric to
        1e-10 and have eigenvalues >= -1e-10.
        """
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
            raise ValueError(f"radius out of range: expected finite and >= 0, got {radius}")
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
            raise ValueError(f"axis not of unit norm: got {norm!r}")
        angle = float(self.half_angle)
        if not 0.0 <= angle <= math.pi / 2:
            raise ValueError(f"half-angle out of range: expected [0, pi/2], got {angle!r}")
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


def project_body(projection, body: Ellipsoid | Ball) -> Ellipsoid:
    """Image of the body under a linear map: centers and shapes map directly."""
    if isinstance(body, Ball):
        body = body.to_ellipsoid()
    matrix = projection.entries if isinstance(projection, GaussianProjection) else np.asarray(projection, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("projection must be a matrix")
    if matrix.shape[1] != body.ambient_dim:
        raise ValueError(
            f"projection and body disagree: {matrix.shape[1]} projection columns, "
            f"body dimension {body.ambient_dim}"
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
    return Ellipsoid(center, shape)


def _json_value(value):
    """``value`` as JSON data: a dataclass as the dict of its fields, an array
    as its list, and each non-finite float as None, since JSON has no
    Infinity or NaN."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    elif isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        return {key: _json_value(v) for key, v in value.items()}
    return [_json_value(v) for v in value] if isinstance(value, (list, tuple)) else value
