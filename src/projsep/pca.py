"""Inertia (second-moment) analysis and ball-mixture toy generators.

The analytic ball result: the un-centered second-moment integral of a
ball of radius r at center c has one eigenvalue along the center direction
and an (N-1)-fold eigenvalue across it, so the top principal direction of
a far-enough ball cloud aligns with the center line.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._rng import substream


class InertiaModel(NamedTuple):
    """Sample mean, second-moment matrix about the mean, and sample count."""

    mean: np.ndarray
    sigma: np.ndarray
    count: int


class PrincipalSubspace(NamedTuple):
    """Orthonormal basis (columns) with matching eigenvalues, descending."""

    basis: np.ndarray
    eigenvalues: np.ndarray


class BallInertia(NamedTuple):
    """Eigenvalues of a ball's second-moment integral, split by direction."""

    lambda_axis: float
    lambda_perp: float
    constant: float


class LabeledPoints(NamedTuple):
    """Feature rows with integer labels."""

    features: np.ndarray
    labels: np.ndarray


def inertia(data) -> InertiaModel:
    """Mean and biased covariance ``(1/p) sum (x - mean)(x - mean)^T``."""
    points = np.asarray(data, dtype=float)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("data must be a nonempty 2-D array")
    if not np.all(np.isfinite(points)):
        raise ValueError("data contains non-finite entries")
    mean = points.mean(axis=0)
    centered = points - mean
    sigma = (centered.T @ centered) / points.shape[0]
    return InertiaModel(mean=mean, sigma=0.5 * (sigma + sigma.T), count=points.shape[0])


def principal_subspace(model: InertiaModel, m: int) -> PrincipalSubspace:
    """Top-m eigenvectors of the inertia matrix, deterministically signed.

    Eigenvalues come in descending order; each vector's first coordinate
    of magnitude above 1e-12 is made positive, so repeated calls (and tied
    spectra) resolve the same way.
    """
    n = model.sigma.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"subspace dimension out of range: expected [1, {n}], got {m}")
    eigvals, eigvecs = np.linalg.eigh(model.sigma)
    order = np.arange(n - 1, n - 1 - m, -1)
    basis = eigvecs[:, order].copy()
    values = eigvals[order].copy()
    for col in range(m):
        nonzero = np.flatnonzero(np.abs(basis[:, col]) > 1e-12)
        if nonzero.size and basis[nonzero[0], col] < 0.0:
            basis[:, col] = -basis[:, col]
    return PrincipalSubspace(basis=basis, eigenvalues=values)


def unit_ball_volume(n: int) -> float:
    """Volume of the n-dimensional unit ball."""
    if n < 1:
        raise ValueError(f"dimension out of range: expected >= 1, got {n}")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def ball_inertia_analytic(center, radius: float, n: int) -> BallInertia:
    """Eigenvalues of ``integral over the ball of x x^T dx``.

    Along the center direction the eigenvalue is ``r^n ||c||^2 vol(B_n)
    + C r^(n+2)`` and across it ``C r^(n+2)``, with ``C =
    vol(B_n)/(n+2)``. ``center`` may be the vector or its norm.
    """
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius out of range: expected finite and > 0, got {radius!r}")
    center_arr = np.atleast_1d(np.asarray(center, dtype=float))
    if center_arr.ndim != 1:
        raise ValueError("center must be a vector or a scalar norm")
    if center_arr.size not in (1, n):
        raise ValueError(f"center of the wrong length: expected a scalar or length {n}")
    center_sq = float(center_arr @ center_arr)
    volume = unit_ball_volume(n)
    constant = volume / (n + 2.0)
    lambda_perp = constant * radius ** (n + 2)
    lambda_axis = radius**n * center_sq * volume + lambda_perp
    return BallInertia(lambda_axis=lambda_axis, lambda_perp=lambda_perp, constant=constant)


def sample_ball(center, radius: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples from a ball: Gaussian direction, radius ~ r * U^(1/n)."""
    center = np.asarray(center, dtype=float)
    n = center.shape[0]
    direction = rng.standard_normal((count, n))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radii = radius * rng.random(count) ** (1.0 / n)
    return center + direction * radii[:, None]


def toy_two_balls(n: int, center, radius: float, samples: int, seed: int) -> LabeledPoints:
    """Uniform samples from two mirrored balls at ``+/- center``, labels +/-1.

    Requires a finite center and radius with ``||center|| > radius > 0``,
    so the balls are disjoint; ``samples`` counts points per ball.
    Deterministic given the seed.
    """
    center = np.asarray(center, dtype=float)
    if center.shape != (n,):
        raise ValueError(f"center of the wrong length: expected length {n}")
    if not np.all(np.isfinite(center)):
        raise ValueError("non-finite entries: center holds inf or nan")
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius out of range: expected finite and > 0, got {radius!r}")
    if float(np.linalg.norm(center)) <= radius:
        raise ValueError("balls overlap: need ||center|| > radius")
    if samples < 1:
        raise ValueError("need at least one sample per ball")
    features = np.vstack(
        [
            sample_ball(center, radius, samples, substream(seed, "two-balls", 0)),
            sample_ball(-center, radius, samples, substream(seed, "two-balls", 1)),
        ]
    )
    labels = np.repeat(np.array([1, -1]), samples)
    return LabeledPoints(features=features, labels=labels)


def toy_cross_polytope_balls(n: int, radius: float, samples: int, seed: int) -> LabeledPoints:
    """Uniform samples from 2n balls at ``+/- e_i``; label ``2i + (sign<0)``.

    Requires ``radius < 1/sqrt(2)`` so all balls are pairwise disjoint;
    ``samples`` counts points per ball.
    """
    if n < 1:
        raise ValueError(f"dimension out of range: expected >= 1, got {n}")
    if not 0.0 < radius < 1.0 / math.sqrt(2.0):
        raise ValueError(f"radius out of range: expected (0, 1/sqrt(2)), got {radius!r}")
    if samples < 1:
        raise ValueError("need at least one sample per ball")
    blocks = []
    labels = []
    for axis_index in range(n):
        for sign_index, sign in enumerate((1.0, -1.0)):
            center = np.zeros(n)
            center[axis_index] = sign
            rng = substream(seed, "cross-polytope", axis_index, sign_index)
            blocks.append(sample_ball(center, radius, samples, rng))
            labels.extend([2 * axis_index + sign_index] * samples)
    return LabeledPoints(features=np.vstack(blocks), labels=np.array(labels))
