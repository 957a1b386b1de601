"""Gaussian width bounds and Monte Carlo width estimators.

The width of a set S on the sphere is ``E_g sup_{z in S} <z, g>`` for a
standard normal g. Everything here either evaluates a closed-form bound on
that quantity for a difference cone, or estimates it by sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln, ndtr

from ._rng import substream
from .bodies import CircularCone, Ellipsoid, binary_exponent

CIRCULAR_CURVE_SQ = "CircularCurveSq"
ELLIPSOID_THEOREM = "EllipsoidTheorem"
MONTE_CARLO = "MonteCarlo"

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class WidthBound:
    """A width (or squared-width) value with provenance and validity.

    ``std_error`` is populated exactly for Monte Carlo estimates. When the
    hypothesis behind a closed-form bound fails, ``valid`` is False and
    ``reason`` says why; ``value`` is then +inf.
    """

    value: float
    kind: str
    std_error: float | None = None
    valid: bool = True
    reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "kind": self.kind,
            "std_error": self.std_error,
            "valid": self.valid,
            "reason": self.reason,
        }


def lambda_m(m: int) -> float:
    """Expected norm of an m-dimensional standard normal vector.

    Equals ``sqrt(2) * Gamma((m+1)/2) / Gamma(m/2)`` and lies in
    ``[sqrt(m-1), sqrt(m)]``.
    """
    if m < 1:
        raise ValueError(f"dimension must be >= 1, got {m}")
    return math.exp(
        0.5 * math.log(2.0) + float(gammaln((m + 1) / 2.0) - gammaln(m / 2.0))
    )


def circular_width_sq(n: int, alpha: float) -> WidthBound:
    """Squared-width curve of a circular cone's sphere patch in n dimensions.

    Value ``n * sin(alpha)**2 + cos(2*alpha)``: the leading term plus the
    O(1) correction that makes the curve match phase-transition midpoints.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not 0.0 <= alpha <= math.pi / 2:
        raise ValueError(f"half-angle must lie in [0, pi/2], got {alpha!r}")
    value = n * math.sin(alpha) ** 2 + math.cos(2.0 * alpha)
    return WidthBound(value=value, kind=CIRCULAR_CURVE_SQ)


def _norm(a: np.ndarray, ord=None) -> float:
    """``np.linalg.norm(a, ord)``, taken of ``a / 2**e`` and scaled back.

    With ``e = binary_exponent(a)`` the squares stay in range at any
    scale; where they already do, the value is the same.
    """
    exp = binary_exponent(a)
    return math.ldexp(float(np.linalg.norm(np.ldexp(a, -exp), ord)), exp)


def _center_line(e1: Ellipsoid, e2: Ellipsoid) -> tuple[np.ndarray, float, float, float]:
    """Center-line geometry of two symmetric-PSD ellipsoids.

    Returns the unit axis from the second center to the first, the center
    gap ``zeta`` and the shapes' pulls ``||A1 @ axis||`` and ``||A2 @ axis||``.
    """
    if not (e1.symmetric_psd and e2.symmetric_psd):
        raise ValueError("pair geometry requires symmetric PSD shape matrices")
    if e1.ambient_dim != e2.ambient_dim:
        raise ValueError("ellipsoids must share an ambient dimension")
    gap = e1.center - e2.center
    zeta = _norm(gap)
    if zeta == 0.0:
        raise ValueError("ellipsoid centers coincide")
    axis = gap / zeta
    return axis, zeta, _norm(e1.shape @ axis), _norm(e2.shape @ axis)


def _hypothesis_not_met(kind: str, zeta: float, pull: float, std_error=None) -> WidthBound:
    """Invalid bound: the center gap does not exceed the shapes' axis pull."""
    reason = f"center gap {zeta} does not exceed axis pull {pull}"
    return WidthBound(math.inf, kind, std_error, valid=False, reason=reason)


def width_bound_ellipsoids(e1: Ellipsoid, e2: Ellipsoid) -> WidthBound:
    """Closed-form width bound for the difference cone of two ellipsoids.

    Requires symmetric PSD shapes and distinct centers. When the center gap
    beats the shapes' pull along the axis (``zeta > ||A1 e|| + ||A2 e||``),
    the sphere patch of the difference cone has width at most
    ``(||A1||_F + ||A2||_F) / (zeta - ||A1 e|| - ||A2 e||) + 1/sqrt(2 pi)``.
    Otherwise the bound does not apply and ``valid`` is False.
    """
    _, zeta, ae1, ae2 = _center_line(e1, e2)
    if zeta - ae1 - ae2 <= 0.0:
        return _hypothesis_not_met(ELLIPSOID_THEOREM, zeta, ae1 + ae2)
    fro = _norm(e1.shape, "fro") + _norm(e2.shape, "fro")
    return WidthBound(value=fro / (zeta - ae1 - ae2) + INV_SQRT_2PI, kind=ELLIPSOID_THEOREM)


def _positive_part_expectation_vec(a: np.ndarray) -> np.ndarray:
    """``E (a - g)_+`` for a standard normal g: ``a * Phi(a) + phi(a)``."""
    return a * ndtr(a) + INV_SQRT_2PI * np.exp(-0.5 * a * a)


class MapNormEstimate(NamedTuple):
    """Monte Carlo estimate of ``E ||A g||`` with its Jensen-type envelope."""

    estimate: float
    lower: float
    upper: float
    std_error: float


def mc_width_pseudoprojection(
    e1: Ellipsoid, e2: Ellipsoid, trials: int, seed: int
) -> WidthBound:
    """Monte Carlo width bound via the axis-orthogonal Gaussian split.

    Each trial draws a standard normal, removes its component along the
    pair axis to get ``g2``, and evaluates ``E (a - g)_+`` at
    ``a = (||A1 g2|| + ||A2 g2||) / (zeta - ||A1 e|| - ||A2 e||)``;
    the sample mean upper-bounds the difference-cone width in expectation.
    Deterministic given the seed.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    axis, zeta, ae1, ae2 = _center_line(e1, e2)
    if zeta - ae1 - ae2 <= 0.0:
        return _hypothesis_not_met(MONTE_CARLO, zeta, ae1 + ae2, std_error=math.inf)
    rng = substream(seed, "width-pseudoprojection")
    g = rng.standard_normal((trials, axis.shape[0]))
    g2 = g - np.outer(g @ axis, axis)
    # norms of the rows of g2 @ A' in units of 2**exp, so their squares stay in range
    exp = binary_exponent(e1.shape, e2.shape)
    shape1, shape2 = (np.ldexp(e.shape, -exp) for e in (e1, e2))
    numerator = np.linalg.norm(g2 @ shape1.T, axis=1) + np.linalg.norm(g2 @ shape2.T, axis=1)
    values = _positive_part_expectation_vec(numerator / math.ldexp(zeta - ae1 - ae2, -exp))
    estimate = float(values.mean())
    std_error = float(values.std(ddof=1) / math.sqrt(trials))
    return WidthBound(value=estimate, kind=MONTE_CARLO, std_error=std_error)


def mc_width_circular(cone: CircularCone, trials: int, seed: int) -> WidthBound:
    """Monte Carlo width of a circular cone's sphere patch.

    Uses the closed-form per-sample supremum ``||g|| cos(max(0, theta_g -
    half_angle))`` where ``theta_g`` is the angle between the sample and
    the cone axis.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    n = cone.ambient_dim
    rng = substream(seed, "width-circular")
    g = rng.standard_normal((trials, n))
    norms = np.linalg.norm(g, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    cos_theta = np.clip((g @ cone.axis) / safe, -1.0, 1.0)
    theta = np.arccos(cos_theta)
    values = norms * np.cos(np.maximum(theta - cone.half_angle, 0.0))
    estimate = float(values.mean())
    std_error = float(values.std(ddof=1) / math.sqrt(trials))
    return WidthBound(value=estimate, kind=MONTE_CARLO, std_error=std_error)


def mc_expected_map_norm(matrix, trials: int, seed: int) -> MapNormEstimate:
    """Monte Carlo estimate of ``E ||A g||`` with Jensen envelope.

    The expectation always lies in ``[sqrt(2/pi) * ||A||_F, ||A||_F]``;
    the returned bounds are those endpoints.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError("matrix must be 2-D")
    rng = substream(seed, "map-norm")
    g = rng.standard_normal((trials, a.shape[1]))
    values = np.linalg.norm(g @ a.T, axis=1)
    fro = float(np.linalg.norm(a, "fro"))
    return MapNormEstimate(
        estimate=float(values.mean()),
        lower=math.sqrt(2.0 / math.pi) * fro,
        upper=fro,
        std_error=float(values.std(ddof=1) / math.sqrt(trials)),
    )
