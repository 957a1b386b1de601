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


def circular_width_sq(n: int, alpha: float) -> WidthBound:
    """Squared-width curve of a circular cone's sphere patch in n dimensions.

    Value ``n * sin(alpha)**2 + cos(2*alpha)``: the statistical dimension
    of the circular cone up to a small error term (Amelunxen, Lotz, McCoy
    and Tropp, "Living on the edge", 2014). At n = 100 and the half-angles
    pi/8, pi/4 and 3pi/8 the two agree to within 3.6e-6; the error grows
    towards 1/2 as alpha nears 0 or pi/2.
    """
    if n < 1:
        raise ValueError(f"dimension out of range: expected >= 1, got {n}")
    if not 0.0 <= alpha <= math.pi / 2:
        raise ValueError(f"half-angle out of range: expected [0, pi/2], got {alpha!r}")
    value = n * math.sin(alpha) ** 2 + math.cos(2.0 * alpha)
    return WidthBound(value=value, kind=CIRCULAR_CURVE_SQ)


def _scaled_norm(a: np.ndarray, ord=None) -> tuple[float, int]:
    """``(m, e)`` with ``np.linalg.norm(a, ord) = m * 2**e``, taken of ``a / 2**e``
    for ``e = binary_exponent(a)``, whose squares stay in range at any scale."""
    exp = binary_exponent(a)
    return float(np.linalg.norm(np.ldexp(a, -exp), ord)), exp


def _in_units(exp: int, *lengths: tuple[float, int]) -> list[float]:
    """Each ``(m, e)`` length ``m * 2**e`` divided by ``2**exp``; inf where that overflows."""
    with np.errstate(over="ignore"):
        return [float(np.ldexp(m, e - exp)) for m, e in lengths]


def _center_line(e1: Ellipsoid, e2: Ellipsoid):
    """Center-line geometry of two symmetric-PSD ellipsoids.

    Returns the unit axis from the second center to the first, then the
    center gap and the shapes' pulls ``||A1 @ axis||`` and ``||A2 @ axis||``
    as ``(m, e)`` lengths, which may lie beyond the doubles.
    """
    if not (e1.symmetric_psd and e2.symmetric_psd):
        raise ValueError("pair geometry requires symmetric PSD shape matrices")
    if e1.ambient_dim != e2.ambient_dim:
        raise ValueError("ellipsoids must share an ambient dimension")
    # gap * 2**half is c1 - c2, halved only where the difference overflows
    with np.errstate(over="ignore"):
        gap, half = e1.center - e2.center, 0
    if not np.isfinite(gap).all():
        gap, half = np.ldexp(e1.center, -1) - np.ldexp(e2.center, -1), 1
    zeta, exp = _scaled_norm(gap)
    if zeta == 0.0:
        raise ValueError("ellipsoid centers coincide")
    # gap / ||gap||, both first scaled up exactly where ||gap|| underflows, or
    # down as little as keeps it a double where it overflows
    k = min(exp, max(exp + math.frexp(zeta)[1] - 1024, 0))
    axis = np.ldexp(gap, -k) / math.ldexp(zeta, exp - k)
    return axis, (zeta, exp + half), *(_scaled_norm(e.shape @ axis) for e in (e1, e2))


def _hypothesis_not_met(kind: str, gap, pull1, pull2, std_error=None) -> WidthBound:
    """Invalid bound: the center gap does not exceed the shapes' axis pull."""
    zeta, ae1, ae2 = _in_units(0, gap, pull1, pull2)
    reason = f"center gap {zeta} does not exceed axis pull {ae1 + ae2}"
    return WidthBound(math.inf, kind, std_error, valid=False, reason=reason)


def width_bound_ellipsoids(e1: Ellipsoid, e2: Ellipsoid) -> WidthBound:
    """Closed-form width bound for the difference cone of two ellipsoids.

    Requires symmetric PSD shapes and distinct centers. When the center gap
    beats the shapes' pull along the axis (``zeta > ||A1 e|| + ||A2 e||``),
    the sphere patch of the difference cone has width at most
    ``(||A1||_F + ||A2||_F) / (zeta - ||A1 e|| - ||A2 e||) + 1/sqrt(2 pi)``.
    Otherwise the bound does not apply and ``valid`` is False. Taken in
    units of the gap's power of two, the bound holds at any scale.
    """
    _, gap, *pulls = _center_line(e1, e2)
    return _gap_bound(gap, pulls, [_scaled_norm(e.shape, "fro") for e in (e1, e2)])


def _gap_bound(gap, pulls, fros) -> WidthBound:
    """``width_bound_ellipsoids`` from the ``(m, e)`` center gap, axis pulls
    ``||Ai e||`` and Frobenius norms ``||Ai||_F``, in units of the gap's power of two."""
    zeta, ae1, ae2 = _in_units(gap[1], gap, *pulls)
    if zeta - ae1 - ae2 <= 0.0:
        return _hypothesis_not_met(ELLIPSOID_THEOREM, gap, *pulls)
    fro1, fro2 = _in_units(gap[1], *fros)
    value = (fro1 + fro2) / (zeta - ae1 - ae2) + INV_SQRT_2PI
    return WidthBound(value=value, kind=ELLIPSOID_THEOREM)


def _axis_pair_bounds(shape1: np.ndarray, shape2: np.ndarray, axis: np.ndarray, zetas):
    """``width_bound_ellipsoids`` of the pairs centred at ``+/- zeta axis / 2``, per gap.

    The shapes must be symmetric PSD, which is not checked: the ellipsoid
    sweep, the only caller, draws them so. ``axis`` must be a signed
    standard basis vector: the pair's gap vector is then ``zeta axis``
    exactly, its norm ``zeta`` and its unit axis ``axis``, so the shapes'
    pulls and norms are taken once for every gap. A gap of 0, where the
    centres coincide, gets None.
    """
    pulls = [_scaled_norm(shape @ axis) for shape in (shape1, shape2)]
    fros = [_scaled_norm(shape, "fro") for shape in (shape1, shape2)]
    return [_gap_bound(math.frexp(zeta), pulls, fros) if zeta > 0.0 else None for zeta in zetas]


_erfc = np.frompyfunc(math.erfc, 1, 1)


def _positive_part_expectation_vec(a: np.ndarray) -> np.ndarray:
    """``E (a - g)_+`` for a standard normal g: ``a * Phi(a) + phi(a)``.

    ``Phi(a) = erfc(-a / sqrt(2)) / 2``, which keeps full relative
    precision where ``a >= 0``, the only place it is evaluated.
    """
    cdf = 0.5 * np.asarray(_erfc(-a / math.sqrt(2.0)), dtype=float)
    return a * cdf + INV_SQRT_2PI * np.exp(-0.5 * a * a)


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
        raise ValueError(f"too few trials: need at least 2, got {trials}")
    axis, gap, *pulls = _center_line(e1, e2)
    zeta, ae1, ae2 = _in_units(gap[1], gap, *pulls)
    if zeta - ae1 - ae2 <= 0.0:
        return _hypothesis_not_met(MONTE_CARLO, gap, *pulls, std_error=math.inf)
    rng = substream(seed, "width-pseudoprojection")
    g = rng.standard_normal((trials, axis.shape[0]))
    g2 = g - np.outer(g @ axis, axis)
    # norms of the rows of g2 @ A' in units of 2**exp, so their squares stay in range
    exp = binary_exponent(e1.shape, e2.shape)
    shape1, shape2 = (np.ldexp(e.shape, -exp) for e in (e1, e2))
    numerator = np.linalg.norm(g2 @ shape1.T, axis=1) + np.linalg.norm(g2 @ shape2.T, axis=1)
    # past 1e154, a * a overflows and exp(-a * a / 2) is rightly 0; estimates
    # beyond the doubles come out inf or nan
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a = numerator / np.ldexp(zeta - ae1 - ae2, gap[1] - exp)
        values = _positive_part_expectation_vec(a)
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
        raise ValueError(f"too few trials: need at least 2, got {trials}")
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
        raise ValueError(f"too few trials: need at least 2, got {trials}")
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
