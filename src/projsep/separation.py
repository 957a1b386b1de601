"""Deciding disjointness of two ellipsoids exactly, with checked certificates.

Write ``d = c2 - c1`` and ``Si = Bi Bi'``. The bodies meet iff ``d`` lies
in the Minkowski sum of the centred bodies, which is the intersection of
the outer ellipsoids ``{z : z' (S1/(1-s) + S2/s)^-1 z <= 1}`` over ``s`` in
(0, 1) (Kurzhanski and Valyi, 1997). Whitening ``S1 + S2`` on its range
turns that into one concave function of ``s`` (Gilitschenski and Hanebeck,
2012): the bodies are disjoint iff ``f(s) = sum_i v_i^2 s(1-s) / (mu_i s +
(1-mu_i)(1-s))`` exceeds 1 somewhere on [0, 1]. Scaling both centres by
t scales the ``v_i`` by t and f by ``t**2``, so one whitening and one
maximization decide the pair at every such scale; the ellipsoid sweep
decides all its center gaps at one projected dimension that way. Every
verdict is checked before it is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count

import numpy as np

from .bodies import Ball, Ellipsoid

DISJOINT = "Disjoint"
INTERSECTING = "Intersecting"
INDETERMINATE = "Indeterminate"

# relative rounding allowed in an Intersecting witness
WITNESS_TOL = 1e-9
# whitened extents mu within this of 0 or 1 are rounding: that body is flat there
FLAT_TOL = 1e-10


@dataclass(frozen=True)
class SeparationVerdict:
    """Outcome of a disjointness decision.

    ``certificate`` (Disjoint) is a unit direction whose dual-cone margin
    exceeds its rounding error; ``witness`` (Intersecting) is the pair of
    unit-ball preimages of a common point, up to ``WITNESS_TOL`` relative
    rounding. Touching bodies count as Intersecting. ``norm`` is the factor
    by which both bodies, scaled about their centres, touch: ``sqrt(max f)`` for
    Intersecting, and for Disjoint the lower bound ``<w, d> / (||B1'w|| +
    ||B2'w||)`` that the certificate w proves. A margin above the largest
    double is ``inf``, one below the least is 0; ``to_dict`` writes an
    infinite margin or norm as None. ``iterations`` counts evaluations of f.
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
            "margin": self.margin if math.isfinite(self.margin) else None,
            "norm": self.norm if math.isfinite(self.norm) else None,
            "iterations": self.iterations,
            "certificate": None if self.certificate is None else self.certificate.tolist(),
            "witness": None
            if self.witness is None
            else [self.witness[0].tolist(), self.witness[1].tolist()],
        }


def _rounding_slack(d: np.ndarray, b1: np.ndarray, b2: np.ndarray, factors) -> list[float]:
    """Bounds on the rounding error of ``t <w, d> - r ||B1'w|| - r ||B2'w||``.

    One bound per factor pair ``(t, r)``, each valid for every unit ``w``.
    A pair of a scaled family, divided by its own power of two, has centres
    t times the family's, whose difference d is rounded from ``c2 - c1``,
    and shapes r times ``B1`` and ``B2``, where r is a power of two, so the
    products by r are exact; a single pair has ``t = r = 1``. A length-n
    dot product errs by at most ``n u |x|'|y|`` (``u = 2**-53``, to first
    order), whatever the order of summation, and for a unit w, ``|w|'|d|
    <= ||d||`` and ``|| |B|'|w| || <= ||B||_F``. With ``size = t ||d|| + r
    ||B1||_F + r ||B2||_F`` and r' the larger column count, the first-order
    errors, in units of u, are:

    - ``n + 2`` times ``t ||d||`` for ``t <w, d>``: n for the dot product,
      one for rounding d and one for the product by t (exact when t is a
      power of two);
    - ``n + r'/2 + 1`` times ``r ||B||_F`` for each norm: n for the entries
      of ``B'w``, r'/2 for the sum of r' squares and one for the square root;
    - at most ``size`` for each of the two subtractions, which are exact
      when r' = 0, since both norms are then 0.

    So the ``t ||d||`` term needs at most ``n + 4`` (``n + 2`` when r' = 0)
    and the norm terms ``n + r'/2 + 3``, and ``kappa = n + r' + 4`` covers
    every term with at least one u to spare for the second-order ones.
    """
    kappa = d.size + max(b1.shape[1], b2.shape[1]) + 4
    gap, fro1, fro2 = (float(np.linalg.norm(a)) for a in (d, b1, b2))
    return [math.ldexp(kappa * (t * gap + r * fro1 + r * fro2), -53) for t, r in factors]


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
    if (v2[~flat2] / (1.0 - mu[~flat2])).sum() <= v2[flat2].sum():
        return 0.0, float(v2[flat2].sum()), 1
    if (v2[~flat1] / mu[~flat1]).sum() <= v2[flat1].sum():
        return 1.0, float(v2[flat1].sum()), 1
    rest = 1.0 - mu
    spread = v2 * mu * rest
    lo, hi, s = 0.0, 1.0, 0.5
    for evaluations in count(1):
        den = mu * s + rest * (1.0 - s)
        f = s * (1.0 - s) * float((v2 / den).sum())
        slope = float((v2 * (rest * (1.0 - s) ** 2 - mu * s * s) / den**2).sum())
        if f > level or slope == 0.0:
            return s, f, evaluations
        if slope > 0.0:
            lo = s
        else:
            hi = s
        curvature = -2.0 * float((spread / den**3).sum())
        step = s - slope / curvature if curvature < 0.0 else 0.5 * (lo + hi)
        if step == s:
            return s, f, evaluations
        following = step if lo < step < hi else 0.5 * (lo + hi)
        if not lo < following < hi:
            return s, f, evaluations
        s = following


def _decide_scaled(c1, c2, b1, b2, scales) -> tuple[list[SeparationVerdict], bool]:
    """Decide the pairs ``(t c1, t c2, B1, B2)`` for several scales ``t >= 0`` at once.

    Scaling both centres by t scales d and its whitened coordinates by t,
    so ``f_t(s) = t**2 f_1(s)``, and the pair at scale t is disjoint iff
    ``max f_1 > 1 / t**2``. One decomposition of ``[B1 B2]`` and one
    maximization of ``f_1``, which stops once ``f_1`` exceeds ``1 /
    t_min**2`` for the least scale still open, serve every scale. A
    direction w certifies each scale whose margin ``t <w, d> - ||B1'w|| -
    ||B2'w||`` exceeds that scale's ``_rounding_slack``, and the witness at
    the maximizer is ``(t x_1, t y_1)``, checked for each scale on its own
    pair. Only ``d = c2 - c1`` and the shapes enter, and d is formed before
    anything is scaled, so centres far larger than their gap keep it. Each
    pair is judged divided by its own power of two, as ``decide_disjoint``
    divides a pair, so no scale's norms leave the range of doubles. The
    products ``t d`` count as exact. With the single scale 1, this is
    ``decide_disjoint``.

    Returns one verdict per scale, in order, and whether ``[B1 B2]`` was
    decomposed, which it is unless the centre line certifies every scale.
    """
    scales = [float(t) for t in scales]
    if not all(0.0 <= t < math.inf for t in scales):
        raise ValueError("scales must be finite and >= 0")
    reach_c, reach_b = (
        max(float(np.abs(a).max(initial=0.0)) for a in pair) for pair in ((c1, c2), (b1, b2))
    )
    if not max(scales, default=0.0) * reach_c < math.inf:
        raise ValueError("scaled centres overflow")
    # d * 2**half is c2 - c1, halved only where the difference overflows; the
    # halving then loses bits below 2**-1074, far under the rounding of d
    if reach_c < 2.0**1023:
        d, half = c2 - c1, 0
    else:
        with np.errstate(over="ignore"):
            d, half = c2 - c1, 0
        if not np.isfinite(d).all():
            d, half = np.ldexp(c2, -1) - np.ldexp(c1, -1), 1
    # d in units of 2**shift, the shapes in units of 2**base (zero shapes in
    # the least double's, d = 0 in the shapes'); at scale t the pair divided
    # by its 2**exp is (tc d, r B1, r B2) up to translation, and its f is
    # ratio**2 = (tc / r)**2 times that of (d, B1, B2)
    reach_d = float(np.abs(d).max(initial=0.0))
    base = math.frexp(reach_b or math.ulp(0.0))[1]
    shift = math.frexp(reach_d)[1] + half if reach_d > 0.0 else base
    d = np.ldexp(d, half - shift)
    b1, b2 = np.ldexp(b1, -base), np.ldexp(b2, -base)
    top = math.ldexp(reach_d, half - shift)
    exps = [max(shift + math.frexp(t * top)[1], base) if t * top > 0.0 else base for t in scales]
    tcs = [math.ldexp(t, shift - exp) for t, exp in zip(scales, exps)]
    rs = [math.ldexp(1.0, base - exp) for exp in exps]
    slacks = _rounding_slack(d, b1, b2, zip(tcs, rs))
    verdicts: list[SeparationVerdict | None] = [None] * len(scales)

    def certify(direction: np.ndarray, candidates, evaluations: int) -> list[int]:
        """Disjoint, with the unit direction as certificate, for each candidate
        scale whose margin exceeds its slack; returns the scales still open.

        A margin within ``_rounding_slack`` of zero proves nothing, so those
        scales go on to the witness path, where touching bodies intersect.
        """
        length = float(np.linalg.norm(direction))
        if not length > 0.0:
            return list(candidates)
        w = direction / length
        along = float(w @ d)
        reach1, reach2 = (float(np.linalg.norm(b.T @ w)) for b in (b1, b2))
        left = []
        for i in candidates:
            scaled = tcs[i] * along
            margin = scaled - rs[i] * reach1 - rs[i] * reach2
            if margin > slacks[i]:
                try:
                    unscaled = math.ldexp(margin, exps[i])
                except OverflowError:
                    unscaled = math.inf
                verdicts[i] = SeparationVerdict(
                    state=DISJOINT,
                    margin=unscaled,
                    norm=scaled / (scaled - margin) if scaled > margin else math.inf,
                    iterations=evaluations,
                    certificate=w,
                )
            else:
                left.append(i)
        return left

    undecided = certify(d, range(len(scales)), 0)
    if not undecided:
        return verdicts, False
    # a scale still open has t |d| within a small factor of |B|, or d = 0: its ratio is in range
    ratios = {i: math.ldexp(scales[i], shift - base) for i in undecided}
    # [B1 B2] = U diag(sigma) [P1 P2] whitens S1 + S2 = U diag(sigma^2) U' on
    # its range without squaring its condition number, as eigh(S1 + S2) would
    both = np.hstack((b1, b2))
    basis, sigma, rows = np.linalg.svd(both, full_matrices=False)
    rank = int(np.sum(sigma > sigma[:1] * max(both.shape) * np.finfo(float).eps))
    basis, sigma, rows = basis[:, :rank], sigma[:rank], rows[:rank]
    undecided = certify(d - basis @ (basis.T @ d), undecided, 0)
    if not undecided:
        return verdicts, True
    p1, p2 = rows[:, : b1.shape[1]], rows[:, b1.shape[1] :]
    mu, rotation = np.linalg.eigh(p1 @ p1.T)
    mu = np.where(mu < FLAT_TOL, 0.0, np.where(mu > 1.0 - FLAT_TOL, 1.0, mu))
    coords = rotation.T @ ((basis.T @ d) / sigma)
    least = min(ratios[i] for i in undecided)
    least *= least
    level = 1.0 / least if least > 0.0 else math.inf
    s, f, evaluations = _maximize(mu, coords**2, level)
    beyond = [i for i in undecided if ratios[i] * ratios[i] * f > 1.0]
    if beyond:
        a, b = _weights(mu, s)
        # s (1 - s) / den, which is 1 - s where body 2 is flat
        weight = np.where(mu == 1.0, (1.0 - s) * a, s * b)
        lam = basis @ ((rotation @ (weight * coords)) / sigma)
        certify(lam, beyond, evaluations)
        undecided = [i for i in undecided if verdicts[i] is None]
        if not undecided:
            return verdicts, True
    if f > level:
        # touching up to rounding: only the maximizer itself gives a witness
        # with ||x|| = ||y|| = sqrt(max f), not the first s with f > level
        s, f, more = _maximize(mu, coords**2, math.inf)
        evaluations += more
    a, b = _weights(mu, s)
    x1 = p1.T @ (rotation @ (a * coords))
    y1 = -(p2.T @ (rotation @ (b * coords)))
    length, fro1, fro2, reach1, reach2 = (
        float(np.linalg.norm(v)) for v in (d, b1, b2, x1, y1)
    )
    for i in undecided:
        tc, r, ratio = tcs[i], rs[i], ratios[i]
        x, y = ratio * x1, ratio * y1
        size = max(tc * length, r * fro1, r * fro2)
        residual = float(np.linalg.norm(r * (b1 @ x) - r * (b2 @ y) - tc * d))
        reach = ratio * max(reach1, reach2)
        witnessed = reach <= 1.0 + WITNESS_TOL and residual <= WITNESS_TOL * size
        verdicts[i] = SeparationVerdict(
            state=INTERSECTING if witnessed else INDETERMINATE,
            margin=0.0,
            norm=ratio * math.sqrt(f),
            iterations=evaluations,
            witness=(x, y) if witnessed else None,
        )
    return verdicts, True


def decide_disjoint(e1: Ellipsoid | Ball, e2: Ellipsoid | Ball) -> SeparationVerdict:
    """Decide whether two bodies are disjoint, exactly, with a checked certificate.

    In order: the centre-line direction ``d / ||d||`` may separate; a
    component of ``d`` outside the range of ``S1 + S2`` separates; else
    the maximum of ``f`` decides. Above 1, ``lam = (S1/(1-s) + S2/s)^-1 d``
    separates; at most 1, the maximizer ``s`` gives the common point
    ``c1 + B1 x = c2 + B2 y`` with ``x = B1' lam / (1-s)`` and ``y = -B2'
    lam / s``, where ``||x|| = ||y|| = sqrt(max f)`` at an interior
    maximum. A certificate w is returned only if its margin ``<w, d> -
    ||B1'w|| - ||B2'w||`` exceeds the margin's forward rounding error
    bound, a witness only if it reproduces a common point up to
    ``WITNESS_TOL``; Indeterminate is left when neither check accepts.
    Touching bodies intersect. The decision runs on ``d`` and the shapes,
    each divided by a power of two (see ``binary_exponent``), which is
    exact and keeps every norm in range, so it depends neither on the
    pair's scale nor on how far the centres outweigh the shapes or their
    gap.
    """
    e1, e2 = (e.to_ellipsoid() if isinstance(e, Ball) else e for e in (e1, e2))
    if e1.ambient_dim != e2.ambient_dim:
        raise ValueError(
            f"bodies must share an ambient dimension, got {e1.ambient_dim} "
            f"and {e2.ambient_dim}"
        )
    return _decide_scaled(e1.center, e2.center, e1.shape, e2.shape, (1.0,))[0][0]
