"""Projection-dimension planners from Gordon's escape through the mesh.

Given a width (or width bound) w for the sphere patch of a difference
cone, these functions say how many Gaussian projection rows keep the
random null space clear of the cone with probability at least 1 - eta,
hence keep projected bodies disjoint: one pair (``required_dim_gordon``),
two balls (``required_dim_two_balls``) or many classes (``plan_multiclass``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations

from .bodies import Ball, Ellipsoid, difference_cone
from .widths import ELLIPSOID_THEOREM, WidthBound, circular_width_sq, width_bound_ellipsoids


def required_dim_gordon(width: float, eta: float) -> int:
    """Smallest projected dimension with failure probability at most eta.

    Returns the least integer strictly greater than
    ``(width + sqrt(2 ln(1/eta)))^2 + 1``; raises ValueError where that
    threshold is beyond the doubles.
    """
    width = float(width)
    if math.isnan(width) or width < 0.0:
        raise ValueError(f"width out of range: expected a nonnegative number, got {width!r}")
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta out of range: expected (0, 1), got {eta!r}")
    try:
        return int(math.floor((width + math.sqrt(2.0 * math.log(1.0 / eta))) ** 2 + 1.0)) + 1
    except OverflowError:
        raise ValueError(f"projection dimension beyond the doubles: width {width!r}") from None


def required_dim_two_balls(n: int, ball1: Ball, ball2: Ball, eta: float) -> int:
    """Projection rows keeping two separated balls disjoint w.p. >= 1 - eta.

    Chains the exact circular difference cone, the squared-width curve in
    n dimensions, and the escape-theorem dimension requirement.
    """
    if ball1.ambient_dim != n or ball2.ambient_dim != n:
        raise ValueError("balls must live in the stated ambient dimension")
    cone = difference_cone(ball1, ball2)
    width = math.sqrt(circular_width_sq(n, cone.half_angle).value)
    return required_dim_gordon(width, eta)


@dataclass(frozen=True)
class PairPlan:
    """One unordered class pair inside a multiclass plan."""

    first: int
    second: int
    bound: WidthBound
    eta: float
    m_required: int | None


@dataclass(frozen=True)
class MultiClassPlan:
    """Projection-dimension plan covering every class pair.

    The failure budget p is split evenly over the C(K,2) pairs; ``m`` is
    the max per-pair requirement, or None when some pair has none: its
    width bound does not apply, or its dimension is beyond the doubles
    (``feasible`` False).
    """

    n_classes: int
    budget: float
    pairs: tuple[PairPlan, ...]
    m: int | None
    feasible: bool

    def render_table(self) -> str:
        rows = [("pair", "width", "eta", "M")]
        for pair in self.pairs:
            value = pair.bound.value
            width = (f"{value:.5f}" if value < 1e6 else f"{value:.5e}") if pair.bound.valid else "invalid"
            m_text = str(pair.m_required) if pair.m_required is not None else "-"
            rows.append((f"{pair.first}-{pair.second}", width, f"{pair.eta:.6g}", m_text))
        cols = [max(len(row[i]) for row in rows) for i in range(4)]
        lines = ["  ".join(cell.ljust(cols[i]) for i, cell in enumerate(row)) for row in rows]
        summary = f"M = {self.m}" if self.feasible else "infeasible by bound"
        lines.append(summary)
        return "\n".join(lines)


def plan_multiclass(ellipsoids: list[Ellipsoid], p: float) -> MultiClassPlan:
    """Plan one projection dimension for pairwise-separated classes.

    Splits the failure budget as ``eta_ij = p / C(K,2)`` and takes the max
    of per-pair dimension requirements. Pairs whose width bound does not
    apply, or whose dimension is beyond the doubles (the bound then keeps
    its value and says so in its ``reason``), are kept in the table with
    ``m_required`` None and mark the plan infeasible.
    """
    k = len(ellipsoids)
    if k < 2:
        raise ValueError(f"too few classes: need at least 2, got {k}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"failure budget out of range: expected (0, 1), got {p!r}")
    n_pairs = k * (k - 1) // 2
    eta = p / n_pairs
    pairs = []
    for i, j in combinations(range(k), 2):
        try:
            bound = width_bound_ellipsoids(ellipsoids[i], ellipsoids[j])
        except ValueError as exc:
            bound = WidthBound(
                value=math.inf, kind=ELLIPSOID_THEOREM, valid=False, reason=str(exc)
            )
        m_required = None
        if bound.valid:
            try:
                m_required = required_dim_gordon(bound.value, eta)
            except ValueError as exc:
                bound = replace(bound, reason=str(exc))
        pairs.append(PairPlan(first=i, second=j, bound=bound, eta=eta, m_required=m_required))
    feasible = all(pair.m_required is not None for pair in pairs)
    m = max(pair.m_required for pair in pairs) if feasible else None
    return MultiClassPlan(
        n_classes=k, budget=p, pairs=tuple(pairs), m=m, feasible=feasible
    )
