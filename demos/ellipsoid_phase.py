#!/usr/bin/env python3
"""Projection budgets for ellipsoid pairs, measured against the bound.

Draws hyperplane-constrained Wishart ellipsoids straddling a center gap,
sweeps the projected dimension, and prints the empirical 50% and 95%
success ranks next to the mean squared width bound. Larger gaps shrink
the bound, and the transition slides left with it; the bound hugs the
50% rank but can sit below the 95% rank at the largest gaps.
"""

import numpy as np

from projsep import estimate_transition, run_ellipsoid_phase


def fmt(value: float) -> str:
    return "  -  " if value is None or np.isnan(value) else f"{value:5.1f}"


def main() -> None:
    n, trials, seed = 40, 40, 11
    zetas = (100.0, 200.0, 300.0, 400.0)
    grid = run_ellipsoid_phase(
        n,
        zetas,
        tuple(range(1, n + 1)),
        trials=trials,
        seed=seed,
        variant="hyperplane",
    )
    half = estimate_transition(grid, level=0.5)
    strict = estimate_transition(grid, level=0.95)

    print(f"N = {n}, {trials} trials per cell, seed {seed}")
    print(f"{'gap':>6} {'bound curve':>12} {'50% rank':>9} {'95% rank':>9}")
    for zeta, curve, e50, e95 in zip(zetas, grid.meta["mean_sq_bound"], half, strict):
        print(f"{zeta:6.0f} {fmt(curve):>12} {fmt(e50.m_cross):>9} {fmt(e95.m_cross):>9}")
    print()
    print("The curve falls as the gap grows and stays above the 50% rank.")
    print("Demanding 95% success costs a few extra dimensions, enough to put")
    print("the rank above the curve at the largest gaps.")


if __name__ == "__main__":
    main()
