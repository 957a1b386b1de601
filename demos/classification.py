#!/usr/bin/env python3
"""Classifying a separable ellipsoid mixture under three feature maps.

Builds five disjoint ellipsoid classes in R^200, plans a projection
dimension from their geometry, then trains the same softmax classifier
on raw features, on the planned random projection, and on a matching
principal subspace. The planned projection keeps the error of the raw
run.
"""

import math

import numpy as np

from projsep import Ellipsoid, plan_multiclass
from projsep.classify import Dataset, run_pipeline


def build_mixture(n=200, per_class=200, classes=5, seed=42):
    rng = np.random.default_rng(seed)
    bodies, blocks = [], []
    for k in range(classes):
        center = np.zeros(n)
        center[k] = 30.0
        a = rng.standard_normal((n, n)) / math.sqrt(n)
        shape = a @ a.T
        bodies.append(Ellipsoid(center, shape))
        x = rng.standard_normal((per_class, n))
        x *= (rng.random(per_class) ** (1.0 / n) / np.linalg.norm(x, axis=1))[:, None]
        blocks.append(center + x @ shape.T)
    labels = np.repeat(np.arange(classes), per_class)
    return bodies, Dataset(np.vstack(blocks), labels)


def main() -> None:
    bodies, data = build_mixture()
    plan = plan_multiclass(bodies, p=0.1)
    print(plan.render_table())
    print()

    methods = ["identity", f"rp:{plan.m}", f"pca:{plan.m}"]
    reports = run_pipeline(data, 0.5, methods, seed=43, max_iters=2000, tol=0.0)
    print(f"{'method':>10} {'rows':>5} {'test error':>11} {'train seconds':>14}")
    for r in reports:
        print(f"{r.method:>10} {r.m:5d} {r.error:11.3f} {r.train_seconds:14.2f}")
    print()
    print(f"The planner asked for M = {plan.m} of 200 dimensions; the random")
    print("projection needs no training data at all, yet matches the raw run.")


if __name__ == "__main__":
    main()
