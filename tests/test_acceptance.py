"""End-to-end acceptance checks, one numbered criterion per test.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion. Criterion 6 holds the squared-width curve of the hyperplane
ellipsoid sweep to what the theory promises: it reaches the measured 50%
rank, and its escape dimension at eta = 0.05 reaches the measured 95% rank.
"""

import math
import time
import unittest

import numpy as np

from projsep.bodies import Ball, Ellipsoid, project_body
from projsep.classify import Dataset, run_pipeline
from projsep.escape import plan_multiclass, required_dim_gordon, required_dim_two_balls
from projsep.experiments import (
    estimate_transition,
    run_cone_phase,
    run_ellipsoid_phase,
    sample_wishart_shape,
)
from projsep.pca import (
    ball_inertia_analytic,
    inertia,
    principal_subspace,
    sample_ball,
    toy_cross_polytope_balls,
    toy_two_balls,
    unit_ball_volume,
)
from projsep.separation import DISJOINT, INDETERMINATE, INTERSECTING, decide_disjoint
from projsep.widths import (
    mc_expected_map_norm,
    mc_width_pseudoprojection,
    width_bound_ellipsoids,
)


def report(number, ok, detail=""):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)


def ball_pair(n, zeta):
    c2 = np.zeros(n)
    c2[0] = zeta
    return Ball(np.zeros(n), 1.0), Ball(c2, 1.0)


def ellipse_boundary(body, grid):
    theta = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return body.center + circle @ body.shape.T


def planar_oracle(e1, e2, grid=1000):
    """Boundary-grid verdict plus how far the instance is from tangency.

    Containment of a sampled boundary point (or a swallowed center)
    decides intersection; the minimum boundary-to-boundary distance is the
    magnitude, which near tangency approximates the unsigned gap.
    """
    pts1 = ellipse_boundary(e1, grid)
    pts2 = ellipse_boundary(e2, grid)
    sq = (
        np.einsum("ij,ij->i", pts1, pts1)[:, None]
        + np.einsum("ij,ij->i", pts2, pts2)[None, :]
        - 2.0 * (pts1 @ pts2.T)
    )
    magnitude = math.sqrt(max(float(sq.min()), 0.0))

    def inside(body, points):
        # some point has a preimage of norm <= 1 under the full-rank shape
        preimages = np.linalg.solve(body.shape, (points - body.center).T)
        return np.linalg.norm(preimages, axis=0).min() <= 1.0

    hit = inside(e2, np.vstack((pts1, e1.center))) or inside(e1, np.vstack((pts2, e2.center)))
    return (INTERSECTING if hit else DISJOINT), magnitude


def mc_ball_moment_eigs(center, radius, n, count, seed):
    rng = np.random.default_rng(seed)
    points = sample_ball(center, radius, count, rng)
    volume = unit_ball_volume(n) * radius**n
    return np.sort(np.linalg.eigvalsh(volume * (points.T @ points) / count))


class TestAcceptance(unittest.TestCase):
    def test_criterion_01_cone_phase_transition(self):
        alphas = (np.pi / 8, np.pi / 4, 3.0 * np.pi / 8)
        start = time.perf_counter()
        grid = run_cone_phase(
            100, alphas, tuple(range(1, 101)), trials=100, seed=1234
        )
        elapsed = time.perf_counter() - start
        estimates = estimate_transition(grid, level=0.5)
        gaps = [
            abs(est.m_cross - (100.0 * math.sin(a) ** 2 + math.cos(2.0 * a)))
            for a, est in zip(alphas, estimates)
        ]
        ok = max(gaps) <= 4.0 and elapsed < 30.0
        report(
            1,
            ok,
            "crossing offsets "
            + ", ".join(f"{g:.2f}" for g in gaps)
            + f"; {elapsed:.1f} s",
        )
        self.assertTrue(ok)

    def test_criterion_02_ball_rule_at_scale(self):
        eta = 0.01
        # the N=100 run is out of reach: the ball-pair bound asks for more
        # rows than ambient dimensions, so the same geometry runs at N=400
        self.assertEqual(required_dim_gordon(10.39894, eta), 182)
        n = 400
        b1, b2 = ball_pair(n, 4.0)
        m = required_dim_two_balls(n, b1, b2, eta)
        self.assertLessEqual(m, n)
        e1, e2 = b1.to_ellipsoid(), b2.to_ellipsoid()
        trials = 500
        start = time.perf_counter()
        successes = 0
        for t in range(trials):
            matrix = np.random.default_rng((202, t)).standard_normal((m, n))
            verdict = decide_disjoint(
                project_body(matrix, e1), project_body(matrix, e2)
            )
            successes += verdict.state == DISJOINT
        elapsed = time.perf_counter() - start
        threshold = (1.0 - eta) - 3.0 * math.sqrt(eta * (1.0 - eta) / trials)
        ratio = successes / trials
        ok = ratio >= threshold and elapsed < 120.0
        report(
            2,
            ok,
            f"M={m}, success {ratio:.4f} >= {threshold:.4f}; {elapsed:.1f} s",
        )
        self.assertTrue(ok)

    def test_criterion_03_norm_envelope(self):
        rng = np.random.default_rng(303)
        violations = 0
        for i in range(100):
            matrix = rng.standard_normal((20, 20))
            est = mc_expected_map_norm(matrix, trials=100_000, seed=3000 + i)
            low = est.lower - 3.0 * est.std_error
            high = est.upper + 3.0 * est.std_error
            violations += not low <= est.estimate <= high
        ok = violations == 0
        report(3, ok, f"{violations} of 100 outside the envelope")
        self.assertTrue(ok)

    def test_criterion_04_planar_oracle_agreement(self):
        rng = np.random.default_rng(404)
        start = time.perf_counter()
        checked = mismatches = indeterminate = 0
        states = {DISJOINT: 0, INTERSECTING: 0}
        for _ in range(100):
            a1 = rng.standard_normal((2, 2))
            a2 = rng.standard_normal((2, 2))
            e1 = Ellipsoid(1.5 * rng.standard_normal(2), a1 @ a1.T / 2.0)
            e2 = Ellipsoid(1.5 * rng.standard_normal(2), a2 @ a2.T / 2.0)
            expected, magnitude = planar_oracle(e1, e2)
            if magnitude <= 1e-3:
                continue
            verdict = decide_disjoint(e1, e2)
            checked += 1
            states[expected] += 1
            mismatches += verdict.state != expected
            indeterminate += verdict.state == INDETERMINATE
        elapsed = time.perf_counter() - start
        ok = mismatches == 0 and indeterminate == 0 and elapsed < 60.0
        report(
            4,
            ok,
            f"{checked} of 100 resolvable ({states[DISJOINT]} apart, "
            f"{states[INTERSECTING]} overlapping), {mismatches} mismatches, "
            f"{indeterminate} Indeterminate; {elapsed:.1f} s",
        )
        self.assertTrue(ok)
        self.assertGreaterEqual(checked, 90)

    def test_criterion_05_pseudo_projection_consistency(self):
        n, zeta = 40, 400.0
        axis = np.zeros(n)
        axis[0] = 1.0
        add_root = math.sqrt(2.0 * math.log(20.0))
        width_violations = skipped = 0
        worst_ratio = 1.0
        for pair_index in range(50):
            rng = np.random.default_rng((505, pair_index))
            shape1 = sample_wishart_shape(n, rng, constrained_axis=axis)
            shape2 = sample_wishart_shape(n, rng, constrained_axis=axis)
            e1 = Ellipsoid(0.5 * zeta * axis, shape1)
            e2 = Ellipsoid(-0.5 * zeta * axis, shape2)
            bound = width_bound_ellipsoids(e1, e2)
            self.assertTrue(bound.valid)
            est = mc_width_pseudoprojection(e1, e2, trials=2000, seed=5050 + pair_index)
            width_violations += not est.value <= bound.value + 3.0 * est.std_error
            m = math.ceil((bound.value + add_root) ** 2 + 1.0)
            if m > n:
                skipped += 1
                continue
            successes = 0
            for t in range(100):
                matrix = np.random.default_rng((506, pair_index, t)).standard_normal(
                    (m, n)
                )
                verdict = decide_disjoint(
                    project_body(matrix, e1), project_body(matrix, e2)
                )
                successes += verdict.state == DISJOINT
            worst_ratio = min(worst_ratio, successes / 100.0)
        ok = width_violations == 0 and worst_ratio >= 0.95
        report(
            5,
            ok,
            f"width violations {width_violations}, worst success {worst_ratio:.2f}, "
            f"{skipped} pairs capped",
        )
        self.assertTrue(ok)

    def test_criterion_06_bound_dominates_success_rank(self):
        # The squared width w^2 of the difference body predicts the phase
        # transition, which is the 50% point (the statistical-dimension
        # result of Amelunxen, Lotz, McCoy and Tropp; criterion 1 uses the
        # same level on cones). The guarantee at success 1 - eta is Gordon's
        # escape dimension (w + sqrt(2 ln 1/eta))^2 + 1. So the mean squared
        # ellipsoid bound per gap must (1) fall strictly as the gap grows,
        # (2) reach the measured 50% rank, and (3) give an escape dimension
        # at eta = 0.05 that reaches the measured 95% rank. The per-pair
        # bounds barely spread (across seeds 1, 7, 11, 99 and 2024 the mean
        # moves by at most 0.2%), so the mean stands for each pair. Every
        # gap is checked, also where the curve exceeds n. A rank never reached
        # counts as n + 1. Measured at seed 2024 (curve, 50% rank, 95% rank,
        # escape dimension): gap 100 53.70, 16.00, 22.25, 97; gap 200 14.93,
        # 7.71, 12.25, 41; gap 300 7.34, 5.10, 9.58, 28; gap 400 4.54, 3.17,
        # 8.17, 22. The curve tracks the 50% transition and is not a 95%
        # envelope at the two largest gaps; the report line shows where.
        n = 40
        zetas = (100.0, 200.0, 300.0, 400.0)
        grid = run_ellipsoid_phase(
            n,
            zetas,
            tuple(range(1, n + 1)),
            trials=50,
            seed=2024,
            variant="hyperplane",
        )
        curves = grid.meta["mean_sq_bound"]

        def ranks(level):
            return [
                n + 1.0 if math.isnan(est.m_cross) else est.m_cross
                for est in estimate_transition(grid, level=level)
            ]

        ranks50, ranks95 = ranks(0.5), ranks(0.95)
        decreasing = all(
            a is not None and b is not None and a > b
            for a, b in zip(curves, curves[1:])
        )
        failures = []
        cells = []
        for zeta, curve, rank50, rank95 in zip(zetas, curves, ranks50, ranks95):
            if curve is None:
                failures.append(f"gap {zeta:.0f}: no valid bound")
                continue
            escape = required_dim_gordon(math.sqrt(curve), eta=0.05)
            cells.append(
                f"gap {zeta:.0f}: curve {curve:.2f}, 50% rank {rank50:.2f}, "
                f"95% rank {rank95:.2f}, escape {escape}, 95% rank above curve "
                + ("yes" if rank95 > curve else "no")
            )
            if curve < rank50:
                failures.append(
                    f"gap {zeta:.0f}: curve {curve:.2f} < 50% rank {rank50:.2f}"
                )
            if rank95 > escape:
                failures.append(
                    f"gap {zeta:.0f}: 95% rank {rank95:.2f} > escape {escape}"
                )
        ok = decreasing and not failures
        cells.append("curve decreasing " + ("yes" if decreasing else "no"))
        cells.append(f"{int(grid.indeterminate.sum())} Indeterminate")
        detail = "; ".join(cells)
        if failures:
            detail += "; failed: " + "; ".join(failures)
        report(6, ok, detail)
        self.assertTrue(ok)

    def test_criterion_07_inertia_analysis(self):
        problems = []
        for n, center_norm, radius, seed in (
            (2, 1.5, 1.0, 71),
            (3, 1.0, 0.7, 72),
            (5, 2.0, 1.2, 73),
        ):
            center = np.zeros(n)
            center[0] = center_norm
            analytic = ball_inertia_analytic(center, radius, n)
            eigs = mc_ball_moment_eigs(center, radius, n, 1_000_000, seed)
            axis_rel = abs(eigs[-1] - analytic.lambda_axis) / analytic.lambda_axis
            perp_rel = np.abs(eigs[:-1] - analytic.lambda_perp) / analytic.lambda_perp
            if axis_rel > 0.02 or perp_rel.max() > 0.02:
                problems.append(f"moment mismatch at n={n}")

        direction = np.zeros(10)
        direction[3] = 1.0
        two = toy_two_balls(10, 4.0 * direction, 1.0, samples=10_000, seed=74)
        top = principal_subspace(inertia(two.features), 1).basis[:, 0]
        cosine = abs(float(top @ direction))
        if cosine <= 0.99:
            problems.append(f"alignment {cosine:.4f}")

        cross = toy_cross_polytope_balls(10, 0.2, samples=100_000, seed=75)
        eigs = np.linalg.eigvalsh(inertia(cross.features).sigma)
        ratio = eigs.max() / eigs.min()
        if ratio >= 1.1:
            problems.append(f"spectrum ratio {ratio:.3f}")

        ok = not problems
        report(
            7,
            ok,
            "; ".join(problems) if problems else f"alignment {cosine:.4f}, "
            f"spectrum ratio {ratio:.3f}",
        )
        self.assertTrue(ok)

    def test_criterion_08_planner_closed_form(self):
        rng = np.random.default_rng(808)
        centers = 10.0 * rng.standard_normal((10, 3))
        points = [
            Ellipsoid(c, np.zeros((3, 3))) for c in centers
        ]
        plan = plan_multiclass(points, p=0.1)
        closed_form = math.ceil(8.0 * math.log(450.0) + 1.0)
        ms = [plan_multiclass(points, p).m for p in (0.01, 0.05, 0.1, 0.3)]
        monotone = all(a >= b for a, b in zip(ms, ms[1:]))
        ok = plan.feasible and closed_form == 50 and plan.m <= closed_form and monotone
        report(
            8,
            ok,
            f"planner M={plan.m} <= {closed_form}, M over growing budgets {ms}",
        )
        self.assertTrue(ok)

    def test_criterion_09_classification_pipeline(self):
        n, per_class, classes = 200, 200, 5
        rng = np.random.default_rng(909)
        bodies = []
        blocks = []
        for k in range(classes):
            center = np.zeros(n)
            center[k] = 30.0
            a = rng.standard_normal((n, n)) / math.sqrt(n)
            shape = a @ a.T
            bodies.append(Ellipsoid(center, shape))
            x = rng.standard_normal((per_class, n))
            x *= (rng.random(per_class) ** (1.0 / n) / np.linalg.norm(x, axis=1))[
                :, None
            ]
            blocks.append(center + x @ shape.T)
        plan = plan_multiclass(bodies, p=0.1)
        self.assertTrue(plan.feasible)
        data = Dataset(
            np.vstack(blocks), np.repeat(np.arange(classes), per_class)
        )
        # with tol=0 each run stops at max_iters or at its loss's rounding
        # floor, so the step counts differ (about 1000 at M=200, 100 at M=20);
        # the claim is on the cost of one step, which grows with M
        reports = run_pipeline(
            data,
            0.5,
            ["identity", f"rp:{plan.m}", "rp:200", "rp:20"],
            seed=910,
            max_iters=2000,
            tol=0.0,
        )
        identity, planned, wide, narrow = reports
        ok = (
            identity.error <= 0.05
            and abs(planned.error - identity.error) <= 0.05
            and wide.train_seconds / wide.steps > narrow.train_seconds / narrow.steps
        )
        report(
            9,
            ok,
            f"identity error {identity.error:.3f}, rp:{plan.m} error "
            f"{planned.error:.3f}, train ms per step "
            f"{1e3 * wide.train_seconds / wide.steps:.3f} (M=200, {wide.steps} steps) > "
            f"{1e3 * narrow.train_seconds / narrow.steps:.3f} (M=20, {narrow.steps} steps)",
        )
        self.assertTrue(ok)


if __name__ == "__main__":
    unittest.main()
