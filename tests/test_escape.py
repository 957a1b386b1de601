import math
import unittest

import numpy as np

from projsep.bodies import Ball, Ellipsoid
from projsep.escape import (
    plan_multiclass,
    required_dim_gordon,
    required_dim_two_balls,
)
from projsep.widths import circular_width_sq


def expected_gaussian_norm(m):
    # E ||g|| for g standard normal in m dimensions: sqrt(2) Gamma((m+1)/2) / Gamma(m/2)
    return math.sqrt(2.0) * math.exp(math.lgamma((m + 1) / 2.0) - math.lgamma(m / 2.0))


class TestRequiredDimGordon(unittest.TestCase):
    def test_ball_pair_example(self):
        self.assertEqual(required_dim_gordon(10.398942280401434, 0.01), 182)

    def test_zero_width_near_certainty(self):
        self.assertEqual(required_dim_gordon(0.0, math.exp(-0.5)), 3)

    def test_monotone_in_width(self):
        ms = [required_dim_gordon(w, 0.01) for w in (0.0, 1.0, 5.0, 10.0, 20.0)]
        self.assertTrue(all(a <= b for a, b in zip(ms, ms[1:])))

    def test_monotone_in_eta(self):
        ms = [required_dim_gordon(5.0, eta) for eta in (0.5, 0.1, 0.01, 0.001)]
        self.assertTrue(all(a <= b for a, b in zip(ms, ms[1:])))

    def test_probability_consistency(self):
        # the returned M achieves failure probability <= eta by Gordon's
        # escape bound 1 - exp(-(lambda_M - w)^2 / 2), lambda_M = E ||g_M||
        for w in (0.0, 1.0, 5.0, 10.0):
            for eta in (0.1, 0.01):
                m = required_dim_gordon(w, eta)
                lam = expected_gaussian_norm(m)
                self.assertGreater(lam, w)
                escape = 1.0 - math.exp(-0.5 * (lam - w) ** 2)
                self.assertGreaterEqual(escape, 1.0 - eta - 1e-12)

    def test_eta_range(self):
        with self.assertRaises(ValueError):
            required_dim_gordon(1.0, 0.0)
        with self.assertRaises(ValueError):
            required_dim_gordon(1.0, 1.0)


class TestRequiredDimTwoBalls(unittest.TestCase):
    def test_unit_balls(self):
        b1 = Ball(np.zeros(100), 1.0)
        c2 = np.zeros(100)
        c2[0] = 4.0
        self.assertEqual(required_dim_two_balls(100, b1, Ball(c2, 1.0), 0.01), 67)

    def test_matches_cone_chain(self):
        # the helper is the composition of difference_cone, the squared
        # width curve, and the Gordon dimension rule
        n, zeta = 400, 4.0
        b1 = Ball(np.zeros(n), 1.0)
        c2 = np.zeros(n)
        c2[0] = zeta
        b2 = Ball(c2, 1.0)
        alpha = math.asin(2.0 / zeta)
        w = math.sqrt(circular_width_sq(n, alpha).value)
        self.assertEqual(
            required_dim_two_balls(n, b1, b2, 0.01), required_dim_gordon(w, 0.01)
        )

    def test_doubling_separation_quarters_width(self):
        # N sin^2(alpha) dominates at large N and sin(alpha) = 2 / zeta
        n = 10_000
        b1 = Ball(np.zeros(n), 1.0)

        def curve(zeta):
            c2 = np.zeros(n)
            c2[0] = zeta
            alpha = math.asin(2.0 / zeta)
            return circular_width_sq(n, alpha).value

        ratio = curve(8.0) / curve(16.0)
        self.assertGreater(ratio, 3.8)
        self.assertLess(ratio, 4.2)

    def test_dimension_mismatch(self):
        with self.assertRaises(ValueError):
            required_dim_two_balls(5, Ball(np.zeros(4), 1.0), Ball(np.ones(4), 0.1), 0.1)

    def test_touching_balls_rejected(self):
        b1 = Ball(np.zeros(3), 1.0)
        b2 = Ball(np.array([2.0, 0.0, 0.0]), 1.0)
        with self.assertRaises(ValueError):
            required_dim_two_balls(3, b1, b2, 0.1)


class TestPlanMulticlass(unittest.TestCase):
    def point(self, coords):
        coords = np.asarray(coords, dtype=float)
        return Ellipsoid(coords, np.zeros((coords.size, coords.size)))

    def test_two_classes_single_pair(self):
        e1 = self.point([0.0, 0.0])
        e2 = self.point([5.0, 0.0])
        plan = plan_multiclass([e1, e2], p=0.1)
        self.assertEqual(len(plan.pairs), 1)
        self.assertTrue(plan.feasible)
        self.assertAlmostEqual(plan.pairs[0].eta, 0.1, places=12)
        self.assertEqual(plan.m, plan.pairs[0].m_required)

    def test_ten_point_classes(self):
        # 45 pairs, each width 1/sqrt(2 pi), eta = 0.1 / 45
        rng = np.random.default_rng(0)
        centers = 10.0 * rng.standard_normal((10, 3))
        plan = plan_multiclass([self.point(c) for c in centers], p=0.1)
        self.assertEqual(len(plan.pairs), 45)
        self.assertTrue(plan.feasible)
        expected = required_dim_gordon(1.0 / math.sqrt(2.0 * math.pi), 0.1 / 45.0)
        self.assertEqual(plan.m, expected)
        self.assertEqual(plan.m, 17)

    def test_budget_split_evenly(self):
        rng = np.random.default_rng(1)
        centers = 10.0 * rng.standard_normal((5, 4))
        plan = plan_multiclass([self.point(c) for c in centers], p=0.05)
        total = sum(pair.eta for pair in plan.pairs)
        self.assertAlmostEqual(total, 0.05, places=12)

    def test_m_is_max_over_pairs(self):
        rng = np.random.default_rng(2)
        centers = rng.standard_normal((4, 3))
        centers[0] *= 30.0
        bodies = [Ball(c, 0.01).to_ellipsoid() for c in centers]
        plan = plan_multiclass(bodies, p=0.1)
        if plan.feasible:
            self.assertEqual(plan.m, max(p.m_required for p in plan.pairs))

    def test_overlapping_pair_infeasible(self):
        e1 = Ball(np.zeros(3), 1.0).to_ellipsoid()
        e2 = Ball(np.array([1.5, 0.0, 0.0]), 1.0).to_ellipsoid()
        e3 = self.point([40.0, 0.0, 0.0])
        plan = plan_multiclass([e1, e2, e3], p=0.1)
        self.assertFalse(plan.feasible)
        bad = [p for p in plan.pairs if p.m_required is None]
        self.assertEqual(len(bad), 1)
        self.assertEqual((bad[0].first, bad[0].second), (0, 1))
        self.assertFalse(bad[0].bound.valid)

    def test_dimension_beyond_the_doubles_marks_the_pair_infeasible(self):
        # a body 1e300 wide across the axis to a point 2 beyond it: a bound
        # of about 5e299 is valid, but no double holds its dimension
        wide = Ellipsoid(np.array([0.0, 0.0]), np.diag([1.0, 1e300]))
        plan = plan_multiclass([wide, self.point([3.0, 0.0]), self.point([3.0, 10.0])], p=0.1)
        pair = plan.pairs[0]
        self.assertTrue(pair.bound.valid)
        self.assertIsNone(pair.m_required)
        self.assertIn("beyond the doubles", pair.bound.reason)
        self.assertFalse(plan.feasible)
        self.assertIsNone(plan.m)
        self.assertIn("e+", plan.render_table())

    def test_monotone_in_p(self):
        rng = np.random.default_rng(3)
        centers = 8.0 * rng.standard_normal((6, 5))
        bodies = [self.point(c) for c in centers]
        ms = [plan_multiclass(bodies, p).m for p in (0.01, 0.05, 0.1, 0.3)]
        self.assertTrue(all(a >= b for a, b in zip(ms, ms[1:])))

    def test_render_table(self):
        e1 = self.point([0.0, 0.0])
        e2 = self.point([5.0, 0.0])
        text = plan_multiclass([e1, e2], p=0.1).render_table()
        self.assertIn("pair", text)
        self.assertIn("M = ", text)

    def test_p_range(self):
        e1 = self.point([0.0, 0.0])
        e2 = self.point([5.0, 0.0])
        with self.assertRaises(ValueError):
            plan_multiclass([e1, e2], p=0.0)
        with self.assertRaises(ValueError):
            plan_multiclass([e1, e2], p=1.0)

    def test_needs_two_classes(self):
        with self.assertRaises(ValueError):
            plan_multiclass([self.point([0.0, 0.0])], p=0.1)


if __name__ == "__main__":
    unittest.main()
