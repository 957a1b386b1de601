import unittest

import numpy as np
from scipy.stats import norm

from projsep.bodies import Ball, CircularCone, make_ellipsoid
from projsep.widths import (
    circular_width_sq,
    lambda_m,
    mc_expected_map_norm,
    mc_width_circular,
    mc_width_pseudoprojection,
    width_bound_ellipsoids,
)
from projsep.widths import _positive_part_expectation_vec


def positive_part_expectation(a):
    # E (a - g)_+, as mc_width_pseudoprojection evaluates it, at one point
    return float(_positive_part_expectation_vec(np.asarray(a, dtype=float)))


def mc_gaussian_norm_mean(m, trials, seed):
    rng = np.random.default_rng(seed)
    return np.linalg.norm(rng.standard_normal((trials, m)), axis=1).mean()


def unit_ball_pair(n, zeta):
    half = zeta / 2.0
    c1 = np.zeros(n)
    c2 = np.zeros(n)
    c1[0], c2[0] = -half, half
    return Ball(c1, 1.0).to_ellipsoid(), Ball(c2, 1.0).to_ellipsoid()


class TestLambdaM(unittest.TestCase):
    def test_known_values(self):
        self.assertAlmostEqual(lambda_m(1), np.sqrt(2.0 / np.pi), places=12)
        self.assertAlmostEqual(lambda_m(2), np.sqrt(np.pi / 2.0), places=12)
        self.assertAlmostEqual(lambda_m(3), 2.0 * np.sqrt(2.0 / np.pi), places=12)

    def test_monte_carlo_m1(self):
        est = mc_gaussian_norm_mean(1, 1_000_000, 7)
        self.assertAlmostEqual(est, lambda_m(1), delta=3e-3)

    def test_bracketing_and_monotone(self):
        prev = 0.0
        for m in (1, 2, 3, 5, 10, 100, 10_000):
            lam = lambda_m(m)
            self.assertGreater(lam, np.sqrt(m - 1.0))
            self.assertLess(lam, np.sqrt(float(m)))
            self.assertGreater(lam, prev)
            prev = lam

    def test_large_m_stable(self):
        # direct Gamma ratio overflows long before this
        self.assertAlmostEqual(lambda_m(1e6) / np.sqrt(1e6), 1.0, places=6)

    def test_invalid(self):
        with self.assertRaises(ValueError):
            lambda_m(0.5)


class TestCircularWidthSq(unittest.TestCase):
    def test_quarter_pi(self):
        bound = circular_width_sq(100, np.pi / 4)
        self.assertAlmostEqual(bound.value, 50.0, places=12)
        self.assertTrue(bound.valid)

    def test_degenerate_angles(self):
        self.assertAlmostEqual(circular_width_sq(100, 0.0).value, 1.0, places=12)
        self.assertAlmostEqual(
            circular_width_sq(100, np.pi / 2).value, 99.0, places=12
        )

    def test_angle_range(self):
        with self.assertRaises(ValueError):
            circular_width_sq(100, -0.1)
        with self.assertRaises(ValueError):
            circular_width_sq(100, np.pi / 2 + 0.1)


class TestWidthBoundEllipsoids(unittest.TestCase):
    def test_unit_balls(self):
        e1, e2 = unit_ball_pair(100, 4.0)
        bound = width_bound_ellipsoids(e1, e2)
        self.assertTrue(bound.valid)
        self.assertAlmostEqual(bound.value, 10.398942280401434, places=9)

    def test_point_bodies(self):
        e1 = make_ellipsoid([0.0, 0.0], np.zeros((2, 2)))
        e2 = make_ellipsoid([3.0, 0.0], np.zeros((2, 2)))
        bound = width_bound_ellipsoids(e1, e2)
        self.assertAlmostEqual(bound.value, 1.0 / np.sqrt(2.0 * np.pi), places=12)

    def test_close_centers_invalid(self):
        e1, e2 = unit_ball_pair(10, 2.0)
        bound = width_bound_ellipsoids(e1, e2)
        self.assertFalse(bound.valid)
        self.assertEqual(bound.value, np.inf)
        self.assertIn("center gap", bound.reason)

    def test_coincident_centers_rejected(self):
        e = Ball(np.zeros(3), 1.0).to_ellipsoid()
        with self.assertRaises(ValueError):
            width_bound_ellipsoids(e, e)

    def test_decreasing_in_separation(self):
        values = [
            width_bound_ellipsoids(*unit_ball_pair(50, zeta)).value
            for zeta in (4.0, 8.0, 16.0, 32.0)
        ]
        self.assertTrue(all(a > b for a, b in zip(values, values[1:])))

    def test_rotation_invariance(self):
        rng = np.random.default_rng(21)

        def psd(scale):
            a = scale * rng.standard_normal((4, 4))
            return a @ a.T

        e1 = make_ellipsoid(rng.standard_normal(4), psd(0.4))
        e2 = make_ellipsoid(rng.standard_normal(4) + 8.0, psd(0.4))
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        r1 = make_ellipsoid(q @ e1.center, q @ e1.shape @ q.T)
        r2 = make_ellipsoid(q @ e2.center, q @ e2.shape @ q.T)
        self.assertAlmostEqual(
            width_bound_ellipsoids(e1, e2).value,
            width_bound_ellipsoids(r1, r2).value,
            places=9,
        )


def scale_pairs(s):
    """Equal shapes diag(s, 1, 1) centred at s e_0 and 0, and unit balls scaled by s, 3s apart."""
    shape = np.diag([s, 1.0, 1.0])
    return {
        "overlapping": (make_ellipsoid([s, 0.0, 0.0], shape), make_ellipsoid(np.zeros(3), shape)),
        "apart": (make_ellipsoid(np.zeros(3), s * np.eye(3)),
                  make_ellipsoid([3.0 * s, 0.0, 0.0], s * np.eye(3))),
    }


class TestExtremeScales(unittest.TestCase):
    """Scales at which the pairs' squared sizes overflow or underflow a double."""

    @staticmethod
    def bounds(e1, e2):
        return width_bound_ellipsoids(e1, e2), mc_width_pseudoprojection(e1, e2, 50, seed=3)

    def test_bounds_keep_at_every_scale(self):
        reference = {name: self.bounds(*pair) for name, pair in scale_pairs(1.0).items()}
        for s in (1e-200, 1e-160, 1e160, 1e200):
            for name, pair in scale_pairs(s).items():
                for got, want in zip(self.bounds(*pair), reference[name]):
                    with self.subTest(name, scale=s, kind=want.kind):
                        self.assertEqual(got.valid, want.valid)
                        if want.valid:
                            self.assertAlmostEqual(got.value, want.value, places=12)
                        else:
                            self.assertEqual(
                                got.reason, f"center gap {s} does not exceed axis pull {2 * s}"
                            )


class TestPositivePartExpectation(unittest.TestCase):
    def test_zero(self):
        self.assertAlmostEqual(
            positive_part_expectation(0.0), 1.0 / np.sqrt(2.0 * np.pi), places=12
        )

    def test_one(self):
        self.assertAlmostEqual(
            positive_part_expectation(1.0), 1.0833154705876864, places=12
        )

    def test_closed_form_identity(self):
        # E max(0, a + g) = a Phi(a) + phi(a)
        for a in (-2.0, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0):
            expected = a * norm.cdf(a) + norm.pdf(a)
            self.assertAlmostEqual(
                positive_part_expectation(a), expected, places=12
            )

    def test_envelope(self):
        for a in (0.0, 0.5, 1.0, 2.0, 5.0):
            value = positive_part_expectation(a)
            self.assertGreaterEqual(value, a)
            self.assertLessEqual(value, a + 1.0 / np.sqrt(2.0 * np.pi))

    def test_monte_carlo(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal(1_000_000)
        est = np.maximum(0.0, 1.0 + g).mean()
        self.assertAlmostEqual(est, positive_part_expectation(1.0), delta=3e-3)


class TestMcWidthPseudoprojection(unittest.TestCase):
    def test_point_bodies_exact(self):
        e1 = make_ellipsoid([0.0, 0.0], np.zeros((2, 2)))
        e2 = make_ellipsoid([3.0, 0.0], np.zeros((2, 2)))
        est = mc_width_pseudoprojection(e1, e2, trials=50, seed=0)
        self.assertAlmostEqual(est.value, 1.0 / np.sqrt(2.0 * np.pi), places=12)
        self.assertEqual(est.std_error, 0.0)

    def test_deterministic(self):
        e1, e2 = unit_ball_pair(10, 4.0)
        a = mc_width_pseudoprojection(e1, e2, trials=200, seed=5)
        b = mc_width_pseudoprojection(e1, e2, trials=200, seed=5)
        self.assertEqual(a.value, b.value)

    def test_below_analytic_bound(self):
        e1, e2 = unit_ball_pair(50, 4.0)
        est = mc_width_pseudoprojection(e1, e2, trials=4000, seed=9)
        bound = width_bound_ellipsoids(e1, e2)
        self.assertLessEqual(est.value, bound.value + 3.0 * est.std_error)

    def test_invalid_pair(self):
        e1, e2 = unit_ball_pair(10, 2.0)
        est = mc_width_pseudoprojection(e1, e2, trials=100, seed=1)
        self.assertFalse(est.valid)
        self.assertEqual(est.value, np.inf)

    def test_needs_two_trials(self):
        e1, e2 = unit_ball_pair(5, 4.0)
        with self.assertRaises(ValueError):
            mc_width_pseudoprojection(e1, e2, trials=1, seed=0)


class TestMcWidthCircular(unittest.TestCase):
    def test_half_space_matches_sphere_width(self):
        # alpha = pi/2 makes the spherical cap a hemisphere; the squared
        # width of the full sphere patch is close to n - 1
        cone = CircularCone(np.eye(100)[0], np.pi / 2)
        est = mc_width_circular(cone, trials=10_000, seed=3)
        self.assertAlmostEqual(est.value**2, 99.0, delta=2.0)

    def test_brute_force_oracle(self):
        # sup over sampled cone members of <z, g> averaged over g
        rng = np.random.default_rng(6)
        n, alpha = 5, np.pi / 5
        axis = np.eye(n)[0]
        cone = CircularCone(axis, alpha)

        members = rng.standard_normal((200_000, n))
        members /= np.linalg.norm(members, axis=1, keepdims=True)
        members = members[members @ axis >= np.cos(alpha)]

        sup_est = np.zeros(2000)
        for i, g in enumerate(rng.standard_normal((2000, n))):
            sup_est[i] = max(0.0, (members @ g).max())
        oracle = sup_est.mean()
        se = sup_est.std(ddof=1) / np.sqrt(len(sup_est))

        est = mc_width_circular(cone, trials=20_000, seed=8)
        self.assertAlmostEqual(est.value, oracle, delta=4.0 * (se + est.std_error))

    def test_deterministic(self):
        cone = CircularCone(np.eye(4)[1], 0.7)
        a = mc_width_circular(cone, trials=500, seed=11)
        b = mc_width_circular(cone, trials=500, seed=11)
        self.assertEqual(a.value, b.value)


class TestMcExpectedMapNorm(unittest.TestCase):
    def test_identity_map(self):
        est = mc_expected_map_norm(np.eye(20), trials=20_000, seed=1)
        self.assertAlmostEqual(est.estimate, lambda_m(20), delta=4.0 * est.std_error)

    def test_zero_map(self):
        est = mc_expected_map_norm(np.zeros((3, 3)), trials=100, seed=0)
        self.assertEqual(est.estimate, 0.0)
        self.assertEqual(est.lower, 0.0)
        self.assertEqual(est.upper, 0.0)

    def test_rank_one_hits_lower_bound(self):
        # ||A g|| is then |g_1| times a constant, whose mean is the lower
        # envelope sqrt(2/pi) ||A||_F exactly
        a = np.zeros((4, 4))
        a[0, 0] = 2.0
        est = mc_expected_map_norm(a, trials=100_000, seed=2)
        self.assertAlmostEqual(est.lower, np.sqrt(2.0 / np.pi) * 2.0, places=12)
        self.assertAlmostEqual(est.estimate, est.lower, delta=4.0 * est.std_error)

    def test_random_envelope(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((6, 9))
        est = mc_expected_map_norm(a, trials=50_000, seed=3)
        fro = np.linalg.norm(a)
        self.assertAlmostEqual(est.lower, np.sqrt(2.0 / np.pi) * fro, places=12)
        self.assertAlmostEqual(est.upper, fro, places=12)
        self.assertGreaterEqual(est.estimate, est.lower - 4.0 * est.std_error)
        self.assertLessEqual(est.estimate, est.upper + 4.0 * est.std_error)


if __name__ == "__main__":
    unittest.main()
