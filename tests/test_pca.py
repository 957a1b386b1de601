import math
import unittest

import numpy as np

from projsep.pca import (
    InertiaModel,
    ball_inertia_analytic,
    inertia,
    principal_subspace,
    sample_ball,
    toy_cross_polytope_balls,
    toy_two_balls,
    unit_ball_volume,
)


def mc_ball_second_moment_eigs(center, radius, n, count, seed):
    # integral of x x^T over the ball = volume * E[x x^T], x uniform
    rng = np.random.default_rng(seed)
    points = sample_ball(center, radius, count, rng)
    moment = points.T @ points / count
    volume = unit_ball_volume(n) * radius**n
    return np.sort(np.linalg.eigvalsh(volume * moment))


class TestInertia(unittest.TestCase):
    def test_single_point(self):
        model = inertia([[3.0, -1.0]])
        np.testing.assert_array_equal(model.mean, [3.0, -1.0])
        np.testing.assert_array_equal(model.sigma, np.zeros((2, 2)))
        self.assertEqual(model.count, 1)

    def test_mirrored_pair(self):
        v = np.array([1.0, 2.0])
        model = inertia([v, -v])
        np.testing.assert_allclose(model.mean, [0.0, 0.0])
        np.testing.assert_allclose(model.sigma, np.outer(v, v))

    def test_uniform_disk_moment(self):
        # covariance of the uniform unit disk is I / 4
        rng = np.random.default_rng(1)
        points = sample_ball(np.zeros(2), 1.0, 100_000, rng)
        model = inertia(points)
        np.testing.assert_allclose(model.sigma, np.eye(2) / 4.0, atol=0.005)

    def test_sigma_exactly_symmetric(self):
        rng = np.random.default_rng(2)
        model = inertia(rng.standard_normal((50, 4)))
        np.testing.assert_array_equal(model.sigma, model.sigma.T)

    def test_invalid_input(self):
        with self.assertRaises(ValueError):
            inertia(np.zeros((0, 3)))
        with self.assertRaises(ValueError):
            inertia([1.0, 2.0, 3.0])
        with self.assertRaises(ValueError):
            inertia([[1.0, np.nan]])


class TestPrincipalSubspace(unittest.TestCase):
    def model(self, sigma):
        sigma = np.asarray(sigma, dtype=float)
        return InertiaModel(mean=np.zeros(sigma.shape[0]), sigma=sigma, count=10)

    def test_diagonal_spectrum(self):
        sub = principal_subspace(self.model(np.diag([3.0, 2.0, 1.0])), 2)
        np.testing.assert_allclose(sub.eigenvalues, [3.0, 2.0])
        np.testing.assert_allclose(np.abs(sub.basis), np.eye(3)[:, :2], atol=1e-12)
        self.assertGreater(sub.basis[0, 0], 0.0)
        self.assertGreater(sub.basis[1, 1], 0.0)

    def test_tied_spectrum_deterministic(self):
        a = principal_subspace(self.model(np.eye(4)), 2)
        b = principal_subspace(self.model(np.eye(4)), 2)
        np.testing.assert_array_equal(a.basis, b.basis)

    def test_orthonormal_and_invariant(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        sigma = a @ a.T
        sub = principal_subspace(self.model(sigma), 4)
        np.testing.assert_allclose(sub.basis.T @ sub.basis, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(
            sigma @ sub.basis, sub.basis @ np.diag(sub.eigenvalues), atol=1e-8
        )
        self.assertTrue(np.all(np.diff(sub.eigenvalues) <= 1e-12))

    def test_dimension_range(self):
        with self.assertRaises(ValueError):
            principal_subspace(self.model(np.eye(3)), 0)
        with self.assertRaises(ValueError):
            principal_subspace(self.model(np.eye(3)), 4)


class TestBallInertiaAnalytic(unittest.TestCase):
    def test_unit_ball_volume_values(self):
        self.assertAlmostEqual(unit_ball_volume(1), 2.0, places=12)
        self.assertAlmostEqual(unit_ball_volume(2), math.pi, places=12)
        self.assertAlmostEqual(unit_ball_volume(3), 4.0 * math.pi / 3.0, places=12)

    def test_disk_at_two(self):
        result = ball_inertia_analytic([2.0, 0.0], 1.0, 2)
        self.assertAlmostEqual(result.constant, math.pi / 4.0, places=12)
        self.assertAlmostEqual(result.lambda_perp, math.pi / 4.0, places=12)
        self.assertAlmostEqual(
            result.lambda_axis, 4.0 * math.pi + math.pi / 4.0, places=12
        )

    def test_scalar_center_matches_vector(self):
        vec = ball_inertia_analytic([0.0, 3.0, 4.0], 0.5, 3)
        scal = ball_inertia_analytic(5.0, 0.5, 3)
        self.assertAlmostEqual(vec.lambda_axis, scal.lambda_axis, places=12)
        self.assertAlmostEqual(vec.lambda_perp, scal.lambda_perp, places=12)

    def test_centered_ball_isotropic(self):
        result = ball_inertia_analytic(0.0, 2.0, 4)
        self.assertEqual(result.lambda_axis, result.lambda_perp)

    def test_radius_scaling(self):
        small = ball_inertia_analytic(0.0, 1.0, 3)
        large = ball_inertia_analytic(0.0, 2.0, 3)
        self.assertAlmostEqual(large.lambda_perp / small.lambda_perp, 2.0**5, places=9)

    def test_monte_carlo_agreement(self):
        center = np.array([1.0, 0.0, 0.0])
        analytic = ball_inertia_analytic(center, 0.7, 3)
        eigs = mc_ball_second_moment_eigs(center, 0.7, 3, 1_000_000, seed=4)
        self.assertAlmostEqual(
            eigs[-1], analytic.lambda_axis, delta=0.02 * analytic.lambda_axis
        )
        np.testing.assert_allclose(
            eigs[:-1], analytic.lambda_perp, rtol=0.02
        )

    def test_invalid(self):
        with self.assertRaises(ValueError):
            ball_inertia_analytic(0.0, 0.0, 3)
        with self.assertRaises(ValueError):
            ball_inertia_analytic([1.0, 0.0], 1.0, 3)
        for radius in (math.nan, math.inf):
            with self.subTest(radius=radius):
                with self.assertRaisesRegex(ValueError, "^radius out of range: expected finite and > 0"):
                    ball_inertia_analytic(0.0, radius, 3)


class TestSampleBall(unittest.TestCase):
    def test_membership_and_radial_law(self):
        rng = np.random.default_rng(5)
        center = np.array([2.0, -1.0, 0.5])
        points = sample_ball(center, 1.5, 50_000, rng)
        radii = np.linalg.norm(points - center, axis=1)
        self.assertLessEqual(radii.max(), 1.5 + 1e-12)
        # E ||x - c|| = r n/(n+1) for the uniform ball
        self.assertAlmostEqual(radii.mean(), 1.5 * 3.0 / 4.0, delta=0.01)


class TestToyTwoBalls(unittest.TestCase):
    def test_shapes_and_membership(self):
        center = np.array([2.0, 0.0, 0.0, 0.0])
        data = toy_two_balls(4, center, 0.5, samples=200, seed=6)
        self.assertEqual(data.features.shape, (400, 4))
        np.testing.assert_array_equal(np.unique(data.labels), [-1, 1])
        pos = data.features[data.labels == 1]
        neg = data.features[data.labels == -1]
        self.assertLessEqual(
            np.linalg.norm(pos - center, axis=1).max(), 0.5 + 1e-12
        )
        self.assertLessEqual(
            np.linalg.norm(neg + center, axis=1).max(), 0.5 + 1e-12
        )

    def test_deterministic(self):
        center = np.array([1.0, 1.0])
        a = toy_two_balls(2, center, 0.3, samples=50, seed=7)
        b = toy_two_balls(2, center, 0.3, samples=50, seed=7)
        np.testing.assert_array_equal(a.features, b.features)

    def test_top_direction_aligns_with_centers(self):
        rng = np.random.default_rng(8)
        direction = rng.standard_normal(6)
        direction /= np.linalg.norm(direction)
        center = 4.0 * 1.0 * direction
        data = toy_two_balls(6, center, 1.0, samples=10_000, seed=9)
        sub = principal_subspace(inertia(data.features), 1)
        cosine = abs(float(sub.basis[:, 0] @ direction))
        self.assertGreater(cosine, 0.99)

    def test_one_dimensional_projection_separates(self):
        center = np.array([0.0, 0.0, 3.0])
        data = toy_two_balls(3, center, 0.5, samples=2_000, seed=10)
        sub = principal_subspace(inertia(data.features), 1)
        scores = data.features @ sub.basis[:, 0]
        pos = scores[data.labels == 1]
        neg = scores[data.labels == -1]
        self.assertTrue(pos.min() > neg.max() or neg.min() > pos.max())

    def test_overlap_rejected(self):
        with self.assertRaises(ValueError):
            toy_two_balls(2, np.array([0.5, 0.0]), 1.0, samples=10, seed=0)


class TestToyCrossPolytopeBalls(unittest.TestCase):
    def test_labels_and_membership(self):
        data = toy_cross_polytope_balls(3, 0.2, samples=100, seed=11)
        self.assertEqual(data.features.shape, (600, 3))
        np.testing.assert_array_equal(np.unique(data.labels), np.arange(6))
        for axis_index in range(3):
            for sign_index, sign in enumerate((1.0, -1.0)):
                label = 2 * axis_index + sign_index
                block = data.features[data.labels == label]
                center = np.zeros(3)
                center[axis_index] = sign
                self.assertLessEqual(
                    np.linalg.norm(block - center, axis=1).max(), 0.2 + 1e-12
                )

    def test_class_mean_geometry(self):
        data = toy_cross_polytope_balls(4, 0.1, samples=2_000, seed=12)
        means = np.array(
            [data.features[data.labels == k].mean(axis=0) for k in range(8)]
        )
        # mirrored classes sit ~2 apart, different axes ~sqrt(2)
        self.assertAlmostEqual(np.linalg.norm(means[0] - means[1]), 2.0, delta=0.02)
        self.assertAlmostEqual(
            np.linalg.norm(means[0] - means[2]), math.sqrt(2.0), delta=0.02
        )

    def test_spectrum_nearly_isotropic(self):
        # no single direction dominates, so a PCA cut cannot split classes
        data = toy_cross_polytope_balls(10, 0.2, samples=10_000, seed=13)
        eigs = np.linalg.eigvalsh(inertia(data.features).sigma)
        self.assertLess(eigs.max() / eigs.min(), 1.1)

    def test_radius_range(self):
        with self.assertRaises(ValueError):
            toy_cross_polytope_balls(3, 0.8, samples=10, seed=0)
        with self.assertRaises(ValueError):
            toy_cross_polytope_balls(3, 0.0, samples=10, seed=0)
        # the two-ball toy refuses a non-finite radius or center, naming it
        cases = [
            ([2.0, 0.0, 0.0], math.nan, "^radius out of range: expected finite and > 0, got nan$"),
            ([2.0, 0.0, 0.0], math.inf, "^radius out of range: expected finite and > 0, got inf$"),
            ([math.nan, 0.0, 0.0], 0.5, "^non-finite entries: center holds inf or nan$"),
            ([math.inf, 0.0, 0.0], 0.5, "^non-finite entries: center holds inf or nan$"),
        ]
        for center, radius, message in cases:
            with self.subTest(center=center, radius=radius):
                with self.assertRaisesRegex(ValueError, message):
                    toy_two_balls(3, np.array(center), radius, samples=5, seed=1)


if __name__ == "__main__":
    unittest.main()
