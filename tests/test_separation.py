import unittest

import numpy as np

from projsep.bodies import (
    Ball,
    CircularCone,
    GaussianProjection,
    contains,
    make_ellipsoid,
    support,
)
from projsep.separation import (
    DISJOINT,
    INDETERMINATE,
    INTERSECTING,
    decide_disjoint,
    dual_cone_margin,
    min_norm_point,
    nullspace_avoids_cone,
)


def random_psd_ellipsoid(rng, n, center_scale=1.0, shape_scale=1.0):
    a = shape_scale * rng.standard_normal((n, n))
    return make_ellipsoid(center_scale * rng.standard_normal(n), a @ a.T / n)


def preimage_norms(body, points):
    # ||x|| for shape @ x = p - center, one per point; full-rank shapes only
    solved = np.linalg.solve(body.shape, (points - body.center).T)
    return np.linalg.norm(solved, axis=0)


def brute_force_expected(e1, e2, grid=2000):
    """Dense boundary sampling in 2-D; None when the grid cannot resolve.

    Intersecting needs a boundary point solidly inside the other body (or a
    swallowed center); disjoint needs clear daylight between the boundary
    clouds.  Tangency-grade pairs fall in neither bucket.
    """
    theta = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    pts1 = e1.center + circle @ e1.shape.T
    pts2 = e2.center + circle @ e2.shape.T
    solidly_inside = (
        preimage_norms(e2, pts1).min() <= 0.99
        or preimage_norms(e1, pts2).min() <= 0.99
        or contains(e2, e1.center)
        or contains(e1, e2.center)
    )
    if solidly_inside:
        return INTERSECTING
    gaps = np.linalg.norm(pts1[:, None, :] - pts2[None, :, :], axis=2)
    if gaps.min() > 0.05:
        return DISJOINT
    return None


class TestMinNormPoint(unittest.TestCase):
    def test_collinear_unit_balls(self):
        b1 = Ball(np.zeros(3), 1.0).to_ellipsoid()
        c2 = np.array([3.0, 0.0, 0.0])
        b2 = Ball(c2, 1.0).to_ellipsoid()
        result = min_norm_point(b1, b2, tol=1e-10)
        self.assertAlmostEqual(result.norm, 1.0, places=6)
        np.testing.assert_allclose(result.point, [-1.0, 0.0, 0.0], atol=1e-4)

    def test_identical_bodies_touch(self):
        body = Ball(np.array([1.0, 2.0]), 1.5).to_ellipsoid()
        result = min_norm_point(body, body, tol=1e-9)
        self.assertLessEqual(result.norm, 1e-4)

    def test_support_points_feasible(self):
        rng = np.random.default_rng(33)
        e1 = random_psd_ellipsoid(rng, 4)
        e2 = random_psd_ellipsoid(rng, 4, center_scale=6.0)
        result = min_norm_point(e1, e2, tol=1e-9)
        self.assertTrue(contains(e1, e1.center + e1.shape @ result.x, tol=1e-7))
        self.assertTrue(contains(e2, e2.center + e2.shape @ result.y, tol=1e-7))
        gap_point = (e1.center + e1.shape @ result.x) - (
            e2.center + e2.shape @ result.y
        )
        np.testing.assert_allclose(result.point, gap_point, atol=1e-10)

    def test_norm_never_worse_with_more_iterations(self):
        rng = np.random.default_rng(44)
        e1 = random_psd_ellipsoid(rng, 5)
        e2 = random_psd_ellipsoid(rng, 5, center_scale=4.0)
        norms = [
            min_norm_point(e1, e2, tol=0.0, max_iter=k).norm for k in (5, 20, 80, 320)
        ]
        self.assertTrue(all(a >= b - 1e-12 for a, b in zip(norms, norms[1:])))

    def test_dual_gap_bounds_suboptimality(self):
        # ||z||^2 - ||z*||^2 <= gap along the whole run, so the final gap
        # certifies near-optimality of the final norm
        b1 = Ball(np.zeros(2), 1.0).to_ellipsoid()
        b2 = Ball(np.array([5.0, 0.0]), 1.0).to_ellipsoid()
        result = min_norm_point(b1, b2, tol=1e-12)
        self.assertLessEqual(result.norm**2 - 3.0**2, result.dual_gap + 1e-9)

    def test_traces_the_iterates_decide_disjoint_checks(self):
        # a verdict at iteration k reads the iterate after k - 1 steps, which
        # min_norm_point returns once it runs out of k - 1 iterations
        rng = np.random.default_rng(5)
        seen = {DISJOINT: 0, INTERSECTING: 0}
        for _ in range(40):
            e1 = random_psd_ellipsoid(rng, 6, shape_scale=1.5)
            e2 = random_psd_ellipsoid(rng, 6, shape_scale=1.5)
            verdict = decide_disjoint(e1, e2, tol=0.01)
            if verdict.iterations < 2 or verdict.state == INDETERMINATE:
                continue
            r = min_norm_point(e1, e2, tol=0.0, max_iter=verdict.iterations - 1)
            seen[verdict.state] += 1
            if verdict.state == DISJOINT:
                self.assertTrue(np.array_equal(verdict.certificate, -r.point / r.norm))
            else:
                self.assertTrue(np.array_equal(verdict.witness[0], r.x))
                self.assertTrue(np.array_equal(verdict.witness[1], r.y))
        self.assertGreaterEqual(min(seen.values()), 5, seen)


class TestDualConeMargin(unittest.TestCase):
    def test_separated_balls(self):
        b1 = Ball(np.zeros(3), 1.0)
        b2 = Ball(np.array([4.0, 0.0, 0.0]), 1.0)
        margin = dual_cone_margin(np.array([1.0, 0.0, 0.0]), b1, b2)
        self.assertAlmostEqual(margin, 2.0, places=12)

    def test_point_bodies_orthogonal_direction(self):
        e1 = make_ellipsoid([0.0, 0.0], np.zeros((2, 2)))
        e2 = make_ellipsoid([3.0, 0.0], np.zeros((2, 2)))
        self.assertAlmostEqual(
            dual_cone_margin(np.array([0.0, 1.0]), e1, e2), 0.0, places=12
        )

    def test_wrong_direction_negative(self):
        b1 = Ball(np.zeros(2), 1.0)
        b2 = Ball(np.array([4.0, 0.0]), 1.0)
        self.assertLess(dual_cone_margin(np.array([-1.0, 0.0]), b1, b2), 0.0)

    def test_zero_direction_rejected(self):
        b1 = Ball(np.zeros(2), 1.0)
        b2 = Ball(np.array([4.0, 0.0]), 1.0)
        with self.assertRaises(ValueError):
            dual_cone_margin(np.zeros(2), b1, b2)


class TestDecideDisjoint(unittest.TestCase):
    def test_separated_balls(self):
        b1 = Ball(np.zeros(3), 1.0)
        b2 = Ball(np.array([5.0, 0.0, 0.0]), 1.0)
        verdict = decide_disjoint(b1, b2)
        self.assertEqual(verdict.state, DISJOINT)
        self.assertAlmostEqual(verdict.margin, 3.0, places=5)
        self.assertAlmostEqual(np.linalg.norm(verdict.certificate), 1.0, places=9)

    def test_tangent_balls_intersect(self):
        b1 = Ball(np.zeros(2), 1.0)
        b2 = Ball(np.array([2.0, 0.0]), 1.0)
        verdict = decide_disjoint(b1, b2)
        self.assertEqual(verdict.state, INTERSECTING)
        self.assertEqual(verdict.margin, 0.0)

    def test_overlapping_witness(self):
        b1 = Ball(np.zeros(2), 1.0)
        b2 = Ball(np.array([1.0, 0.0]), 1.0)
        verdict = decide_disjoint(b1, b2)
        self.assertEqual(verdict.state, INTERSECTING)
        self.assertIsNotNone(verdict.witness)
        x, y = verdict.witness
        p1 = b1.to_ellipsoid().center + b1.to_ellipsoid().shape @ x
        p2 = b2.to_ellipsoid().center + b2.to_ellipsoid().shape @ y
        # witness certifies a common point up to the solver tolerance
        self.assertLess(np.linalg.norm(p1 - p2), 1e-3)

    def test_certificate_strictly_separates(self):
        rng = np.random.default_rng(55)
        found = 0
        for _ in range(40):
            e1 = random_psd_ellipsoid(rng, 3)
            e2 = random_psd_ellipsoid(rng, 3, center_scale=5.0)
            verdict = decide_disjoint(e1, e2)
            if verdict.state != DISJOINT:
                continue
            found += 1
            w = np.asarray(verdict.certificate)
            hi1 = support(e1, w)[0]
            lo2 = -support(e2, -w)[0]
            self.assertLess(hi1, lo2 + 1e-9)
            self.assertAlmostEqual(
                verdict.margin, dual_cone_margin(w, e1, e2), places=9
            )
        self.assertGreater(found, 10)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(66)
        for _ in range(25):
            e1 = random_psd_ellipsoid(rng, 3)
            e2 = random_psd_ellipsoid(rng, 3, center_scale=3.0)
            self.assertEqual(
                decide_disjoint(e1, e2).state, decide_disjoint(e2, e1).state
            )

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            e1 = random_psd_ellipsoid(rng, 3)
            e2 = random_psd_ellipsoid(rng, 3, center_scale=4.0)
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            r1 = make_ellipsoid(q @ e1.center, q @ e1.shape @ q.T)
            r2 = make_ellipsoid(q @ e2.center, q @ e2.shape @ q.T)
            self.assertEqual(
                decide_disjoint(e1, e2).state, decide_disjoint(r1, r2).state
            )

    def test_agrees_with_boundary_oracle(self):
        rng = np.random.default_rng(88)
        checked = 0
        for _ in range(40):
            e1 = random_psd_ellipsoid(rng, 2, center_scale=1.5)
            e2 = random_psd_ellipsoid(rng, 2, center_scale=1.5)
            verdict = decide_disjoint(e1, e2, max_iter=20_000)
            expected = brute_force_expected(e1, e2)
            if verdict.state == INDETERMINATE or expected is None:
                continue
            self.assertEqual(verdict.state, expected)
            checked += 1
        self.assertGreater(checked, 20)

    def test_exhaustion_is_indeterminate(self):
        # rotated anisotropic pair: one step is not enough to certify
        rng = np.random.default_rng(3)
        a1 = rng.standard_normal((2, 2))
        a2 = rng.standard_normal((2, 2))
        e1 = make_ellipsoid(rng.standard_normal(2), a1 @ a1.T / 2)
        e2 = make_ellipsoid(rng.standard_normal(2) + 3.0, a2 @ a2.T / 2)
        self.assertEqual(decide_disjoint(e1, e2, max_iter=1).state, INDETERMINATE)
        self.assertNotEqual(
            decide_disjoint(e1, e2, max_iter=50_000).state, INDETERMINATE
        )

    def test_to_dict_round_trips_json(self):
        import json

        b1 = Ball(np.zeros(2), 1.0)
        b2 = Ball(np.array([5.0, 0.0]), 1.0)
        payload = json.loads(json.dumps(decide_disjoint(b1, b2).to_dict()))
        self.assertEqual(payload["state"], DISJOINT)
        self.assertEqual(len(payload["certificate"]), 2)


class TestNullspaceAvoidsCone(unittest.TestCase):
    def test_full_rank_square_matrix(self):
        cone = CircularCone(np.eye(4)[0], np.pi / 4)
        check = nullspace_avoids_cone(np.eye(4), cone)
        self.assertTrue(check.avoids)
        self.assertTrue(bool(check))
        self.assertEqual(check.rank, 4)

    def test_axis_in_nullspace(self):
        # rows orthogonal to e1, so e1 itself sits in the kernel
        matrix = np.zeros((2, 3))
        matrix[0, 1] = 1.0
        matrix[1, 2] = 1.0
        cone = CircularCone(np.array([1.0, 0.0, 0.0]), np.pi / 4)
        check = nullspace_avoids_cone(matrix, cone)
        self.assertFalse(check.avoids)
        self.assertFalse(bool(check))

    def test_gaussian_projection_accepted(self):
        cone = CircularCone(np.eye(6)[0], np.pi / 4)
        check = nullspace_avoids_cone(GaussianProjection(3, 6, seed=4), cone)
        self.assertIsInstance(check.avoids, bool)

    def test_row_operations_do_not_change_answer(self):
        # the kernel only depends on the row space
        rng = np.random.default_rng(9)
        cone = CircularCone(np.eye(6)[0], np.pi / 4)
        for _ in range(20):
            matrix = rng.standard_normal((3, 6))
            t = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
            a = nullspace_avoids_cone(matrix, cone)
            b = nullspace_avoids_cone(t @ matrix, cone)
            self.assertEqual(a.avoids, b.avoids)

    def test_monte_carlo_oracle(self):
        # brute force: sample the kernel sphere densely and check whether
        # any kernel direction makes the cone angle with the axis
        from scipy.linalg import null_space

        rng = np.random.default_rng(10)
        n, alpha = 6, np.pi / 4
        axis = np.eye(n)[0]
        cone = CircularCone(axis, alpha)

        decided = 0
        for seed in range(30):
            matrix = GaussianProjection(3, n, seed=seed).entries
            check = nullspace_avoids_cone(matrix, cone)
            kernel = null_space(matrix)
            u = rng.standard_normal((200_000, kernel.shape[1]))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            best_cos = (u @ (kernel.T @ axis)).max()
            if abs(best_cos - np.cos(alpha)) < 1e-2:
                continue
            decided += 1
            self.assertEqual(check.avoids, bool(best_cos < np.cos(alpha)))
        self.assertGreaterEqual(decided, 25)


if __name__ == "__main__":
    unittest.main()
