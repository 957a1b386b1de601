import json
import math
import unittest

import numpy as np

from projsep.bodies import (
    EIGENVALUE_TOL,
    Ball,
    CircularCone,
    Ellipsoid,
    GaussianProjection,
    _json_value,
    binary_exponent,
    difference_cone,
    ellipsoid_from_dict,
    project_body,
)
from projsep.escape import plan_multiclass
from projsep.experiments import sample_wishart_shape
from projsep.separation import INTERSECTING, decide_disjoint


def random_body(rng, n, k=None):
    k = n if k is None else k
    return Ellipsoid(rng.standard_normal(n), rng.standard_normal((n, k)))


def support(body, u):
    """Largest ``<p, u>`` over the body: ``<c, u> + ||B'u||``."""
    return body.center @ u + np.linalg.norm(body.shape.T @ u)


class TestMakeEllipsoid(unittest.TestCase):
    """``Ellipsoid(center, shape)`` converts, validates and copies its arguments."""

    def test_unit_disk(self):
        body = Ellipsoid([0.0, 0.0], np.eye(2))
        self.assertTrue(body.symmetric_psd)
        self.assertEqual(body.ambient_dim, 2)

    def test_diagonal_psd(self):
        self.assertTrue(Ellipsoid([0.0, 0.0], np.diag([3.0, 1.0])).symmetric_psd)

    def test_nilpotent_shape_is_valid_but_not_psd(self):
        body = Ellipsoid([0.0, 0.0], [[0.0, 1.0], [0.0, 0.0]])
        self.assertFalse(body.symmetric_psd)
        self.assertEqual(body.ambient_dim, 2)

    def test_negative_eigenvalue_not_psd(self):
        # at every scale: the tolerance is relative to the largest entry
        for scale in (1.0, 1e-12):
            shape = scale * np.diag([1.0, -1.0])
            self.assertFalse(Ellipsoid([0.0, 0.0], shape).symmetric_psd, scale)

    def test_dimension_mismatch(self):
        with self.assertRaises(ValueError):
            Ellipsoid([0.0, 0.0, 0.0], np.eye(2))

    def test_non_finite_entries(self):
        with self.assertRaises(ValueError):
            Ellipsoid([0.0, np.nan], np.eye(2))
        with self.assertRaises(ValueError):
            Ellipsoid([0.0, 0.0], [[1.0, 0.0], [0.0, np.inf]])

    def test_immutability(self):
        body = Ellipsoid([1.0, 2.0], np.eye(2))
        with self.assertRaises(ValueError):
            body.center[0] = 5.0
        with self.assertRaises(ValueError):
            body.shape[0, 0] = 5.0

    def test_inputs_are_copied(self):
        center, shape = np.array([1.0, 2.0]), np.eye(2)
        body = Ellipsoid(center, shape)
        center[0], shape[0, 0] = 5.0, 5.0
        np.testing.assert_array_equal(body.center, [1.0, 2.0])
        np.testing.assert_array_equal(body.shape, np.eye(2))
        self.assertTrue(center.flags.writeable)

    def test_fewer_columns_make_a_flat_body(self):
        body = Ellipsoid([0, 0, 0], [[1], [2], [0]])
        self.assertEqual(body.center.dtype, float)
        self.assertEqual(body.shape.shape, (3, 1))
        self.assertEqual(body.ambient_dim, 3)
        self.assertFalse(body.symmetric_psd)


class TestPsdRule(unittest.TestCase):
    """A shape is PSD when, divided by ``2**binary_exponent``, its least
    eigenvalue is at least ``-EIGENVALUE_TOL``."""

    def test_boundary_at_every_scale(self):
        tol = EIGENVALUE_TOL
        # the largest entry, 1/2, is what the division leaves, so the least
        # eigenvalues sit at tol / 2 and 2 tol below zero in the rule's units
        cases = (
            (np.diag([0.5, -0.5 * tol]), True),
            (np.diag([0.5, -2.0 * tol]), False),
            (sample_wishart_shape(12, 5, constrained_axis=np.eye(12)[0]), True),
        )
        for shape, expected in cases:
            for power in (-600, 0, 600):
                scaled = np.ldexp(shape, power)
                self.assertTrue(np.all(np.ldexp(scaled, -power) == shape))
                body = Ellipsoid(np.zeros(len(shape)), scaled)
                self.assertIs(body.symmetric_psd, expected, (shape[-1, -1], power))

    def test_agrees_with_least_eigenvalue_near_the_boundary(self):
        rng = np.random.default_rng(26)
        tol = EIGENVALUE_TOL
        verdicts = set()
        for _ in range(2000):
            n = int(rng.integers(2, 7))
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            values = rng.uniform(0.5, 1.0, n)
            values[0] = -tol * 10.0 ** rng.uniform(-1.0, 1.0)
            shape = (q * values) @ q.T
            shape = 0.5 * (shape + shape.T)
            least = np.linalg.eigvalsh(np.ldexp(shape, -binary_exponent(shape)))[0]
            self.assertTrue(-20.0 * tol < least < -0.05 * tol, least)
            expected = bool(least >= -tol)
            verdicts.add(expected)
            self.assertIs(Ellipsoid(np.zeros(n), shape).symmetric_psd, expected, least)
        self.assertEqual(verdicts, {True, False})


class TestProjectBody(unittest.TestCase):
    def test_identity(self):
        body = Ellipsoid([1.0, 2.0], np.diag([3.0, 1.0]))
        image = project_body(np.eye(2), body)
        np.testing.assert_array_equal(image.center, body.center)
        np.testing.assert_array_equal(image.shape, body.shape)

    def test_zero_map(self):
        image = project_body(np.zeros((2, 2)), Ball(np.array([1.0, 1.0]), 2.0))
        np.testing.assert_array_equal(image.center, [0.0, 0.0])
        np.testing.assert_array_equal(image.shape, np.zeros((2, 2)))

    def test_row_vector_gives_interval(self):
        ball = Ball(np.array([1.0, 2.0, 3.0]), 0.5)
        e = np.array([[0.0, 1.0, 0.0]])
        image = project_body(e, ball)
        lo = support(image, np.array([-1.0]))
        hi = support(image, np.array([1.0]))
        self.assertAlmostEqual(-lo, 2.0 - 0.5, places=12)
        self.assertAlmostEqual(hi, 2.0 + 0.5, places=12)

    def test_pullback_of_support(self):
        # support(P K, u) == support(K, P^T u)
        rng = np.random.default_rng(12)
        body = random_body(rng, 5)
        matrix = rng.standard_normal((3, 5))
        image = project_body(matrix, body)
        for _ in range(20):
            u = rng.standard_normal(3)
            self.assertAlmostEqual(
                support(image, u), support(body, matrix.T @ u), places=9
            )

    def test_gaussian_projection_accepted(self):
        proj = GaussianProjection(2, 4, seed=3)
        body = Ball(np.zeros(4), 1.0)
        image = project_body(proj, body)
        np.testing.assert_allclose(image.shape, proj.entries)

    def test_dimension_mismatch(self):
        with self.assertRaises(ValueError):
            project_body(np.eye(3), Ball(np.zeros(2), 1.0))


class TestDifferenceCone(unittest.TestCase):
    def test_lemma_angle(self):
        b1 = Ball(np.array([0.0, 0.0, 0.0]), 1.0)
        b2 = Ball(np.array([4.0, 0.0, 0.0]), 1.0)
        cone = difference_cone(b1, b2)
        self.assertAlmostEqual(cone.half_angle, np.pi / 6, places=12)
        np.testing.assert_allclose(cone.axis, [-1.0, 0.0, 0.0])

    def test_point_limit(self):
        cone = difference_cone(
            Ball(np.zeros(2), 1e-9), Ball(np.array([1.0, 0.0]), 1e-9)
        )
        self.assertLess(cone.half_angle, 1e-8)

    def test_tangent_balls_rejected(self):
        with self.assertRaises(ValueError):
            difference_cone(Ball(np.zeros(2), 1.0), Ball(np.array([2.0, 0.0]), 1.0))

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(5)
        c1, c2 = rng.standard_normal(3), rng.standard_normal(3) + 5.0
        b1, b2 = Ball(c1, 0.8), Ball(c2, 0.6)
        base = difference_cone(b1, b2)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        t = rng.standard_normal(3)
        moved = difference_cone(Ball(q @ c1 + t, 0.8), Ball(q @ c2 + t, 0.6))
        self.assertAlmostEqual(moved.half_angle, base.half_angle, places=12)
        np.testing.assert_allclose(moved.axis, q @ base.axis, atol=1e-12)


class TestGaussianProjection(unittest.TestCase):
    def test_deterministic(self):
        a = GaussianProjection(3, 5, seed=11)
        b = GaussianProjection(3, 5, seed=11)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_row_major_prefix(self):
        # rows are consumed in order from one stream, so a shorter map is a
        # prefix of a taller one with the same seed
        tall = GaussianProjection(4, 6, seed=2)
        short = GaussianProjection(2, 6, seed=2)
        np.testing.assert_array_equal(tall.entries[:2], short.entries)

    def test_rejects_expanding_map(self):
        with self.assertRaises(ValueError):
            GaussianProjection(5, 3, seed=0)


class TestSerialization(unittest.TestCase):
    def test_ellipsoid_round_trip(self):
        data = {"center": [0.5, -1.25], "shape": [[2.0, 0.0, 0.1], [0.0, 0.3, 0.0]]}
        back = ellipsoid_from_dict(data)
        np.testing.assert_array_equal(back.center, data["center"])
        np.testing.assert_array_equal(back.shape, data["shape"])

    def test_ball_dict(self):
        back = ellipsoid_from_dict({"center": [1.0, 2.0], "radius": 0.5})
        np.testing.assert_array_equal(back.center, [1.0, 2.0])
        np.testing.assert_allclose(back.shape, 0.5 * np.eye(2))

    def test_results_encode_to_strict_json(self):
        balls = [ellipsoid_from_dict({"center": [x, 0.0], "radius": 1.0}) for x in (0.0, 1.0, 10.0)]
        # the first pair overlaps, so its width bound does not apply
        plan = _json_value(plan_multiclass(balls, 0.1))
        first = plan["pairs"][0]
        self.assertEqual((first["first"], first["second"], first["m_required"]), (0, 1, None))
        self.assertFalse(first["bound"]["valid"])
        self.assertIsNone(first["bound"]["value"])
        self.assertEqual((plan["m"], plan["feasible"]), (None, False))
        self.assertIsInstance(plan["pairs"], list)

        verdict = decide_disjoint(balls[0], balls[1])
        self.assertEqual(verdict.state, INTERSECTING)
        encoded = _json_value(verdict)
        self.assertEqual(encoded["witness"], [verdict.witness[0].tolist(), verdict.witness[1].tolist()])
        self.assertTrue(all(type(x) is float for side in encoded["witness"] for x in side))
        self.assertIsNone(encoded["certificate"])

        array = _json_value(np.array([[1.5, math.nan], [math.inf, -math.inf]]))
        self.assertEqual(array, [[1.5, None], [None, None]])
        for value in (plan, encoded, array):
            self.assertEqual(json.loads(json.dumps(value, allow_nan=False)), value)


class TestCone(unittest.TestCase):
    def test_axis_must_be_unit(self):
        with self.assertRaises(ValueError):
            CircularCone(np.array([1.0, 1.0]), 0.5)

    def test_angle_range(self):
        with self.assertRaises(ValueError):
            CircularCone(np.array([1.0, 0.0]), 2.0)


if __name__ == "__main__":
    unittest.main()
