import unittest

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from projsep.bodies import (
    Ball,
    CircularCone,
    GaussianProjection,
    binary_exponent,
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


def assert_checked(case, verdict, e1, e2):
    """The certificate separates or the witness is a common point, rechecked here.

    The check runs on the pair divided by a power of two, which is exact
    and keeps its norms in range at any scale.
    """
    e1, e2 = (e.to_ellipsoid() if isinstance(e, Ball) else e for e in (e1, e2))
    exp = binary_exponent(e1.center, e2.center, e1.shape, e2.shape)
    e1, e2 = (make_ellipsoid(np.ldexp(e.center, -exp), np.ldexp(e.shape, -exp)) for e in (e1, e2))
    if verdict.state == DISJOINT:
        w = verdict.certificate
        case.assertAlmostEqual(float(np.linalg.norm(w)), 1.0, places=12)
        case.assertLess(support(e1, w)[0], -support(e2, -w)[0])
        case.assertGreater(verdict.margin, 0.0)
    else:
        case.assertEqual(verdict.state, INTERSECTING)
        x, y = verdict.witness
        case.assertLessEqual(max(np.linalg.norm(x), np.linalg.norm(y)), 1.0 + 1e-9)
        size = max(np.linalg.norm(a) for a in (e1.center, e2.center, e1.shape, e2.shape))
        p1, p2 = e1.center + e1.shape @ x, e2.center + e2.shape @ y
        case.assertLessEqual(np.linalg.norm(p1 - p2), 1e-9 * size)


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

    def test_small_bodies_are_solved_to_their_own_scale(self):
        # radius-1e-8 balls 1.04e-8 apart: an absolute gap of 1e-7 would
        # stop at the centre distance 3.04e-8
        b1 = Ball(np.zeros(3), 1e-8)
        b2 = Ball(np.array([3.0, 0.5, 0.0]) * 1e-8, 1e-8)
        result = min_norm_point(b1, b2)
        self.assertAlmostEqual(result.norm / 1e-8, np.hypot(3.0, 0.5) - 2.0, places=6)

    def test_scaling_scales_the_norm_and_keeps_the_iterations(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            c1, c2 = rng.standard_normal(4), 4.0 * rng.standard_normal(4)
            b1, b2 = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
            results = {
                scale: min_norm_point(
                    make_ellipsoid(scale * c1, scale * b1),
                    make_ellipsoid(scale * c2, scale * b2),
                )
                for scale in (1e-8, 1.0, 1e8)
            }
            reference = results[1.0]
            self.assertGreater(reference.iterations, 2)
            for scale, result in results.items():
                self.assertEqual(result.iterations, reference.iterations, scale)
                self.assertAlmostEqual(
                    result.norm / scale, reference.norm, delta=1e-9 * reference.norm
                )

    def test_out_of_iterations_returns_the_iterate_after_the_last_step(self):
        # the run capped at k + 1 iterations reports the gap of the iterate
        # after k steps, which the run capped at k must return
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(10):
            e1 = random_psd_ellipsoid(rng, 6, shape_scale=1.5)
            e2 = random_psd_ellipsoid(rng, 6, center_scale=3.0, shape_scale=1.5)
            c_gap = e1.center - e2.center
            for k in range(1, 6):
                r = min_norm_point(e1, e2, tol=0.0, max_iter=k)
                following = min_norm_point(e1, e2, tol=0.0, max_iter=k + 1)
                if following.iterations != k + 1:
                    break
                z = r.point
                gap = (
                    z @ z
                    - z @ c_gap
                    + np.linalg.norm(e1.shape.T @ z)
                    + np.linalg.norm(e2.shape.T @ z)
                )
                self.assertEqual(r.iterations, k)
                self.assertAlmostEqual(following.dual_gap, gap, delta=1e-9 * (1.0 + gap))
                np.testing.assert_allclose(
                    z, c_gap + e1.shape @ r.x - e2.shape @ r.y, atol=1e-12
                )
                checked += 1
        self.assertGreaterEqual(checked, 30)


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
        assert_checked(self, verdict, b1, b2)
        self.assertAlmostEqual(verdict.norm, 1.0, places=12)

    def test_overlapping_witness(self):
        b1 = Ball(np.zeros(2), 1.0)
        b2 = Ball(np.array([1.0, 0.0]), 1.0)
        verdict = decide_disjoint(b1, b2)
        self.assertEqual(verdict.state, INTERSECTING)
        self.assertIsNotNone(verdict.witness)
        x, y = verdict.witness
        p1 = b1.to_ellipsoid().center + b1.to_ellipsoid().shape @ x
        p2 = b2.to_ellipsoid().center + b2.to_ellipsoid().shape @ y
        # the witness is a common point up to rounding
        self.assertLess(np.linalg.norm(p1 - p2), 1e-12)
        self.assertAlmostEqual(verdict.norm, 0.5, places=12)

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
            verdict = decide_disjoint(e1, e2)
            self.assertNotEqual(verdict.state, INDETERMINATE)
            assert_checked(self, verdict, e1, e2)
            expected = brute_force_expected(e1, e2)
            if expected is None:
                continue
            self.assertEqual(verdict.state, expected)
            checked += 1
        self.assertGreater(checked, 20)

    def test_to_dict_round_trips_json(self):
        import json

        b1 = Ball(np.zeros(2), 1.0)
        b2 = Ball(np.array([5.0, 0.0]), 1.0)
        payload = json.loads(json.dumps(decide_disjoint(b1, b2).to_dict()))
        self.assertEqual(payload["state"], DISJOINT)
        self.assertEqual(len(payload["certificate"]), 2)



def ball(center, radius):
    return Ball(np.asarray(center, dtype=float), radius).to_ellipsoid()


def segment(start, end):
    start, end = np.asarray(start, dtype=float), np.asarray(end, dtype=float)
    return make_ellipsoid((start + end) / 2.0, ((end - start) / 2.0)[:, None])


class TestExactDecision(unittest.TestCase):
    def decide(self, e1, e2):
        verdict = decide_disjoint(e1, e2)
        assert_checked(self, verdict, e1, e2)
        return verdict

    def test_point_inside_and_outside_a_ball(self):
        body = ball([1.0, -2.0, 0.5], 2.0)
        inside = make_ellipsoid([2.0, -1.0, 0.5], np.zeros((3, 0)))
        outside = make_ellipsoid([4.0, -2.0, 0.5], np.zeros((3, 0)))
        for e1, e2 in ((body, inside), (inside, body)):
            self.assertEqual(self.decide(e1, e2).state, INTERSECTING)
        for e1, e2 in ((body, outside), (outside, body)):
            self.assertEqual(self.decide(e1, e2).state, DISJOINT)

    def test_coincident_and_distinct_points(self):
        p = make_ellipsoid([1.0, 2.0], np.zeros((2, 2)))
        q = make_ellipsoid([1.0, 2.0 + 1e-12], np.zeros((2, 2)))
        self.assertEqual(self.decide(p, p).state, INTERSECTING)
        self.assertEqual(self.decide(p, q).state, DISJOINT)

    def test_segments(self):
        cases = {
            "crossing": (segment([-1, -1], [1, 1]), segment([-1, 1], [1, -1]), INTERSECTING),
            "parallel": (segment([0, 0], [2, 0]), segment([0, 1], [2, 1]), DISJOINT),
            "collinear overlapping": (
                segment([0, 0], [2, 0]), segment([1, 0], [3, 0]), INTERSECTING
            ),
            "collinear apart": (segment([0, 0], [1, 0]), segment([2, 0], [3, 0]), DISJOINT),
        }
        for name, (e1, e2, expected) in cases.items():
            with self.subTest(name):
                self.assertEqual(self.decide(e1, e2).state, expected)
                self.assertEqual(self.decide(e2, e1).state, expected)

    def test_flat_hyperplane_pair_at_full_dimension(self):
        # both shapes annihilate the centre axis, so after a square projection
        # the gap leaves the range of S1 + S2 and certifies on its own
        from projsep.experiments import sample_wishart_shape

        rng = np.random.default_rng(12)
        n = 8
        axis = np.eye(n)[0]
        matrix = rng.standard_normal((n, n))
        shapes = [sample_wishart_shape(n, rng, constrained_axis=axis) for _ in range(2)]
        e1 = make_ellipsoid(matrix @ (0.5 * axis), matrix @ shapes[0])
        e2 = make_ellipsoid(-(matrix @ (0.5 * axis)), matrix @ shapes[1])
        self.assertLessEqual(dual_cone_margin(e2.center - e1.center, e1, e2), 0.0)
        verdict = self.decide(e1, e2)
        self.assertEqual(verdict.state, DISJOINT)
        self.assertEqual(verdict.iterations, 0)
        reach = np.linalg.norm(e1.shape.T @ verdict.certificate) + np.linalg.norm(
            e2.shape.T @ verdict.certificate
        )
        self.assertLess(reach, 1e-9 * verdict.margin)

    def test_thin_bodies_need_the_dual(self):
        # the centre line does not separate these; a dual direction does
        shape = np.diag([10.0, 0.1])
        e1 = make_ellipsoid([0.0, 0.0], shape)
        e2 = make_ellipsoid([1.0, 0.5], shape)
        self.assertLessEqual(dual_cone_margin(e2.center - e1.center, e1, e2), 0.0)
        verdict = self.decide(e1, e2)
        self.assertEqual(verdict.state, DISJOINT)
        self.assertGreater(verdict.iterations, 0)

    def test_tiny_balls_at_unit_gap(self):
        # unit balls with a gap of 1 between them, both scaled by 1e-8
        verdict = self.decide(ball([0.0, 0.0], 1e-8), ball([3e-8, 0.0], 1e-8))
        self.assertEqual(verdict.state, DISJOINT)
        self.assertAlmostEqual(verdict.margin, 1e-8, delta=1e-20)

    def test_touching_pair_is_witnessed_at_the_maximizer(self):
        # f exceeds 1 by rounding short of its maximizer, where ||x|| is 1 + 4e-9
        verdict = self.decide(ball([1.3125], 1.8125), ball([-3.0], 2.5))
        self.assertEqual(verdict.state, INTERSECTING)
        self.assertAlmostEqual(verdict.norm, 1.0, places=12)


@st.composite
def body_pairs(draw):
    n = draw(st.integers(1, 4))
    entries = st.integers(-48, 48).map(lambda k: k / 16.0)

    def body():
        k = draw(st.integers(0, n + 1))
        return make_ellipsoid(draw(arrays(float, n, elements=entries)),
                              draw(arrays(float, (n, k), elements=entries)))

    return body(), body(), draw(st.integers(0, 2**32 - 1))


def moved(body, scale, rotation, shift):
    center = scale * (rotation @ body.center + shift)
    return make_ellipsoid(center, scale * (rotation @ body.shape))


def pair_size(e1, e2):
    return max(np.linalg.norm(a) for a in (e1.center, e2.center, e1.shape, e2.shape))


def settled(verdict, e1, e2):
    """True when moving the pair's entries by 1e-6 of its size keeps the verdict.

    A Disjoint margin must exceed that; an Intersecting pair must keep a
    ball of that radius around c2 - c1 inside E1' + E2', which contains
    (1 - touching factor) times the ball of radius sigma_n([B1 B2]).
    """
    if verdict.state == DISJOINT:
        return verdict.margin > 1e-6 * pair_size(e1, e2)
    both = np.hstack((e1.shape, e2.shape))
    svals = np.linalg.svd(both, compute_uv=False)
    inradius = svals[e1.ambient_dim - 1] if svals.size >= e1.ambient_dim else 0.0
    return (1.0 - verdict.norm) * inradius > 1e-6 * pair_size(e1, e2)


class TestProperties(unittest.TestCase):
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(body_pairs(), st.integers(-200, 200))
    def test_verdicts_are_invariant_and_checked(self, pair, exponent):
        e1, e2, seed = pair
        verdict = decide_disjoint(e1, e2)
        self.assertNotEqual(verdict.state, INDETERMINATE)
        assert_checked(self, verdict, e1, e2)
        # the copies are rounded, which may rightly decide pairs that touch
        # or lie flat against each other either way
        assume(settled(verdict, e1, e2))
        rng = np.random.default_rng(seed)
        n = e1.ambient_dim
        rotation = np.linalg.qr(rng.standard_normal((n, n)))[0]
        shift = pair_size(e1, e2) * rng.standard_normal(n)
        copies = {
            "swapped": (e2, e1),
            "scaled": (moved(e1, 10.0**exponent, np.eye(n), 0.0),
                       moved(e2, 10.0**exponent, np.eye(n), 0.0)),
            "moved": (moved(e1, 10.0**exponent, rotation, shift),
                      moved(e2, 10.0**exponent, rotation, shift)),
        }
        for name, (f1, f2) in copies.items():
            other = decide_disjoint(f1, f2)
            assert_checked(self, other, f1, f2)
            self.assertEqual(other.state, verdict.state, name)


def scale_pairs(s):
    """Two pairs at scale s, whose squared sizes leave double range at 1e+-160.

    ``overlapping``: equal shapes diag(s, 1, 1) centred at s e_0 and 0 (a
    gap of s against an axis pull of 2s). ``apart``: unit balls scaled by
    s with centres 3s apart.
    """
    shape = np.diag([s, 1.0, 1.0])
    return {
        "overlapping": (make_ellipsoid([s, 0.0, 0.0], shape), make_ellipsoid(np.zeros(3), shape)),
        "apart": (ball([0.0, 0.0, 0.0], s), ball([3.0 * s, 0.0, 0.0], s)),
    }


EXTREME_SCALES = (1e-200, 1e-160, 1e160, 1e200)


class TestExtremeScales(unittest.TestCase):
    def test_verdicts_keep_at_every_scale(self):
        reference = {name: decide_disjoint(*pair) for name, pair in scale_pairs(1.0).items()}
        for s in EXTREME_SCALES:
            for name, (e1, e2) in scale_pairs(s).items():
                with self.subTest(name, scale=s):
                    verdict = decide_disjoint(e1, e2)
                    self.assertEqual(verdict.state, reference[name].state)
                    assert_checked(self, verdict, e1, e2)
                    self.assertAlmostEqual(verdict.margin / s, reference[name].margin, places=12)
        # only the second pair is a scaled copy of itself at scale 1
        for s in EXTREME_SCALES:
            self.assertAlmostEqual(
                decide_disjoint(*scale_pairs(s)["apart"]).norm, reference["apart"].norm, places=12
            )


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
