import itertools
import math
import unittest
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from projsep import separation
from projsep.bodies import Ball, Ellipsoid, _json_value, binary_exponent
from projsep.separation import (
    DISJOINT,
    INDETERMINATE,
    INTERSECTING,
    _decide_stack,
    decide_disjoint,
)


def random_psd_ellipsoid(rng, n, center_scale=1.0):
    a = rng.standard_normal((n, n))
    return Ellipsoid(center_scale * rng.standard_normal(n), a @ a.T / n)


def preimage_norms(body, points):
    # ||x|| for shape @ x = p - center, one per point; full-rank shapes only
    solved = np.linalg.solve(body.shape, (points - body.center).T)
    return np.linalg.norm(solved, axis=0)


def margin(w, e1, e2):
    """``<w, c2 - c1> - ||B1'w|| - ||B2'w||``: positive iff w strictly separates."""
    d = e2.center - e1.center
    return w @ d - np.linalg.norm(e1.shape.T @ w) - np.linalg.norm(e2.shape.T @ w)


def exactly_separates(w, e1, e2):
    """Whether ``<w, d> > ||B1'w|| + ||B2'w||`` holds exactly for the floats given.

    Every float is a rational, so with ``a = <w, d>``, ``b = ||B1'w||^2``
    and ``c = ||B2'w||^2`` the test ``a > sqrt(b) + sqrt(c)``, which is
    ``a > 0``, ``a^2 - b - c > 0`` and ``(a^2 - b - c)^2 > 4bc``, is decided
    in ``Fraction`` without rounding.
    """
    w = [Fraction(x) for x in np.asarray(w, dtype=float).tolist()]

    def dot(u):
        return sum(Fraction(x) * y for x, y in zip(u, w))

    a = sum(((Fraction(x) - Fraction(y)) * z for x, y, z in
             zip(e2.center.tolist(), e1.center.tolist(), w)), Fraction(0))
    b, c = (sum((dot(column) ** 2 for column in e.shape.T.tolist()), Fraction(0))
            for e in (e1, e2))
    rest = a * a - b - c
    return a > 0 and rest > 0 and rest * rest > 4 * b * c


def assert_checked(case, verdict, e1, e2):
    """The certificate separates or the witness is a common point, rechecked here.

    A certificate is checked in exact arithmetic on the pair as given, so
    at any scale and however far the centres outweigh their gap. A witness
    is checked on the pair divided by a power of two, which keeps its norms
    in range at any scale.
    """
    e1, e2 = (e.to_ellipsoid() if isinstance(e, Ball) else e for e in (e1, e2))
    if verdict.state == DISJOINT:
        w = verdict.certificate
        case.assertAlmostEqual(float(np.linalg.norm(w)), 1.0, places=12)
        case.assertTrue(exactly_separates(w, e1, e2))
        case.assertGreater(verdict.margin, 0.0)
    else:
        exp = binary_exponent(e1.center, e2.center, e1.shape, e2.shape)
        e1, e2 = (Ellipsoid(np.ldexp(e.center, -exp), np.ldexp(e.shape, -exp)) for e in (e1, e2))
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
        or preimage_norms(e2, e1.center[None]).min() <= 1.0
        or preimage_norms(e1, e2.center[None]).min() <= 1.0
    )
    if solidly_inside:
        return INTERSECTING
    gaps = np.linalg.norm(pts1[:, None, :] - pts2[None, :, :], axis=2)
    if gaps.min() > 0.05:
        return DISJOINT
    return None


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
            exact = margin(w, e1, e2)
            self.assertGreater(exact, -1e-9)
            self.assertAlmostEqual(verdict.margin, exact, places=9)
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
            r1 = Ellipsoid(q @ e1.center, q @ e1.shape @ q.T)
            r2 = Ellipsoid(q @ e2.center, q @ e2.shape @ q.T)
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

    def test_verdict_round_trips_json(self):
        import json

        b1 = Ball(np.zeros(2), 1.0)
        b2 = Ball(np.array([5.0, 0.0]), 1.0)
        payload = json.loads(json.dumps(_json_value(decide_disjoint(b1, b2))))
        self.assertEqual(payload["state"], DISJOINT)
        self.assertEqual(len(payload["certificate"]), 2)



def ball(center, radius):
    return Ball(np.asarray(center, dtype=float), radius).to_ellipsoid()


def segment(start, end):
    start, end = np.asarray(start, dtype=float), np.asarray(end, dtype=float)
    return Ellipsoid((start + end) / 2.0, ((end - start) / 2.0)[:, None])


class TestExactDecision(unittest.TestCase):
    def decide(self, e1, e2):
        verdict = decide_disjoint(e1, e2)
        assert_checked(self, verdict, e1, e2)
        return verdict

    def test_point_inside_and_outside_a_ball(self):
        body = ball([1.0, -2.0, 0.5], 2.0)
        inside = Ellipsoid([2.0, -1.0, 0.5], np.zeros((3, 0)))
        outside = Ellipsoid([4.0, -2.0, 0.5], np.zeros((3, 0)))
        for e1, e2 in ((body, inside), (inside, body)):
            self.assertEqual(self.decide(e1, e2).state, INTERSECTING)
        for e1, e2 in ((body, outside), (outside, body)):
            self.assertEqual(self.decide(e1, e2).state, DISJOINT)

    def test_coincident_and_distinct_points(self):
        p = Ellipsoid([1.0, 2.0], np.zeros((2, 2)))
        q = Ellipsoid([1.0, 2.0 + 1e-12], np.zeros((2, 2)))
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
        e1 = Ellipsoid(matrix @ (0.5 * axis), matrix @ shapes[0])
        e2 = Ellipsoid(-(matrix @ (0.5 * axis)), matrix @ shapes[1])
        self.assertLessEqual(margin(e2.center - e1.center, e1, e2), 0.0)
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
        e1 = Ellipsoid([0.0, 0.0], shape)
        e2 = Ellipsoid([1.0, 0.5], shape)
        self.assertLessEqual(margin(e2.center - e1.center, e1, e2), 0.0)
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


# skew segments in R^3, so disjoint; but their support values along the centre
# line are equal, so a positive margin in that direction is rounding only
SKEW_SEGMENTS = (
    Ellipsoid([-2.4375, 0.9375, -0.0625], [[2.625], [2.1875], [-2.25]]),
    Ellipsoid([-2.625, -2.5, 0.0], [[2.875], [0.9375], [0.9375]]),
)
# integer vectors whose length is an integer: (3, 4) has length 5
PYTHAGOREAN = ((3, 4, 0, 5), (5, 12, 0, 13), (8, 15, 0, 17), (1, 2, 2, 3), (2, 3, 6, 7),
               (1, 4, 8, 9), (2, 6, 9, 11))


@st.composite
def tangent_balls(draw):
    """Two balls of dyadic centres and radii that touch exactly."""
    *leg, length = draw(st.sampled_from(PYTHAGOREAN))
    scale = draw(st.integers(1, 3)) / 16.0
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=3))
    offset = scale * np.array(draw(st.permutations(leg))) * signs
    center = np.array(draw(st.lists(st.integers(-48, 48), min_size=3, max_size=3))) / 16.0
    length = round(length * scale * 16)
    r1 = draw(st.integers(1, length - 1))
    return ball(center, r1 / 16.0), ball(center + offset, (length - r1) / 16.0)


@st.composite
def shared_endpoint_segments(draw):
    """Two segments of dyadic endpoints with one endpoint in common."""
    n = draw(st.integers(2, 3))
    point = st.lists(st.integers(-48, 48).map(lambda k: k / 16.0), min_size=n, max_size=n)
    a, b, c = (np.array(draw(point)) for _ in range(3))
    assume(np.any(a != b) and np.any(b != c))
    return segment(a, b), segment(b, c)


class TestExactReferee(unittest.TestCase):
    """Certificates judged in exact rational arithmetic, and touching pairs."""

    def test_skew_segments_get_an_exact_certificate(self):
        e1, e2 = SKEW_SEGMENTS
        self.assertFalse(exactly_separates(e2.center - e1.center, e1, e2))
        for f1, f2 in ((e1, e2), (e2, e1)):
            verdict = decide_disjoint(f1, f2)
            self.assertEqual(verdict.state, DISJOINT)
            self.assertTrue(exactly_separates(verdict.certificate, f1, f2))
            # the segments are 2.81 apart along the normal of both
            self.assertAlmostEqual(verdict.margin, 2.807920553980, places=10)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(tangent_balls() | shared_endpoint_segments())
    # centres (3, 4)/16 apart, radii summing to 5/16
    @example((ball([0.0, 0.0], 0.125), ball([0.1875, 0.25], 0.1875)))
    def test_touching_pairs_intersect(self, pair):
        e1, e2 = pair
        verdict = decide_disjoint(e1, e2)
        self.assertEqual(verdict.state, INTERSECTING)
        assert_checked(self, verdict, e1, e2)


@st.composite
def body_pairs(draw):
    n = draw(st.integers(1, 4))
    entries = st.integers(-48, 48).map(lambda k: k / 16.0)

    def body():
        k = draw(st.integers(0, n + 1))
        return Ellipsoid(draw(arrays(float, n, elements=entries)),
                              draw(arrays(float, (n, k), elements=entries)))

    return body(), body(), draw(st.integers(0, 2**32 - 1))


def moved(body, scale, rotation, shift):
    center = scale * (rotation @ body.center + shift)
    return Ellipsoid(center, scale * (rotation @ body.shape))


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
        if verdict.state == DISJOINT and verdict.iterations > 0 and math.isfinite(verdict.norm):
            # read at the maximizer, norm is the touching factor
            for factor, state in ((1.0 + 1e-6, False), (1.0 - 1e-6, True)):
                scaled = (Ellipsoid(e.center, verdict.norm * factor * e.shape) for e in (e1, e2))
                self.assertEqual(decide_disjoint(*scaled).state == DISJOINT, state, factor)
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


# dyadic scales: t times an entry of body_pairs() is exact, so the pair built
# from the floats t * c is the pair that the family decides
FAMILY_SCALES = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 8.0)


def decide_scaled(e1, e2, scales):
    """The verdicts of the pairs ``(t c1, t c2, B1, B2)``, one per scale t, and
    whether ``[B1 B2]`` was decomposed: the family decided as a stack of one."""
    stack = _decide_stack(e1.center[None], e2.center[None], e1.shape[None], e2.shape[None], scales)
    return [stack.verdict(0, i) for i in range(len(scales))], bool(stack.decomposed[0])


class TestScaledFamily(unittest.TestCase):
    """One decomposition decides the pairs (t c1, t c2, B1, B2) for every scale t."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(body_pairs(), st.lists(st.sampled_from(FAMILY_SCALES), min_size=1, max_size=4))
    # f_1 passes 1 / 1**2 on the way to its maximum, which exceeds 1 / 0.5**2:
    # a search that stopped at the larger scale's level would leave the
    # smaller scale without a certificate
    @example(
        (Ellipsoid([-2.3125, -2.9375, -0.875],
                        [[-0.5625, 2.0625], [-0.625, -0.75], [-1.625, -1.8125]]),
         Ellipsoid([-1.0625, -1.1875, 0.9375],
                        [[2.25, -2.375, -2.625], [-0.375, 0.3125, 0.375], [2.75, 2.25, -2.125]]),
         0),
        [0.5, 1.0],
    )
    def test_each_scale_agrees_with_its_own_decision(self, pair, scales):
        e1, e2, _ = pair
        verdicts, _ = decide_scaled(e1, e2, scales)
        self.assertEqual(len(verdicts), len(scales))
        for t, verdict in zip(scales, verdicts):
            f1, f2 = (Ellipsoid(t * e.center, e.shape) for e in (e1, e2))
            self.assertEqual(verdict.state, decide_disjoint(f1, f2).state, t)
            assert_checked(self, verdict, f1, f2)
            if verdict.state == DISJOINT:
                self.assertTrue(exactly_separates(verdict.certificate, f1, f2))

    def test_scales_on_both_sides_of_touching(self):
        # unit balls 4 apart touch when the centres are scaled by 1/2
        b1, b2 = ball([0.0, 0.0, 0.0], 1.0), ball([4.0, 0.0, 0.0], 1.0)
        scales = (0.25, 0.5, 1.0, 2.0)
        verdicts, decomposed = decide_scaled(b1, b2, scales)
        states = [v.state for v in verdicts]
        self.assertEqual(states, [INTERSECTING, INTERSECTING, DISJOINT, DISJOINT])
        self.assertTrue(decomposed)
        for t, verdict in zip(scales, verdicts):
            assert_checked(self, verdict, ball(t * b1.center, 1.0), ball(t * b2.center, 1.0))
        self.assertAlmostEqual(verdicts[1].norm, 1.0, places=12)
        self.assertAlmostEqual(verdicts[3].margin, 6.0, places=12)

    def test_scales_far_apart_are_each_judged_in_range(self):
        # divided by the largest scale's power of two, the shapes of the pair
        # at scale 0.25 would be 1e-250 and their squared norms would vanish
        b1, b2 = ball([0.0, 0.0, 0.0], 1.0), ball([4.0, 0.0, 0.0], 1.0)
        scales = (0.0, 1e-300, 0.25, 1.0, 1e250)
        verdicts, _ = decide_scaled(b1, b2, scales)
        states = [v.state for v in verdicts]
        self.assertEqual(states, [INTERSECTING] * 3 + [DISJOINT] * 2)
        for t, verdict in zip(scales, verdicts):
            f1, f2 = ball(t * b1.center, 1.0), ball(t * b2.center, 1.0)
            self.assertEqual(verdict.state, decide_disjoint(f1, f2).state, t)
            assert_checked(self, verdict, f1, f2)
        # in units of the larger pair, the smaller pair of points would coincide
        points = np.zeros((2, 0))
        verdicts, _ = decide_scaled(
            Ellipsoid(np.zeros(2), points), Ellipsoid(np.ones(2), points), (1e-300, 1e300)
        )
        self.assertEqual([v.state for v in verdicts], [DISJOINT, DISJOINT])
        self.assertAlmostEqual(verdicts[0].margin / 1e-300, np.sqrt(2.0), places=12)

    def test_centre_line_alone_needs_no_decomposition(self):
        b1, b2 = ball([0.0, 0.0], 1.0), ball([4.0, 0.0], 1.0)
        verdicts, decomposed = decide_scaled(b1, b2, (1.0, 3.0))
        self.assertEqual([v.state for v in verdicts], [DISJOINT, DISJOINT])
        self.assertFalse(decomposed)


def mixed_stack(rng, k, m, n1, n2):
    """k random pairs that share m rows: full-rank ones, rank-deficient ones,
    ones with a body flat along part of the other's span, and ones with
    coinciding centres, at sizes from 1e-3 to 1e3."""
    c1, c2 = rng.standard_normal((2, k, m))
    b1, b2 = rng.standard_normal((k, m, n1)), rng.standard_normal((k, m, n2))
    for p, kind in enumerate(rng.integers(0, 4, size=k)):
        if kind == 1 and m > 1:
            # both bodies in one hyperplane, and sometimes in one line
            rank = int(rng.integers(1, m))
            basis = rng.standard_normal((m, rank))
            b1[p] = basis @ rng.standard_normal((rank, n1))
            b2[p] = basis @ rng.standard_normal((rank, n2))
        elif kind == 2:
            # body 1 has no extent along the first rows, where body 2 has
            b1[p, : int(rng.integers(1, m + 1))] = 0.0
        elif kind == 3:
            c2[p] = c1[p]
        size = 10.0 ** rng.uniform(-3, 3)
        c1[p] *= size * rng.uniform(0.2, 3.0)
        c2[p] *= size * rng.uniform(0.2, 3.0)
        b1[p] *= size
        b2[p] *= size
    return c1, c2, b1, b2


class TestStackedDecision(unittest.TestCase):
    """A stack decides each pair bit for bit as that pair alone decides it."""

    def test_each_pair_decides_as_a_stack_of_one(self):
        rng = np.random.default_rng(17)
        scales = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 16.0)
        seen = set()
        for _ in range(60):
            k, m = int(rng.integers(1, 10)), int(rng.integers(1, 7))
            n1, n2 = (int(x) for x in rng.integers(0, m + 2, size=2))
            c1, c2, b1, b2 = mixed_stack(rng, k, m, n1, n2)
            open_ = rng.random((k, len(scales))) < 0.6
            stack = _decide_stack(c1, c2, b1, b2, scales, open_)
            for p in range(k):
                alone = _decide_stack(
                    c1[p : p + 1], c2[p : p + 1], b1[p : p + 1], b2[p : p + 1], scales, open_[p : p + 1]
                )
                self.assertEqual(stack.decomposed[p], alone.decomposed[0])
                for i in range(len(scales)):
                    if not open_[p, i]:
                        self.assertIsNone(stack.states[p, i])
                        continue
                    got, want = stack.verdict(p, i), alone.verdict(0, i)
                    label = f"pair {p} of {k}, m {m}, scale {scales[i]}"
                    self.assertEqual(got.state, want.state, label)
                    self.assertEqual(got.margin, want.margin, label)
                    self.assertEqual(got.norm, want.norm, label)
                    self.assertEqual(got.iterations, want.iterations, label)
                    if want.state == DISJOINT:
                        np.testing.assert_array_equal(got.certificate, want.certificate, label)
                    elif want.state == INTERSECTING:
                        np.testing.assert_array_equal(got.witness[0], want.witness[0], label)
                        np.testing.assert_array_equal(got.witness[1], want.witness[1], label)
                    seen.add(want.state)
                    if want.state != INDETERMINATE:
                        e1, e2 = Ellipsoid(scales[i] * c1[p], b1[p]), Ellipsoid(scales[i] * c2[p], b2[p])
                        assert_checked(self, want, e1, e2)
        self.assertEqual(seen, {DISJOINT, INTERSECTING})

    def test_touching_pair_among_pairs_decided_earlier(self):
        # four 3-d pairs of flat bodies, all of rank 2: the centre line decides
        # discs 10 apart, the residual discs in parallel planes, lam two thin
        # ellipses, and the last pair touches; whiten keeps the decided pairs
        # in the stack and maximizes the three it decomposed once, reading lam
        # and the witness at the maximizer
        flat = np.diag([1.0, 1.0, 0.0])
        c1 = np.zeros((4, 3))
        c2 = np.array([[10.0, 0.0, 0.0], [10.0, 0.0, 1.0], [5.0, 1.0, 0.0], [-4.3125, 0.0, 0.0]])
        thin = np.diag([10.0, 0.1, 0.0])
        b1 = np.stack([flat, 100.0 * flat, thin, 1.8125 * flat])
        b2 = np.stack([flat, 100.0 * flat, thin, 2.5 * flat])
        alone = [_decide_stack(c1[[p]], c2[[p]], b1[[p]], b2[[p]], (1.0,)) for p in range(4)]
        # centre line; residual (no evaluation of f); lam; the witness at the maximizer
        self.assertEqual([a.decomposed[0] for a in alone], [False, True, True, True])
        verdicts = [a.verdict(0, 0) for a in alone]
        self.assertEqual([v.state for v in verdicts], [DISJOINT] * 3 + [INTERSECTING])
        self.assertEqual(verdicts[1].iterations, 0)
        self.assertGreater(verdicts[2].iterations, 0)
        self.assertAlmostEqual(verdicts[3].norm, 1.0, places=12)
        maximize, rows = separation._maximize, []

        def spy(mu, v2):
            rows.append(len(mu))
            return maximize(mu, v2)

        for order in itertools.permutations(range(4)):
            order = list(order)
            del rows[:]
            with mock.patch.object(separation, "_maximize", spy):
                stack = _decide_stack(c1[order], c2[order], b1[order], b2[order], (1.0,))
            # one maximization, of the three decomposed pairs
            self.assertEqual(rows, [3], order)
            for at, p in enumerate(order):
                self.assertEqual(stack.decomposed[at], alone[p].decomposed[0])
                got = stack.verdict(at, 0)
                self.assertEqual(_json_value(got), _json_value(verdicts[p]), (order, p))
                assert_checked(self, got, Ellipsoid(c1[p], b1[p]), Ellipsoid(c2[p], b2[p]))

    def test_scales_are_validated(self):
        c, b = np.zeros((1, 2)), np.eye(2)[None]
        for scales in ((-1.0,), (math.inf,), (math.nan,)):
            with self.assertRaises(ValueError):
                _decide_stack(c, c + 1.0, b, b, scales)
        with self.assertRaisesRegex(ValueError, "overflow"):
            _decide_stack(c + 1e300, c, b, b, (1e10,))


def scale_pairs(s):
    """Two pairs at scale s, whose squared sizes leave double range at 1e+-160.

    ``overlapping``: equal shapes diag(s, 1, 1) centred at s e_0 and 0 (a
    gap of s against an axis pull of 2s). ``apart``: unit balls scaled by
    s with centres 3s apart.
    """
    shape = np.diag([s, 1.0, 1.0])
    return {
        "overlapping": (Ellipsoid([s, 0.0, 0.0], shape), Ellipsoid(np.zeros(3), shape)),
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


# pairs whose centres outweigh their shapes, or their gap, by more than the
# double range, with the verdict each must get
FAR_CENTRES = {
    "balls far apart": (ball([-1e300, 0.0], 1e-300), ball([1e300, 0.0], 1e-300), DISJOINT),
    "points beyond the largest gap": (ball([-1e308, 0.0], 0.0), ball([1e308, 0.0], 0.0),
                                      DISJOINT),
    "one ball twice, far out": (ball([1e300, 0.0], 1e-300), ball([1e300, 0.0], 1e-300),
                                INTERSECTING),
    # the gap 3e-300 exceeds the radii's sum 2e-300
    "a small gap far out": (ball([1e300, 0.0], 1e-300), ball([1e300, 3e-300], 1e-300),
                            DISJOINT),
    "points a subnormal apart": (ball([0.0], 0.0), ball([1e-310], 0.0), DISJOINT),
}


class TestFarCentres(unittest.TestCase):
    def test_verdicts_are_checked(self):
        for name, (e1, e2, state) in FAR_CENTRES.items():
            with self.subTest(name):
                verdict = decide_disjoint(e1, e2)
                self.assertEqual(verdict.state, state)
                assert_checked(self, verdict, e1, e2)
                swapped = decide_disjoint(e2, e1)
                self.assertEqual(swapped.state, state)
                assert_checked(self, swapped, e2, e1)

    def test_small_gap_keeps_its_margin(self):
        e1, e2, _ = FAR_CENTRES["a small gap far out"]
        verdict = decide_disjoint(e1, e2)
        np.testing.assert_array_equal(verdict.certificate, [0.0, 1.0])
        self.assertAlmostEqual(verdict.margin / 1e-300, 1.0, places=12)
        self.assertAlmostEqual(verdict.norm, 1.5, places=12)


if __name__ == "__main__":
    unittest.main()
