import csv
import json
import tempfile
import unittest
from pathlib import Path

import numpy as np

from projsep._rng import substream
from projsep.bodies import CircularCone, Ellipsoid, make_ellipsoid
from projsep.experiments import (
    CONE_KIND,
    ELLIPSOID_GENERAL_KIND,
    ELLIPSOID_HYPERPLANE_KIND,
    PhaseGrid,
    estimate_transition,
    meta_path,
    run_cone_phase,
    run_ellipsoid_phase,
    sample_wishart_shape,
    save_phase_grid,
)
from projsep.separation import DISJOINT, INDETERMINATE, decide_disjoint, nullspace_avoids_cone


SEEDS = (0, 1, 2)


def cone_reference(n, alphas, ms, trials, seed):
    """Cone-sweep cells counted with ``nullspace_avoids_cone`` on each prefix."""
    axis = np.eye(n)[0]
    counts = np.zeros((len(alphas), len(ms)), dtype=np.int64)
    for t in range(trials):
        matrix = substream(seed, CONE_KIND, t).standard_normal((ms[-1], n))
        for i, alpha in enumerate(alphas):
            for j, m in enumerate(ms):
                check = nullspace_avoids_cone(matrix[:m], CircularCone(axis, alpha))
                counts[i, j] += bool(check)
    return counts


def ellipsoid_reference(n, zetas, ms, trials, seed, variant):
    """Ellipsoid-sweep cells by a linear scan of ``decide_disjoint`` over every M.

    Returns the Disjoint counts, the Indeterminate counts and the
    unprojected Disjoint count per gap.
    """
    kind = ELLIPSOID_GENERAL_KIND if variant == "general" else ELLIPSOID_HYPERPLANE_KIND
    axis = np.eye(n)[0]
    constrained = axis if variant == "hyperplane" else None
    disjoint = np.zeros((len(zetas), len(ms)), dtype=np.int64)
    indeterminate = np.zeros_like(disjoint)
    preprojection = [0] * len(zetas)
    for t in range(trials):
        rng = substream(seed, kind, t)
        shape1 = sample_wishart_shape(n, rng, constrained_axis=constrained)
        shape2 = sample_wishart_shape(n, rng, constrained_axis=constrained)
        matrix = rng.standard_normal((ms[-1], n))
        for i, zeta in enumerate(zetas):
            c1 = 0.5 * zeta * axis
            pre = decide_disjoint(make_ellipsoid(c1, shape1), make_ellipsoid(-c1, shape2))
            preprojection[i] += pre.state == DISJOINT
            for j, m in enumerate(ms):
                rows = matrix[:m]
                verdict = decide_disjoint(
                    Ellipsoid(rows @ c1, rows @ shape1), Ellipsoid(-(rows @ c1), rows @ shape2)
                )
                disjoint[i, j] += verdict.state == DISJOINT
                indeterminate[i, j] += verdict.state == INDETERMINATE
    return disjoint, indeterminate, preprojection


def grid_from_ratios(ms, ratios, trials=100):
    successes = np.asarray([[int(round(r * trials)) for r in ratios]])
    return PhaseGrid(
        axis1=(0.5,),
        axis2=tuple(ms),
        trials=trials,
        successes=successes,
        indeterminate=np.zeros_like(successes),
        meta={},
    )


class TestRunConePhase(unittest.TestCase):
    def test_narrow_cone_escapes_low_dimension(self):
        # alpha ~ 0 means width^2 ~ 1; a handful of rows suffices
        grid = run_cone_phase(20, [0.01], [4], trials=40, seed=1)
        self.assertGreaterEqual(grid.success_ratio[0, 0], 0.95)
        np.testing.assert_array_equal(grid.indeterminate, 0)

    def test_half_space_needs_full_rank(self):
        # alpha = pi/2 puts v or -v in the cone for every kernel vector, so
        # only the square map (trivial kernel) can succeed
        grid = run_cone_phase(12, [np.pi / 2], [6, 11, 12], trials=25, seed=2)
        ratios = grid.success_ratio[0]
        self.assertEqual(ratios[0], 0.0)
        self.assertEqual(ratios[1], 0.0)
        self.assertEqual(ratios[2], 1.0)

    def test_deterministic(self):
        a = run_cone_phase(10, [0.3, 0.8], [2, 5, 8], trials=10, seed=7)
        b = run_cone_phase(10, [0.3, 0.8], [2, 5, 8], trials=10, seed=7)
        np.testing.assert_array_equal(a.successes, b.successes)

    def test_cells_count_the_reference_test_on_row_prefixes(self):
        n, alphas = 8, (0.3, 0.8, 1.2, np.pi / 2)
        for seed in SEEDS:
            for ms in (tuple(range(1, n + 1)), (2, 3, 5)):
                grid = run_cone_phase(n, alphas, ms, trials=6, seed=seed)
                reference = cone_reference(n, alphas, ms, 6, seed)
                np.testing.assert_array_equal(grid.successes, reference, f"seed {seed}, ms {ms}")

    def test_shared_cells_do_not_depend_on_the_grid(self):
        n, alphas = 9, (0.4, 0.9, 1.3)
        for seed in SEEDS:
            full = run_cone_phase(n, alphas, range(1, n + 1), trials=8, seed=seed)
            for ms in ((2, 5, n), (2, 5)):
                part = run_cone_phase(n, alphas, ms, trials=8, seed=seed)
                shared = full.successes[:, [m - 1 for m in ms]]
                np.testing.assert_array_equal(part.successes, shared, f"seed {seed}, ms {ms}")

    def test_ms_must_increase(self):
        with self.assertRaises(ValueError):
            run_cone_phase(10, [0.3], [5, 5], trials=2, seed=0)
        with self.assertRaises(ValueError):
            run_cone_phase(10, [0.3], [5, 11], trials=2, seed=0)


class TestSampleWishartShape(unittest.TestCase):
    def test_symmetric_psd(self):
        for seed in range(100):
            shape = sample_wishart_shape(8, seed)
            np.testing.assert_allclose(shape, shape.T, atol=1e-12)
            eigs = np.linalg.eigvalsh(shape)
            self.assertGreaterEqual(eigs.min(), -1e-10)

    def test_trace_scale(self):
        # E trace(X X^T) = n^2 for an n x n standard normal X
        n = 20
        traces = [np.trace(sample_wishart_shape(n, seed)) for seed in range(1000)]
        self.assertAlmostEqual(np.mean(traces), n * n, delta=0.05 * n * n)

    def test_constrained_axis_annihilated(self):
        for axis in (np.eye(6)[0], -np.eye(6)[3]):
            shape = sample_wishart_shape(6, 3, constrained_axis=axis)
            np.testing.assert_array_equal(shape @ axis, np.zeros(6))
            self.assertEqual(np.linalg.matrix_rank(shape), 5)

    def test_non_basis_axis_rejected(self):
        rng = np.random.default_rng(4)
        axis = rng.standard_normal(6)
        for bad in (axis / np.linalg.norm(axis), 2.0 * np.eye(6)[1], np.zeros(6)):
            with self.assertRaises(ValueError):
                sample_wishart_shape(6, 5, constrained_axis=bad)

    def test_generator_input(self):
        rng = np.random.default_rng(9)
        shape = sample_wishart_shape(4, rng)
        self.assertEqual(shape.shape, (4, 4))


class TestRunEllipsoidPhase(unittest.TestCase):
    def test_full_rank_projection_preserves_disjointness(self):
        grid = run_ellipsoid_phase(6, [80.0], [6], trials=10, seed=11)
        self.assertGreaterEqual(grid.success_ratio[0, 0], 0.95)
        self.assertEqual(grid.meta["preprojection_disjoint"][0], 10)

    def test_zero_gap_never_succeeds(self):
        grid = run_ellipsoid_phase(5, [0.0], [5], trials=8, seed=12)
        self.assertEqual(grid.successes[0, 0], 0)
        self.assertIsNone(grid.meta["mean_sq_bound"][0])

    def test_hyperplane_variant_annihilates_axis(self):
        grid = run_ellipsoid_phase(
            6, [8.0], [3], trials=5, seed=13, variant="hyperplane"
        )
        self.assertEqual(grid.meta["variant"], "hyperplane")
        self.assertEqual(grid.meta["preprojection_disjoint"][0], 5)

    def test_deterministic(self):
        a = run_ellipsoid_phase(5, [6.0, 20.0], [2, 4], trials=4, seed=14)
        b = run_ellipsoid_phase(5, [6.0, 20.0], [2, 4], trials=4, seed=14)
        np.testing.assert_array_equal(a.successes, b.successes)
        np.testing.assert_array_equal(a.indeterminate, b.indeterminate)

    def test_cells_match_a_linear_scan_over_every_m(self):
        # success is a step in M, so bisection finds what a scan of every M finds
        n, zetas, ms = 6, (0.0, 4.0, 10.0, 25.0), tuple(range(1, 7))
        for variant in ("general", "hyperplane"):
            for seed in SEEDS:
                label = f"{variant}, seed {seed}"
                grid = run_ellipsoid_phase(n, zetas, ms, trials=5, seed=seed, variant=variant)
                disjoint, indeterminate, pre = ellipsoid_reference(
                    n, zetas, ms, 5, seed, variant
                )
                np.testing.assert_array_equal(grid.successes, disjoint, label)
                self.assertEqual(int(indeterminate.sum()), 0, label)
                self.assertEqual(int(grid.indeterminate.sum()), 0, label)
                if variant == "general":
                    self.assertEqual(grid.meta["preprojection_disjoint"], pre, label)

    def test_shared_cells_do_not_depend_on_the_grid(self):
        n, zetas = 7, (5.0, 12.0, 30.0)
        for variant in ("general", "hyperplane"):
            for seed in SEEDS:
                full = run_ellipsoid_phase(n, zetas, range(1, n + 1), 6, seed, variant=variant)
                for ms in ((2, 5, n), (2, 5)):
                    part = run_ellipsoid_phase(n, zetas, ms, 6, seed, variant=variant)
                    np.testing.assert_array_equal(
                        part.successes,
                        full.successes[:, [m - 1 for m in ms]],
                        f"{variant}, seed {seed}, ms {ms}",
                    )

    def test_variant_validated(self):
        with self.assertRaises(ValueError):
            run_ellipsoid_phase(5, [4.0], [2], trials=2, seed=0, variant="spherical")

    def test_max_iter_is_ignored(self):
        a = run_ellipsoid_phase(5, [3.0, 8.0], [2, 5], trials=4, seed=15)
        b = run_ellipsoid_phase(5, [3.0, 8.0], [2, 5], trials=4, seed=15, max_iter=1)
        np.testing.assert_array_equal(a.successes, b.successes)
        self.assertEqual(int(b.indeterminate.sum()), 0)
        self.assertFalse({"tol", "max_iter"} & set(b.meta))


class TestEstimateTransition(unittest.TestCase):
    def test_step_profile(self):
        ms = tuple(range(10, 25))
        ratios = [0.0 if m < 17 else 1.0 for m in ms]
        est = estimate_transition(grid_from_ratios(ms, ratios))[0]
        self.assertAlmostEqual(est.m_cross, 16.5, places=9)
        self.assertIsNone(est.flag)
        self.assertLessEqual(est.band[0], est.m_cross)
        self.assertGreaterEqual(est.band[1], est.m_cross)

    def test_all_success(self):
        est = estimate_transition(grid_from_ratios((3, 4, 5), [1.0, 1.0, 1.0]))[0]
        self.assertEqual(est.flag, "all-success")
        self.assertEqual(est.m_cross, 3)

    def test_all_failure(self):
        est = estimate_transition(grid_from_ratios((3, 4, 5), [0.0, 0.0, 0.0]))[0]
        self.assertEqual(est.flag, "all-failure")
        self.assertTrue(np.isnan(est.m_cross))

    def test_falling_row_is_rejected(self):
        # a row that falls as M grows cannot come from a coupled sweep
        with self.assertRaisesRegex(ValueError, "fall"):
            grid_from_ratios((5, 6, 7, 8, 9), [0.1, 0.4, 0.3, 0.8, 1.0])

    def test_level_respected(self):
        ms = tuple(range(10, 25))
        ratios = [0.0 if m < 17 else 1.0 for m in ms]
        est95 = estimate_transition(grid_from_ratios(ms, ratios), level=0.95)[0]
        est05 = estimate_transition(grid_from_ratios(ms, ratios), level=0.05)[0]
        self.assertGreaterEqual(est95.m_cross, est05.m_cross)

    def test_one_estimate_per_row(self):
        grid = PhaseGrid(
            axis1=(0.1, 0.2, 0.3),
            axis2=(2, 3),
            trials=10,
            successes=np.array([[0, 10], [0, 10], [10, 10]]),
            indeterminate=np.zeros((3, 2), dtype=np.int64),
            meta={},
        )
        estimates = estimate_transition(grid)
        self.assertEqual(len(estimates), 3)
        self.assertEqual(estimates[2].flag, "all-success")


class TestPhaseGridIO(unittest.TestCase):
    def test_round_trip(self):
        grid = run_cone_phase(8, [0.2, 0.9], [2, 4, 6], trials=5, seed=21)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "grid.csv"
            save_phase_grid(grid, path)
            with path.open(newline="") as handle:
                rows = list(csv.reader(handle))
            meta = json.loads(meta_path(path).read_text())
        self.assertEqual(rows[0], ["param", "M", "trials", "successes", "indeterminate"])
        cells = [(i, j) for i in range(len(grid.axis1)) for j in range(len(grid.axis2))]
        self.assertEqual(len(rows), 1 + len(cells))
        for (i, j), row in zip(cells, rows[1:]):
            self.assertAlmostEqual(float(row[0]), grid.axis1[i], places=6)
            self.assertEqual(
                [int(v) for v in row[1:]],
                [grid.axis2[j], grid.trials, grid.successes[i, j], grid.indeterminate[i, j]],
            )
        self.assertEqual(meta["kind"], grid.meta["kind"])

    def test_csv_is_deterministic(self):
        with tempfile.TemporaryDirectory() as tmp:
            p1, p2 = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
            save_phase_grid(run_cone_phase(6, [0.3], [2, 4], trials=4, seed=5), p1)
            save_phase_grid(run_cone_phase(6, [0.3], [2, 4], trials=4, seed=5), p2)
            self.assertEqual(p1.read_bytes(), p2.read_bytes())

    def test_shape_validation(self):
        with self.assertRaises(ValueError):
            PhaseGrid(
                axis1=(0.1,),
                axis2=(2, 3),
                trials=5,
                successes=np.zeros((2, 2), dtype=np.int64),
                indeterminate=np.zeros((1, 2), dtype=np.int64),
                meta={},
            )


if __name__ == "__main__":
    unittest.main()
