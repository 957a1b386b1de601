import csv
import hashlib
import json
import math
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np

from projsep import experiments
from projsep._rng import substream
from projsep.bodies import Ellipsoid, GaussianProjection, _is_symmetric_psd
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
from projsep.separation import (
    DISJOINT,
    INDETERMINATE,
    _decide_stack,
    _factor_rows,
    decide_disjoint,
)
from test_separation import assert_checked


SEEDS = (0, 1, 2)


def null_axis_norm(matrix, axis):
    """Length of the axis' projection onto the null space of ``matrix``; 0 if it is trivial."""
    from scipy.linalg import null_space  # here, so that collecting the tests loads no scipy

    return np.linalg.norm(null_space(matrix).T @ axis)


def cone_reference(n, alphas, ms, trials, seed):
    """Cone-sweep outcomes per trial, each prefix's null space tested on its own.

    The null space misses the cone of half-angle alpha about the axis iff
    the axis' projection onto it is shorter than ``cos(alpha)``. Returns a
    boolean (trials, alphas, ms) array; its sum over trials is the grid.
    """
    axis = np.eye(n)[0]
    outcomes = np.zeros((trials, len(alphas), len(ms)), dtype=bool)
    for t in range(trials):
        matrix = substream(seed, CONE_KIND, t).standard_normal((ms[-1], n))
        for j, m in enumerate(ms):
            norm = null_axis_norm(matrix[:m], axis)
            outcomes[t, :, j] = [norm < math.cos(alpha) for alpha in alphas]
    return outcomes


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
            pre = decide_disjoint(Ellipsoid(c1, shape1), Ellipsoid(-c1, shape2))
            preprojection[i] += pre.state == DISJOINT
            for j, m in enumerate(ms):
                rows = matrix[:m]
                verdict = decide_disjoint(
                    Ellipsoid(rows @ c1, rows @ shape1), Ellipsoid(-(rows @ c1), rows @ shape2)
                )
                disjoint[i, j] += verdict.state == DISJOINT
                indeterminate[i, j] += verdict.state == INDETERMINATE
    return disjoint, indeterminate, preprojection


def sweep_draws(n, ms, trials, seed, variant):
    """Each trial's projected half axis and shape images, drawn as the ellipsoid sweep draws them.

    Returns ``halves`` (trials, ms[-1]) and ``images1`` and ``images2``
    (trials, ms[-1], n), the arrays that ``experiments._bisect`` takes.
    """
    kind = ELLIPSOID_GENERAL_KIND if variant == "general" else ELLIPSOID_HYPERPLANE_KIND
    axis = np.eye(n)[0]
    constrained = axis if variant == "hyperplane" else None
    draws = []
    for t in range(trials):
        rng = substream(seed, kind, t)
        shape1, shape2 = (sample_wishart_shape(n, rng, constrained_axis=constrained) for _ in range(2))
        matrix = rng.standard_normal((ms[-1], n))
        draws.append((0.5 * (matrix @ axis), matrix @ shape1, matrix @ shape2))
    return tuple(np.array(arrays) for arrays in zip(*draws))


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
                reference = cone_reference(n, alphas, ms, 6, seed).sum(axis=0)
                np.testing.assert_array_equal(grid.successes, reference, f"seed {seed}, ms {ms}")

    def test_shared_cells_do_not_depend_on_the_grid(self):
        n, alphas = 9, (0.4, 0.9, 1.3)
        for seed in SEEDS:
            full = run_cone_phase(n, alphas, range(1, n + 1), trials=8, seed=seed)
            for ms in ((2, 5, n), (2, 5)):
                part = run_cone_phase(n, alphas, ms, trials=8, seed=seed)
                shared = full.successes[:, [m - 1 for m in ms]]
                np.testing.assert_array_equal(part.successes, shared, f"seed {seed}, ms {ms}")

    def test_edge_geometries_match_the_reference(self):
        # R is n x (n + 1) when ms[-1] = n and square of order ms[-1] + 1 otherwise
        alphas = (0.2, 0.8, 1.3, np.pi / 2)
        for n, ms in (
            (1, (1,)),
            (2, (1,)),
            (2, (1, 2)),
            (6, (1, 2, 3, 4, 5)),
            (6, (5,)),
            (30, (1, 7, 19)),
            (30, (3, 29)),
        ):
            for seed in SEEDS:
                label = f"n {n}, ms {ms}, seed {seed}"
                outcomes = cone_reference(n, alphas, ms, 5, seed)
                # each trial's success is a step in M
                self.assertTrue(np.all(np.diff(outcomes.astype(int), axis=2) >= 0), label)
                grid = run_cone_phase(n, alphas, ms, trials=5, seed=seed)
                np.testing.assert_array_equal(grid.successes, outcomes.sum(axis=0), label)
                # every trial's least successful index, len(ms) for none
                least = len(ms) - outcomes.sum(axis=2)
                counts = [np.bincount(row, minlength=len(ms) + 1) for row in least.T]
                record = grid.meta["m_star"]
                self.assertEqual(record["histogram"], [c[:-1].tolist() for c in counts], label)
                self.assertEqual(record["none"], [int(c[-1]) for c in counts], label)

    def test_m_star_summarizes_each_trials_step(self):
        n, alphas, trials = 12, (0.3, 0.8, 1.2, np.pi / 2), 9
        ms = tuple(range(1, n + 1))
        grid = run_cone_phase(n, alphas, ms, trials, seed=4)
        record = grid.meta["m_star"]
        for i in range(len(alphas)):
            histogram = record["histogram"][i]
            np.testing.assert_array_equal(np.cumsum(histogram), grid.successes[i])
            self.assertEqual(sum(histogram) + record["none"][i], trials)
            values = np.repeat(ms, histogram)
            self.assertAlmostEqual(record["mean"][i], values.mean(), places=12)
            error = values.std(ddof=1) / math.sqrt(values.size)
            self.assertAlmostEqual(record["std_error"][i], error, places=12)
        # M = n always succeeds; a half-space needs it
        self.assertEqual(record["none"], [0] * len(alphas))
        self.assertEqual(record["histogram"][-1], [0] * (n - 1) + [trials])
        # a grid that stops short of n can leave trials with no M*
        part = run_cone_phase(n, alphas, (2, 5), trials, seed=4)
        self.assertEqual(part.meta["m_star"]["none"][-1], trials)
        self.assertIsNone(part.meta["m_star"]["mean"][-1])

    def test_ms_must_increase(self):
        increasing = "projected dimensions must be strictly increasing"
        for n, trials, ms, message in (
            (0, 2, [1], "ambient dimension out of range: expected >= 1, got 0"),
            (10, 0, [5], "trials out of range: expected >= 1, got 0"),
            (10, 2, [], "need at least one projected dimension"),
            (10, 2, [0, 1], "projected dimension out of range: expected >= 1, got 0"),
            (10, 2, [2, 1], increasing),
            (10, 2, [5, 5], increasing),
            (10, 2, [5, 11], "projected dimensions must not exceed the ambient dimension"),
        ):
            with self.subTest(n=n, trials=trials, ms=ms):
                with self.assertRaises(ValueError) as caught:
                    run_cone_phase(n, [0.3], ms, trials=trials, seed=0)
                self.assertEqual(str(caught.exception), message)

    def test_empty_angle_grid_is_rejected(self):
        with self.assertRaisesRegex(ValueError, "^empty grid: need at least one cone half-angle$"):
            run_cone_phase(5, [], [2, 5], trials=2, seed=0)


class TestConeReference(unittest.TestCase):
    def test_monte_carlo_oracle(self):
        # brute force: sample the kernel sphere densely and check whether
        # any kernel direction makes the cone angle with the axis
        from scipy.linalg import null_space

        rng = np.random.default_rng(10)
        n, alpha = 6, np.pi / 4
        axis = np.eye(n)[0]

        decided = 0
        for seed in range(30):
            matrix = GaussianProjection(3, n, seed=seed).entries
            kernel = null_space(matrix)
            u = rng.standard_normal((200_000, kernel.shape[1]))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            best_cos = (u @ (kernel.T @ axis)).max()
            if abs(best_cos - np.cos(alpha)) < 1e-2:
                continue
            decided += 1
            avoids = null_axis_norm(matrix, axis) < np.cos(alpha)
            self.assertEqual(avoids, bool(best_cos < np.cos(alpha)))
        self.assertGreaterEqual(decided, 25)


class TestSampleWishartShape(unittest.TestCase):
    def test_symmetric_psd(self):
        # the ellipsoid sweep bounds its draws' widths without checking them
        for n in (1, 2, 8, 25, 60):
            for axis in (None, -np.eye(n)[n // 2]):
                for seed in range(100):
                    shape = sample_wishart_shape(n, seed, constrained_axis=axis)
                    np.testing.assert_array_equal(shape, shape.T)
                    self.assertGreaterEqual(np.linalg.eigvalsh(shape).min(), -1e-10)
                    self.assertTrue(_is_symmetric_psd(shape), (n, axis is None, seed))

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

    def test_empty_gap_grid_is_rejected(self):
        for variant in ("general", "hyperplane"):
            with self.assertRaisesRegex(ValueError, "^empty grid: need at least one center gap$"):
                run_ellipsoid_phase(5, [], [2, 5], trials=2, seed=0, variant=variant)
        for n, zetas, message in (
            (1, [4.0], "ambient dimension out of range: expected >= 2, got 1"),
            (5, [-1.0], "center gap out of range: expected finite and >= 0, got -1.0"),
            (5, [4.0, math.inf], "center gap out of range: expected finite and >= 0, got inf"),
        ):
            with self.subTest(n=n, zetas=zetas):
                with self.assertRaises(ValueError) as caught:
                    run_ellipsoid_phase(n, zetas, [1], trials=2, seed=0)
                self.assertEqual(str(caught.exception), message)

    def test_variant_validated(self):
        with self.assertRaises(ValueError):
            run_ellipsoid_phase(5, [4.0], [2], trials=2, seed=0, variant="spherical")

    def test_max_iter_is_ignored(self):
        a = run_ellipsoid_phase(5, [3.0, 8.0], [2, 5], trials=4, seed=15)
        b = run_ellipsoid_phase(5, [3.0, 8.0], [2, 5], trials=4, seed=15, max_iter=1)
        np.testing.assert_array_equal(a.successes, b.successes)
        self.assertEqual(int(b.indeterminate.sum()), 0)
        self.assertFalse({"tol", "max_iter"} & set(b.meta))


class TestEllipsoidSweepRecord(unittest.TestCase):
    def test_verdicts_at_the_benchmark_geometry_are_checked(self):
        # every certificate and witness of every pair that the bisections
        # stacked, rechecked on that pair alone, and the grid against a scan
        # of every M
        n, zetas, ms, trials, seed = 40, (100.0, 200.0, 300.0, 400.0), tuple(range(1, 41)), 4, 2024
        decided = []  # per pair of each stack: (c1, c2, b1, b2, [(scale, verdict), ...])
        stacks = []

        def recording(c1, c2, b1, b2, scales, open_, factors):
            stack = _decide_stack(c1, c2, b1, b2, scales, open_, factors)
            stacks.append(stack)
            for p in range(len(c1)):
                verdicts = [(scales[i], stack.verdict(p, i)) for i in np.flatnonzero(open_[p])]
                decided.append((c1[p], c2[p], b1[p], b2[p], verdicts))
            return stack

        with mock.patch.object(experiments, "_decide_stack", recording):
            grid = run_ellipsoid_phase(n, zetas, ms, trials, seed, variant="hyperplane")
        for c1, c2, b1, b2, verdicts in decided:
            for t, verdict in verdicts:
                assert_checked(self, verdict, Ellipsoid(t * c1, b1), Ellipsoid(t * c2, b2))
        record = grid.meta["decisions"]
        self.assertEqual(record["calls"], len(decided))
        self.assertEqual(record["verdicts"], sum(len(entry[-1]) for entry in decided))
        self.assertEqual(record["decompositions"], sum(int(s.decomposed.sum()) for s in stacks))
        self.assertLessEqual(record["decompositions"], record["calls"])
        # the probes are distinct prefixes, so a trial makes at most len(ms) calls
        self.assertLessEqual(record["calls"], trials * len(ms))
        self.assertLess(record["calls"], record["verdicts"])
        # trials whose next probe is the same prefix share a stack
        self.assertLess(len(stacks), record["calls"])
        disjoint, indeterminate, _ = ellipsoid_reference(n, zetas, ms, trials, seed, "hyperplane")
        np.testing.assert_array_equal(grid.successes, disjoint)
        np.testing.assert_array_equal(grid.indeterminate, 0)
        np.testing.assert_array_equal(indeterminate, 0)

    def test_stack_grouping_does_not_change_a_grid(self):
        # each pair decided as a stack of one must give the same counts and
        # record, decisions included, as the stacks the sweep forms
        def one_by_one(c1, c2, b1, b2, scales, open_, factors):
            stacks = [_decide_stack(c1[p:p + 1], c2[p:p + 1], b1[p:p + 1], b2[p:p + 1],
                                    scales, open_[p:p + 1], tuple(a[p:p + 1] for a in factors))
                      for p in range(len(c1))]
            return SimpleNamespace(states=np.concatenate([s.states for s in stacks]),
                                   decomposed=np.concatenate([s.decomposed for s in stacks]))

        for name, ((n, zetas, trials, seed, variant), _, _) in PINNED_SWEEPS.items():
            args = (n, zetas, range(1, n + 1), trials, seed)
            stacked = run_ellipsoid_phase(*args, variant=variant)
            with mock.patch.object(experiments, "_decide_stack", one_by_one):
                alone = run_ellipsoid_phase(*args, variant=variant)
            np.testing.assert_array_equal(alone.successes, stacked.successes, name)
            np.testing.assert_array_equal(alone.indeterminate, stacked.indeterminate, name)
            for grid in (alone, stacked):
                del grid.meta["timestamp"]
            self.assertEqual(alone.meta, stacked.meta, name)

    def test_schedule_decides_the_largest_pending_prefix_first(self):
        n, zetas, trials, seed = 40, (100.0, 200.0, 300.0, 400.0), 21, 2024
        ms = tuple(range(1, n + 1))
        # each trial's projected half centre, which names its pairs
        halves = sweep_draws(n, ms, trials, seed, "hyperplane")[0]
        stacks = []  # per stack: its prefix and, per pair, (trial, open gaps, states)

        def recording(c1, c2, b1, b2, scales, open_, factors):
            stack = _decide_stack(c1, c2, b1, b2, scales, open_, factors)
            m = c1.shape[1]
            self.assertTrue(all(a.shape[1] == m for a in (c2, b1, b2)))
            pairs = []
            for p in range(len(c1)):
                (trial,) = np.flatnonzero((halves[:, :m] == c1[p]).all(axis=1))
                pairs.append((int(trial), open_[p].copy(), stack.states[p].copy()))
            stacks.append((m, pairs))
            return stack

        with mock.patch.object(experiments, "_decide_stack", recording):
            grid = run_ellipsoid_phase(n, zetas, ms, trials, seed, variant="hyperplane")
        # 76 when the bisections were decided one step at a time
        self.assertEqual(len(stacks), 36)
        self.assertEqual(sum(len(pairs) for _, pairs in stacks), grid.meta["decisions"]["calls"])
        # replay every trial's widest-bracket bisection on its own verdicts
        lo = np.zeros((trials, len(zetas)), dtype=np.int64)
        hi = np.full((trials, len(zetas)), len(ms))

        def next_probe(t):
            if np.all(lo[t] >= hi[t]):
                return None
            widest = np.argmax(hi[t] - lo[t])
            return (lo[t, widest] + hi[t, widest] - 1) // 2

        for m, pairs in stacks:
            members = [trial for trial, _, _ in pairs]
            self.assertEqual(len(set(members)), len(members))
            probes = {t: next_probe(t) for t in range(trials)}
            mid = max(probe for probe in probes.values() if probe is not None)
            # the stack is every unfinished trial whose next probe is the largest
            self.assertEqual(ms[mid], m)
            self.assertEqual(sorted(members), [t for t in range(trials) if probes[t] == mid])
            for trial, probed, states in pairs:
                np.testing.assert_array_equal(probed, (lo[trial] <= mid) & (mid < hi[trial]))
                disjoint = probed & (states == DISJOINT)
                hi[trial] = np.where(disjoint, mid, hi[trial])
                lo[trial] = np.where(probed & ~disjoint, mid + 1, lo[trial])
        self.assertTrue(all(next_probe(t) is None for t in range(trials)))
        successes = np.sum(np.arange(len(ms)) >= lo[:, :, None], axis=0)
        np.testing.assert_array_equal(grid.successes, successes)

    def test_m_star_summarizes_each_trials_step(self):
        n, zetas, trials = 8, (0.0, 4.0, 10.0, 25.0), 12
        ms = tuple(range(1, n + 1))
        grid = run_ellipsoid_phase(n, zetas, ms, trials, seed=3)
        record = grid.meta["m_star"]
        for i in range(len(zetas)):
            histogram, none = record["histogram"][i], record["none"][i]
            np.testing.assert_array_equal(np.cumsum(histogram), grid.successes[i])
            self.assertEqual(sum(histogram) + none, trials)
            values = np.repeat(ms, histogram)
            if values.size == 0:
                self.assertIsNone(record["mean"][i])
                continue
            self.assertAlmostEqual(record["mean"][i], values.mean(), places=12)
            if none == 0:
                # E M* = sum over M < n of P(M* > M), the failure ratio at M
                failures = 1.0 + np.sum(1.0 - grid.success_ratio[i, :-1])
                self.assertAlmostEqual(record["mean"][i], failures, places=12)
            if values.size > 1:
                error = values.std(ddof=1) / math.sqrt(values.size)
                self.assertAlmostEqual(record["std_error"][i], error, places=12)
        self.assertEqual(record["none"][0], trials)
        self.assertIsNone(record["mean"][0])

    def test_grid_subset_records_the_least_m_of_the_grid(self):
        grid = run_ellipsoid_phase(7, (12.0,), (2, 5, 7), 6, seed=1, variant="hyperplane")
        record = grid.meta["m_star"]
        np.testing.assert_array_equal(np.cumsum(record["histogram"][0]), grid.successes[0])
        self.assertEqual(len(record["histogram"][0]), 3)


# (n, gaps, trials, seed, variant): the CI sweep in both variants and the
# benchmark geometry at three seeds
BISECT_GEOMETRIES = (
    (12, (10.0, 20.0, 40.0), 6, 7, "hyperplane"),
    (12, (10.0, 20.0, 40.0), 6, 7, "general"),
    *((40, (100.0, 200.0, 300.0, 400.0), 21, seed, "hyperplane") for seed in (2024, 1, 2)),
)


class TestBisectRelations(unittest.TestCase):
    """``_bisect`` is a function of its draws, and metamorphic relations hold on it.

    Each relation maps a trial's projected pairs to pairs that are disjoint
    exactly when the originals are, at every prefix, so no trial's least
    disjoint index may move. Scaling by a power of two is exact in floating
    point and must give the same indices and record. The other relations
    round differently. Where a trial moves under one, each side's pair at
    every prefix between the two indices is decided alone: its verdict must
    pass ``assert_checked`` and be the one that side's index implies, so
    the move is a verdict within rounding of tangency.
    """

    def assert_same_least(self, label, gaps, ms, draws, least, moved_draws):
        moved_least, indeterminate, _ = experiments._bisect(*moved_draws, gaps, ms)
        self.assertEqual(int(indeterminate.sum()), 0, label)
        for t, i in zip(*np.nonzero(moved_least != least)):
            for j in range(min(least[t, i], moved_least[t, i]), max(least[t, i], moved_least[t, i])):
                for (halves, images1, images2), side in ((draws, least), (moved_draws, moved_least)):
                    c = gaps[i] * halves[t, :ms[j]]
                    e1, e2 = Ellipsoid(c, images1[t, :ms[j]]), Ellipsoid(-c, images2[t, :ms[j]])
                    verdict = decide_disjoint(e1, e2)
                    assert_checked(self, verdict, e1, e2)
                    self.assertEqual(verdict.state == DISJOINT, j >= side[t, i], label)

    def test_bisect_reproduces_the_sweep_without_drawing(self):
        for n, zetas, trials, seed, variant in BISECT_GEOMETRIES:
            label = f"n {n}, seed {seed}, {variant}"
            ms = tuple(range(1, n + 1))
            grid = run_ellipsoid_phase(n, zetas, ms, trials, seed, variant=variant)
            draws = sweep_draws(n, ms, trials, seed, variant)
            with mock.patch.object(experiments, "substream", side_effect=AssertionError("drew")):
                least, indeterminate, record = experiments._bisect(*draws, np.array(zetas), ms)
            self.assertEqual(least.shape, (trials, len(zetas)), label)
            successes = np.sum(np.arange(len(ms)) >= least.T[:, :, None], axis=1)
            np.testing.assert_array_equal(successes, grid.successes, label)
            np.testing.assert_array_equal(indeterminate, grid.indeterminate, label)
            if variant == "hyperplane":  # the general sweep also decides its unprojected pairs
                self.assertEqual(record, grid.meta["decisions"], label)

    def test_relations_keep_every_trials_least_index(self):
        for n, zetas, trials, seed, variant in BISECT_GEOMETRIES:
            ms, gaps = tuple(range(1, n + 1)), np.array(zetas)
            draws = halves, images1, images2 = sweep_draws(n, ms, trials, seed, variant)
            least, _, record = experiments._bisect(*draws, gaps, ms)
            for power in (-600, 7, 300):
                scaled = tuple(np.ldexp(a, power) for a in draws)
                self.assertTrue(all(np.all(np.ldexp(a, -power) == b) for a, b in zip(scaled, draws)))
                scaled_least, _, scaled_record = experiments._bisect(*scaled, gaps, ms)
                label = f"n {n}, seed {seed}, {variant}, 2**{power}"
                np.testing.assert_array_equal(scaled_least, least, label)
                self.assertEqual(scaled_record, record, label)
            rng = np.random.default_rng(seed)
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            lower = np.tril(rng.standard_normal((ms[-1], ms[-1])), -1) / np.sqrt(ms[-1])
            lower += np.diag(rng.uniform(0.5, 2.0, ms[-1]))
            relations = {
                # the bodies swapped, so the first is centred at -zeta * halves
                "swap": (-halves, images2, images1),
                # B Q maps the unit ball onto the set that B does
                "rotation": (halves, images1 @ q, images2 @ q),
                # a prefix of L x is L's leading block times x's prefix
                "lower-triangular": (halves @ lower.T, lower @ images1, lower @ images2),
            }
            for name, moved in relations.items():
                self.assert_same_least(f"n {n}, seed {seed}, {variant}, {name}", gaps, ms,
                                       draws, least, moved)


class TestBisectWhitening(unittest.TestCase):
    """``_bisect`` whitens each prefix from its trial's QR where the pivots
    are safe, and by a thin SVD where they are not; both decide alike."""

    def test_one_qr_whitens_every_prefix(self):
        # R_M^-T times the first M rows is Q_M': orthonormal rows, at any scale
        rng = np.random.default_rng(4)
        b1, b2 = rng.standard_normal((3, 9, 5)), rng.standard_normal((3, 9, 6))
        both = np.concatenate((b1, b2), axis=-1)
        for power in (-600, 0, 600):
            rows, inverse, exps, safe = _factor_rows(np.ldexp(b1, power), np.ldexp(b2, power))
            np.testing.assert_array_equal(safe, 9)
            units = np.ldexp(both, (power - exps)[:, None, None])
            for m in range(1, 10):
                whitened = inverse[:, :m, :m].swapaxes(-1, -2) @ units[:, :m]
                np.testing.assert_allclose(whitened, rows[:, :m], rtol=0, atol=1e-13)
                np.testing.assert_allclose(rows[:, :m] @ rows[:, :m].swapaxes(-1, -2),
                                           np.broadcast_to(np.eye(m), (3, m, m)), rtol=0, atol=1e-13)

    def test_svd_path_decides_every_geometry_alike(self):
        def unsafe(b1, b2):
            *factors, safe = _factor_rows(b1, b2)
            return (*factors, np.zeros_like(safe))

        for n, zetas, trials, seed, variant in BISECT_GEOMETRIES:
            label = f"n {n}, seed {seed}, {variant}"
            ms, gaps = tuple(range(1, n + 1)), np.array(zetas)
            draws = sweep_draws(n, ms, trials, seed, variant)
            with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
                fast = experiments._bisect(*draws, gaps, ms)
            # no prefix of these geometries needs the SVD path
            self.assertEqual(svd.call_count, 0, label)
            with mock.patch.object(experiments, "_factor_rows", unsafe), \
                    mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
                slow = experiments._bisect(*draws, gaps, ms)
            self.assertGreater(svd.call_count, 0, label)
            np.testing.assert_array_equal(fast[0], slow[0], label)
            np.testing.assert_array_equal(fast[1], slow[1], label)
            self.assertEqual(fast[2], slow[2], label)

    def test_rank_deficient_prefix_takes_the_svd_path(self):
        # at M = n both hyperplane shapes annihilate the projected axis, so a
        # trial's last R pivot is rounding; a small gap makes the bisections
        # probe that prefix, where only d's part outside the range separates
        n, zetas, trials, seed = 12, (0.05,), 6, 7
        ms, gaps = tuple(range(1, n + 1)), np.array(zetas)
        draws = sweep_draws(n, ms, trials, seed, "hyperplane")
        np.testing.assert_array_equal(_factor_rows(*draws[1:])[-1], n - 1)
        decided = []

        def recording(c1, c2, b1, b2, scales, open_, factors):
            stack = _decide_stack(c1, c2, b1, b2, scales, open_, factors)
            decided.append((c1, c2, b1, b2, scales, open_, factors[-1], stack))
            return stack

        with mock.patch.object(experiments, "_decide_stack", recording), \
                mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            least, indeterminate, _ = experiments._bisect(*draws, gaps, ms)
        self.assertGreater(svd.call_count, 0)
        self.assertTrue(all(call.args[0].shape[1] == n for call in svd.call_args_list))
        full = [entry for entry in decided if entry[0].shape[1] == n]
        self.assertTrue(full)
        for c1, c2, b1, b2, scales, open_, safe, stack in full:
            self.assertFalse(safe.any())
            for p, i in zip(*np.nonzero(open_)):
                verdict = stack.verdict(p, i)
                self.assertEqual(verdict.state, DISJOINT)
                assert_checked(self, verdict, Ellipsoid(scales[i] * c1[p], b1[p]),
                               Ellipsoid(scales[i] * c2[p], b2[p]))
        self.assertEqual(int(np.sum(least == n - 1)), sum(int(entry[5].sum()) for entry in full))
        self.assertEqual(int(indeterminate.sum()), 0)


# SHA-256 of the CSV and of the timestamp-free .meta.json that save_phase_grid
# writes for three sweeps: the CI sweep in both variants and the benchmark
# geometry with 4 trials. (n, gaps, trials, seed, variant), CSV, meta.
PINNED_SWEEPS = {
    "ci-hyperplane": (
        (12, (10.0, 20.0, 40.0), 6, 7, "hyperplane"),
        "396018c1867d9e6a02570f3df6c9b40fcaa5be062eaa5b55c822120a7ce2ea35",
        "ed7d720e5b0642aa09a1798e7c54b6946fed195e36a73bc8794d958256ec1d0e",
    ),
    "ci-general": (
        (12, (10.0, 20.0, 40.0), 6, 7, "general"),
        "fb98f4169892fb5caa564c0728fa9d82f34974e7ad3681619e48aaf909a61f52",
        "be3c9bc16021b55a4fd11a06f0ce4a65cc5251be664bf1222b86141f177304c8",
    ),
    "benchmark": (
        (40, (100.0, 200.0, 300.0, 400.0), 4, 2024, "hyperplane"),
        "7cbaeb90677326a0e3b35b61dd683320169ba3e95a5f6e0d32b5655c8cd28e23",
        "a0289e5a40af6d367cc340b95b9947a2f9aaa2262029d3e7677ad30fceeac164",
    ),
}


# SHA-256 of the CSV and of the timestamp-free .meta.json that save_phase_grid
# writes for three cone sweeps over every M: the CI sweep, the benchmark
# geometry and criterion 1. (n, half-angles, trials, seed), CSV, meta.
PINNED_CONE_SWEEPS = {
    "ci": (
        (12, (0.3, 0.8, 1.2), 6, 7),
        "f4d85e58465181d72a968392768222f617aa6819cd1860be0d28d221f798542f",
        "4aa9c11b8e62227e4d87e78d8daa3bc064b895b29fa023e73dd6ee519df643ab",
    ),
    "benchmark": (
        (100, (math.pi / 8, math.pi / 4, 3 * math.pi / 8), 50, 1),
        "6f83bfd03d553f0bd1f41607a746d7fa97a840c7999754c90d14285e4c61d391",
        "3674c2e88b1ff9e4842a86a2d5c711bce6f9b4d56ce8ba9e621440689110efce",
    ),
    "criterion-1": (
        (100, (math.pi / 8, math.pi / 4, 3 * math.pi / 8), 100, 1234),
        "7a8c1141db23112603cef023eab086db0fd767e0bcaadd56fa76dba330633134",
        "e6fe4176cc721d7ee778bae8f3e793aae3345ab31f07448f5035aa13a5bd602b",
    ),
}


def without_timestamp(data: bytes) -> bytes:
    return b"".join(
        line for line in data.splitlines(keepends=True)
        if not line.lstrip().startswith(b'"timestamp"')
    )


class TestPinnedSweeps(unittest.TestCase):
    def test_sweep_files_keep_their_bytes(self):
        # the files are the sweep's output: any change to a count, a bound,
        # an M* summary or the decision record changes a digest
        with tempfile.TemporaryDirectory() as tmp:
            for name, ((n, zetas, trials, seed, variant), csv_sha, meta_sha) in PINNED_SWEEPS.items():
                grid = run_ellipsoid_phase(n, zetas, range(1, n + 1), trials, seed, variant=variant)
                path = Path(tmp) / f"{name}.csv"
                save_phase_grid(grid, path)
                meta = without_timestamp(meta_path(path).read_bytes())
                self.assertEqual(hashlib.sha256(path.read_bytes()).hexdigest(), csv_sha, name)
                self.assertEqual(hashlib.sha256(meta).hexdigest(), meta_sha, name)

    def test_cone_sweep_files_keep_their_bytes(self):
        with tempfile.TemporaryDirectory() as tmp:
            for name, ((n, alphas, trials, seed), csv_sha, meta_sha) in PINNED_CONE_SWEEPS.items():
                grid = run_cone_phase(n, alphas, range(1, n + 1), trials, seed)
                path = Path(tmp) / f"cone-{name}.csv"
                save_phase_grid(grid, path)
                meta = without_timestamp(meta_path(path).read_bytes())
                self.assertEqual(hashlib.sha256(path.read_bytes()).hexdigest(), csv_sha, name)
                self.assertEqual(hashlib.sha256(meta).hexdigest(), meta_sha, name)


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
