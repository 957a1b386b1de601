import tempfile
import unittest
from pathlib import Path

import numpy as np

from projsep.classify import (
    ARMIJO_SLOPE,
    DEFAULT_L2,
    Dataset,
    dataset_from_arrays,
    error_rate,
    load_dataset,
    run_pipeline,
    save_dataset,
    save_report,
    split,
    train_mlr,
    predict,
)
from projsep.pca import toy_two_balls


def two_ball_dataset(n=4, gap=3.0, samples=400, seed=1):
    center = np.zeros(n)
    center[0] = gap
    points = toy_two_balls(n, center, 1.0, samples=samples, seed=seed)
    return dataset_from_arrays(points.features, points.labels)


def mixture_dataset(classes=5, n=6, per_class=40, seed=3):
    """Overlapping Gaussian classes centred at 1.5 e_k."""
    rng = np.random.default_rng(seed)
    centers = 1.5 * np.eye(classes, n)
    labels = np.repeat(np.arange(classes), per_class)
    return Dataset(centers[labels] + rng.standard_normal((labels.size, n)), labels)


def line_dataset(count=200, seed=2):
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.uniform(-2.0, -0.5, count), rng.uniform(0.5, 2.0, count)])
    labels = np.repeat([0, 1], count)
    return Dataset(x[:, None], labels)


class TestDataset(unittest.TestCase):
    def test_sparse_labels_remapped(self):
        data = dataset_from_arrays([[0.0], [1.0], [2.0]], [2, 5, 2])
        self.assertEqual(data.n_classes, 2)
        np.testing.assert_array_equal(data.labels, [0, 1, 0])
        self.assertEqual(tuple(data.class_names), ("2", "5"))

    def test_inferred_labels_must_cover_range(self):
        with self.assertRaises(ValueError):
            Dataset(np.zeros((2, 1)), np.array([0, 2]))

    def test_explicit_n_classes_allows_gaps(self):
        data = Dataset(np.zeros((2, 1)), np.array([0, 2]), n_classes=3)
        self.assertEqual(data.n_classes, 3)

    def test_label_out_of_range(self):
        with self.assertRaises(ValueError):
            Dataset(np.zeros((2, 1)), np.array([0, 3]), n_classes=3)

    def test_needs_two_classes(self):
        with self.assertRaises(ValueError):
            Dataset(np.zeros((3, 1)), np.array([0, 0, 0]))


class TestDatasetIO(unittest.TestCase):
    def test_round_trip_exact(self):
        data = two_ball_dataset(samples=30)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "points.csv"
            save_dataset(data, path)
            back = load_dataset(path)
        np.testing.assert_array_equal(back.features, data.features)
        np.testing.assert_array_equal(back.labels, data.labels)
        self.assertEqual(back.class_names, data.class_names)

    def test_empty_file(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "empty.csv"
            path.write_text("")
            with self.assertRaises(ValueError):
                load_dataset(path)

    def test_header_required(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bad.csv"
            path.write_text("x0,x1\n0.0,1.0\n")
            with self.assertRaises(ValueError):
                load_dataset(path)

    def test_no_data_rows(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "onlyheader.csv"
            path.write_text("label,x0\n")
            with self.assertRaises(ValueError):
                load_dataset(path)


class TestSplit(unittest.TestCase):
    def test_half_of_four(self):
        data = Dataset(np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1]))
        train, test = split(data, 0.5, seed=3)
        self.assertEqual(train.features.shape[0], 2)
        self.assertEqual(test.features.shape[0], 2)
        merged = np.vstack([train.features, test.features])
        np.testing.assert_array_equal(
            np.sort(merged, axis=0), np.sort(data.features, axis=0)
        )

    def test_deterministic(self):
        data = two_ball_dataset(samples=50)
        a_train, a_test = split(data, 0.6, seed=4)
        b_train, b_test = split(data, 0.6, seed=4)
        np.testing.assert_array_equal(a_train.features, b_train.features)
        np.testing.assert_array_equal(a_test.labels, b_test.labels)

    def test_rounded_size(self):
        rng = np.random.default_rng(5)
        data = Dataset(
            rng.standard_normal((3481, 2)),
            rng.integers(0, 2, 3481),
            n_classes=2,
        )
        train, _ = split(data, 0.2, seed=6)
        self.assertEqual(train.features.shape[0], 696)

    def test_missing_class_rejected(self):
        # 3 classes but only 2 training slots: impossible for any seed
        data = Dataset(np.zeros((6, 1)), np.array([0, 0, 1, 1, 2, 2]))
        with self.assertRaises(ValueError):
            split(data, 1.0 / 3.0, seed=0)

    def test_preserves_class_count(self):
        data = Dataset(np.zeros((6, 1)), np.array([0, 0, 1, 1, 2, 2]))
        train, test = split(data, 0.67, seed=0)
        self.assertEqual(train.n_classes, 3)
        self.assertEqual(test.n_classes, 3)


class TestTrainMlr(unittest.TestCase):
    def test_separable_line(self):
        data = line_dataset()
        model = train_mlr(data)
        self.assertEqual(error_rate(model, data), 0.0)
        self.assertTrue(model.converged)

    def test_loss_trace_non_increasing(self):
        model = train_mlr(two_ball_dataset(samples=100))
        trace = np.asarray(model.loss_trace)
        self.assertTrue(np.all(np.diff(trace) <= 1e-12))

    def test_random_labels_near_chance(self):
        rng = np.random.default_rng(7)
        data = Dataset(
            rng.standard_normal((1000, 3)), rng.integers(0, 2, 1000), n_classes=2
        )
        model = train_mlr(data, max_iters=300)
        majority = max(np.bincount(data.labels)) / 1000.0
        self.assertAlmostEqual(error_rate(model, data), 1.0 - majority, delta=0.1)

    def test_single_class_rejected(self):
        data = Dataset(np.zeros((4, 1)), np.array([1, 1, 1, 1]), n_classes=2)
        with self.assertRaises(ValueError):
            train_mlr(data)

    def test_rounding_floor_stop_only_truncates(self):
        data = two_ball_dataset(samples=100)
        model = train_mlr(data, max_iters=2000, tol=0.0)
        k = len(model.loss_trace) - 1
        self.assertLess(k, 2000)
        self.assertFalse(model.converged)
        capped = train_mlr(data, max_iters=k, tol=0.0)
        np.testing.assert_array_equal(capped.weights, model.weights)
        self.assertEqual(capped.loss_trace, model.loss_trace)

    def test_predict_labels_in_range(self):
        data = two_ball_dataset(samples=60)
        model = train_mlr(data, max_iters=100)
        labels = predict(model, data.features)
        self.assertTrue(set(np.unique(labels)) <= {0, 1})


def referee_design(data):
    """The standardized features with a bias column, one row per sample."""
    mean = data.features.mean(axis=0)
    std = data.features.std(axis=0)
    scale = np.where(std > 1e-12, std, 1.0)
    standardized = (data.features - mean) / scale
    return np.hstack([standardized, np.ones((data.n_samples, 1))])


def referee_loss_grad(design, onehot, weights, l2):
    """Loss and gradient from scratch: logits of the weights, one-hot products."""
    logits = design @ weights.T
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    total = exp.sum(axis=1, keepdims=True)
    log_probs = logits - np.log(total)
    loss = -float((onehot * log_probs).sum()) / design.shape[0]
    penalty = weights.copy()
    penalty[:, -1] = 0.0
    loss += 0.5 * l2 * float((penalty[:, :-1] ** 2).sum())
    grad = ((exp / total) - onehot).T @ design / design.shape[0] + l2 * penalty
    return loss, grad


def referee_train(design, onehot, l2, max_iters):
    """Armijo gradient descent that evaluates loss and gradient at every trial.

    It has no rounding-floor stop, so it runs past the step where
    ``train_mlr`` stops, showing what those extra steps would have gained.
    """
    weights = np.zeros((onehot.shape[1], design.shape[1]))
    loss, grad = referee_loss_grad(design, onehot, weights, l2)
    trace = [loss]
    step = 1.0
    for _ in range(max_iters):
        grad_sq = float((grad**2).sum())
        step = min(step * 2.0, 1e6)
        for _ in range(60):
            candidate = weights - step * grad
            new_loss, new_grad = referee_loss_grad(design, onehot, candidate, l2)
            if new_loss <= loss - ARMIJO_SLOPE * step * grad_sq:
                break
            step *= 0.5
        else:
            break
        weights, loss, grad = candidate, new_loss, new_grad
        trace.append(loss)
    return weights, trace


class TestTrainMlrReferee(unittest.TestCase):
    """train_mlr against the plain loop that forms every trial's logits anew."""

    def check(self, data, steps=300):
        model = train_mlr(data, max_iters=steps, tol=0.0)
        design = referee_design(data)
        onehot = np.eye(data.n_classes)[data.labels]
        weights, trace = referee_train(design, onehot, DEFAULT_L2, steps)
        k = len(model.loss_trace) - 1
        self.assertLessEqual(k, steps)
        np.testing.assert_allclose(model.loss_trace, trace[: k + 1], rtol=1e-10)
        # the steps skipped at the rounding floor gain next to nothing
        self.assertGreaterEqual(trace[-1], model.loss_trace[-1] * (1.0 - 1e-12))
        np.testing.assert_array_equal(
            predict(model, data.features), np.argmax(design @ weights.T, axis=1)
        )
        # the loop carries its logits from step to step; they must not drift
        fresh = referee_loss_grad(design, onehot, model.weights, DEFAULT_L2)[0]
        self.assertAlmostEqual(model.loss_trace[-1] / fresh, 1.0, delta=1e-10)

    def test_two_balls(self):
        self.check(two_ball_dataset(samples=100))

    def test_five_class_mixture(self):
        self.check(mixture_dataset())


class TestRunPipeline(unittest.TestCase):
    def test_deterministic(self):
        data = two_ball_dataset()
        a = run_pipeline(data, 0.5, ["identity", "rp:2"], seed=8)
        b = run_pipeline(data, 0.5, ["identity", "rp:2"], seed=8)
        self.assertEqual([r.error for r in a], [r.error for r in b])

    def test_label_permutation_equivariance(self):
        data = two_ball_dataset()
        flipped = Dataset(
            data.features, 1 - data.labels, n_classes=2
        )
        base = run_pipeline(data, 0.5, ["identity"], seed=9)[0]
        swap = run_pipeline(flipped, 0.5, ["identity"], seed=9)[0]
        self.assertAlmostEqual(base.error, swap.error, delta=0.01)

    def test_global_rescale_invariance(self):
        # standardization absorbs a common positive scale
        data = two_ball_dataset()
        scaled = Dataset(1000.0 * data.features, data.labels, n_classes=2)
        base = run_pipeline(data, 0.5, ["identity"], seed=10)[0]
        big = run_pipeline(scaled, 0.5, ["identity"], seed=10)[0]
        self.assertAlmostEqual(base.error, big.error, delta=0.005)

    def test_full_rank_projection_close_to_identity(self):
        data = two_ball_dataset()
        reports = run_pipeline(data, 0.5, ["identity", "rp:4"], seed=11)
        self.assertLessEqual(abs(reports[0].error - reports[1].error), 0.05)

    def test_pca_single_direction_solves_two_balls(self):
        data = two_ball_dataset(gap=4.0)
        report = run_pipeline(data, 0.5, ["pca:1"], seed=12)[0]
        self.assertEqual(report.error, 0.0)

    def test_method_validation(self):
        data = two_ball_dataset(samples=20)
        with self.assertRaises(ValueError):
            run_pipeline(data, 0.5, ["rp:9"], seed=0)
        with self.assertRaises(ValueError):
            run_pipeline(data, 0.5, ["umap:2"], seed=0)
        with self.assertRaises(ValueError):
            run_pipeline(data, 0.5, ["rp:x"], seed=0)

    def test_report_round_trip(self):
        data = two_ball_dataset(samples=50)
        reports = run_pipeline(data, 0.5, ["identity", "pca:2"], seed=13)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "report.csv"
            save_report(reports, path)
            lines = path.read_text().strip().splitlines()
        self.assertEqual(lines[0], "method,M,seed,error,train_seconds")
        self.assertEqual(len(lines), 3)
        first = lines[1].split(",")
        self.assertEqual(first[0], "identity")
        self.assertEqual(float(first[3]), reports[0].error)


if __name__ == "__main__":
    unittest.main()
