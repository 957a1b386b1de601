import csv
import hashlib
import io
import tempfile
import unittest
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_each_fault_names_its_line(self):
        cases = {
            "label,f0,f1\n0,1,2\n1,3\n0,1,2\n": "line 3: expected 3 cells, got 2",
            "label,f0\n0,1\n1.0,2\n": "line 3: non-integer label '1.0'",
            "label,f0\n0,1\nx,2\n": "line 3: non-integer label 'x'",
            "label,f0,f1\n0,1,2\n1,3,abc\n": "line 3: non-numeric feature cell",
            "label,f0,f1\n0,1,2\n1,,4\n": "line 3: non-numeric feature cell",
            "label,f0\n0,1\n\n1,2\n": "line 3: expected 2 cells, got 0",
            "label,f0\r\n0,1\r\n\r\n1,2\r\n": "line 3: expected 2 cells, got 0",
            "label,f0\n0,1\n1,2\n\n": "line 4: expected 2 cells, got 0",
            "label,f0\n0,1\n  \n1,2\n": "line 3: expected 2 cells, got 1",
            'label,f0\n0,1\n1,"2,5"\n': "line 3: non-numeric feature cell",
            # a quoted line break continues the record: its lines count once
            'label,f0\n0,"1\n"\n1,2\n0,x\n': "line 4: non-numeric feature cell",
            "label,f0\n": "dataset file has no data rows",
            "label,f0\r\n": "dataset file has no data rows",
            "": "dataset file is empty",
            "x,f0\n0,1\n": "line 1: header must be label,f0,..., got ['x', 'f0']",
            "label,f0\n0,nan\n1,2\n": "features contain non-finite entries",
            # the csv-and-float reader this one replaced overflowed on these labels
            "label,f0\n0,1\n99999999999999999999999,2\n":
                "line 3: label '99999999999999999999999' is outside int64",
            "label,f0\n0,1\n1,2\n" + str(-(2**63) - 1) + ",3\n":
                f"line 4: label '{-(2**63) - 1}' is outside int64",
            # read record by record: an underscore, a quote, a character past ASCII
            "label,f0\n0,1\n1,2\n0,1_0\n1_0,x\n": "line 5: non-numeric feature cell",
            'label,f0\n0,1\n"1",2\n0,\u0661\n0,1\x1c\n': "line 5: non-numeric feature cell",
            # csv's field size limit, which used to escape as csv.Error
            "label,f" + "0" * 140000 + "\n0,1\n1,2\n":
                "line 1: field larger than field limit (131072)",
            "label,f0\n0,1\n1,2\n0," + "x" * 140000 + "\n":
                "line 4: field larger than field limit (131072)",
        }
        for text, message in cases.items():
            with self.subTest(text=text[:40]), tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "bad.csv"
                path.write_bytes(text.encode())
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    with self.assertRaises(ValueError) as raised:
                        load_dataset(path)
                self.assertEqual(str(raised.exception), message)
                self.assertEqual(caught, [])

    def test_quoted_cells_and_line_ends(self):
        texts = ['label,f0\n0,"1.5"\n"1",2\n', 'label,f0\r\n0,"1.5"\r\n"1",2\r\n',
                 "label,f0\n0,1.5\n1,2\n", "label,f0\r\n0,1.5\r\n1,2\r\n", "label,f0\r0,1.5\r1,2",
                 # a blank line within a quoted cell is no blank record
                 'label,f0\n0,"1.5\n\n"\n1,2\n']
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            for text in texts:
                path.write_bytes(text.encode())
                data = load_dataset(path)
                np.testing.assert_array_equal(data.features, [[1.5], [2.0]])
                np.testing.assert_array_equal(data.labels, [0, 1])
                self.assertEqual(data.class_names, ("0", "1"))

    def test_cells_float_and_int_read_are_read(self):
        # each line sends the rest of the file to the record-by-record reader
        text = ("label,f0\n0,1\n1_0,2\n0,1_0\n10,\u0661\n0,\u30002\n"
                + f"{2**63 - 1},3\n0,1\n")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            path.write_bytes(text.encode())
            data = load_dataset(path)
        np.testing.assert_array_equal(data.features, [[1], [2], [10], [1], [2], [3], [1]])
        np.testing.assert_array_equal(data.labels, [0, 1, 0, 1, 0, 2, 0])
        self.assertEqual(data.class_names, ("0", "10", str(2**63 - 1)))

    def test_every_ascii_character_reads_as_the_loop_reader(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            for char in map(chr, range(128)):
                for cell in (char, "1" + char, char + "1", "1" + char + "2", '"1"' + char):
                    for text in (f"label,f0\n0,{cell}\n1,2\n", f"label,f0\n{cell},1\n1,2\n"):
                        with self.subTest(text=text):
                            path.write_bytes(text.encode())
                            self.assertEqual(*[outcome(read, path)
                                               for read in (loop_load_dataset, load_dataset)])

    def test_writer_bytes_pinned(self):
        features = [[-0.0, 5e-324, 1e308], [0.1, -0.0, 5e-324], [1e308, 0.1, -0.0],
                    [5e-324, 1e308, 0.1], [-0.1, -1e308, -5e-324]]
        data = dataset_from_arrays(features, [-7, 2**40, 3, -7, 3])
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first.csv", Path(tmp) / "second.csv"
            save_dataset(data, first)
            save_dataset(load_dataset(first), second)
            written = first.read_bytes()
            self.assertEqual(second.read_bytes(), written)
        # the digest of the csv.writer output this writer replaced
        self.assertEqual(hashlib.sha256(written).hexdigest(),
                         "3ca1e965049a134671c1d11e10142792e2a56e06431590c8290b3f962c23f980")

    def test_writer_spells_any_class_name_as_csv_writer(self):
        names = ("", "a,b", 'say "x"', "two\nlines", " 1", "plain")
        features = np.arange(12.0).reshape(6, 2) / 7
        data = Dataset(features, [0, 1, 2, 3, 4, 5], names)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["label", "f0", "f1"])
        for name, row in zip(names, features):
            writer.writerow([name] + [repr(float(v)) for v in row])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            save_dataset(data, path)
            self.assertEqual(path.read_bytes(), expected.getvalue().encode())


def loop_load_dataset(path):
    """The cell-by-cell reader ``load_dataset`` replaced, as a reference.

    The line marked as a deliberate difference names a label beyond
    int64, on which the replaced reader overflowed.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("dataset file is empty") from None
        expected_width = len(header)
        if expected_width < 2 or header[0] != "label":
            raise ValueError(f"line 1: header must be label,f0,..., got {header!r}")
        raw_labels, rows = [], []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != expected_width:
                raise ValueError(
                    f"line {line_no}: expected {expected_width} cells, got {len(row)}"
                )
            try:
                raw_labels.append(int(row[0]))
            except ValueError:
                raise ValueError(f"line {line_no}: non-integer label {row[0]!r}") from None
            if not -(2**63) <= raw_labels[-1] < 2**63:  # deliberate difference
                raise ValueError(f"line {line_no}: label {row[0]!r} is outside int64")
            try:
                rows.append([float(cell) for cell in row[1:]])
            except ValueError:
                raise ValueError(f"line {line_no}: non-numeric feature cell") from None
    if not rows:
        raise ValueError("dataset file has no data rows")
    return dataset_from_arrays(np.array(rows), np.array(raw_labels))


def outcome(read, path):
    """``read(path)`` as comparable bytes, or its ValueError's message; no warning allowed."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            data = read(path)
        except ValueError as exc:
            return str(exc)
    return (data.features.tobytes(), data.features.shape, data.labels.tobytes(),
            data.class_names)


# the dataset cells of test_cli's csv_text, then cells that probe the parser
CELLS = ["label", "f0", "0", "1", "nan", "x", "", "2", "0.5", "-1",
         " 1", "+1", '"2"', "1_0", "-0.0", "5e-324", "1e308", "inf",
         "99999999999999999999999"]


def mostly(common, rare, odds):
    """Draws from ``rare`` when a k drawn from 1..odds equals odds, else from ``common``."""
    return st.integers(1, odds).flatmap(lambda k: rare if k == odds else common)


@st.composite
def csv_files(draw):
    """Small dataset CSVs, about a third of which both readers load."""
    width = draw(st.integers(1, 3))
    any_cell = st.sampled_from(CELLS)
    label = mostly(st.sampled_from(["0", "1", " 1", "+1", '"2"']), any_cell, 20)
    feature = mostly(st.sampled_from(["0", "1", "2", "0.5", "-1", " 1", "+1", '"2"', "-0.0",
                                      "5e-324", "1e308"]), any_cell, 30)
    odd_row = st.lists(any_cell, max_size=3)
    header = mostly(st.just(["label"] + [f"f{i}" for i in range(width)]), odd_row, 8)
    row = st.tuples(label, *[feature] * width)
    rows = [draw(header)] + draw(st.lists(mostly(row, odd_row, 10), max_size=8))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(",".join(r) for r in rows)
    return text + end if draw(st.booleans()) else text


class TestReaderMatchesLoopReader(unittest.TestCase):
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(csv_files())
    def test_same_verdict_message_and_bits(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            path.write_bytes(text.encode())
            self.assertEqual(*[outcome(read, path) for read in (loop_load_dataset, load_dataset)])


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
