"""Multinomial logistic regression pipeline over projected features.

The pipeline compares feature maps (identity, random Gaussian projection,
PCA fit on the training split only) under one shared train/test split and
identical classifier hyperparameters, reporting test error and training
wall-clock per method.

Dataset CSV schema: header ``label,f0,f1,...``; report CSV schema:
``method,M,seed,error,train_seconds``.
"""

from __future__ import annotations

import csv
import io
import math
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._rng import substream
from .bodies import GaussianProjection
from .pca import inertia, principal_subspace

DEFAULT_L2 = 1e-4
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITERS = 5000
ARMIJO_SLOPE = 1e-4


@dataclass(frozen=True)
class Dataset:
    """Feature rows with integer labels in ``0..n_classes-1``.

    When ``n_classes`` is omitted it is inferred from the labels, which
    must then cover every value (fresh datasets); a split may pass the
    parent's count so a side missing some class stays valid.
    ``class_names`` keeps each class's original integer label, spelled as
    ``str(int)``, so a file ``save_dataset`` wrote is written back byte
    for byte; a label spelled otherwise (``+1``, ``01``) is not.
    """

    features: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...] | None = None
    n_classes: int | None = None

    def __post_init__(self) -> None:
        features = np.ascontiguousarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise ValueError("features must be 2-D")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must match feature rows")
        if not np.all(np.isfinite(features)):
            raise ValueError("features contain non-finite entries")
        present = np.unique(labels)
        if self.n_classes is None:
            k = present.size
            if not np.array_equal(present, np.arange(k)):
                raise ValueError("labels must be exactly 0..K-1")
        else:
            k = int(self.n_classes)
            if present.size and (present[0] < 0 or present[-1] >= k):
                raise ValueError(f"label out of range: expected 0..{k - 1}")
        if k < 2:
            raise ValueError("dataset must contain at least 2 classes")
        if self.class_names is not None and len(self.class_names) != k:
            raise ValueError("class_names must have one entry per class")
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "n_classes", k)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def dataset_from_arrays(features, labels) -> Dataset:
    """Build a Dataset from arbitrary integer labels, remapping them sorted."""
    labels = np.asarray(labels, dtype=np.int64)
    originals = np.unique(labels)
    remapped = np.searchsorted(originals, labels)
    class_names = tuple(str(int(value)) for value in originals)
    return Dataset(np.asarray(features, dtype=float), remapped, class_names)


_INT64 = range(-(2**63), 2**63)
# On an ASCII line with a comma, np.loadtxt (labels left as text) either
# fails or reads what the csv module, int and float read, unless the line
# holds a quote, which it keeps, or one of these separators, which it
# strips as whitespace.
_NOT_FAST = ('"', "\x1c", "\x1d", "\x1e", "\x1f")


def load_dataset(path) -> Dataset:
    """Read ``label,f0,...`` CSV; labels are remapped to 0..K-1 sorted.

    Accepted format: a header ``label,f0,...`` with at least one feature,
    then one csv record per sample with as many cells as the header, each
    label a Python ``int`` within int64 and each feature a Python
    ``float`` (``nan`` and ``inf`` parse but the dataset rejects them).
    Lines end in LF or CRLF and cells may be quoted as the csv module
    quotes them; a blank line is a record of no cells and there are no
    comments. Malformed input raises with the offending line, counting
    the header as line 1 and each record as one line, however many it
    spans: ``line N: expected W cells, got C``, ``line N: non-integer
    label 'x'``, ``line N: label '...' is outside int64`` or ``line N:
    non-numeric feature cell``. A file without records raises ``dataset
    file is empty``, one with a header alone ``dataset file has no data
    rows``.

    The body is parsed by one streaming ``np.loadtxt`` pass, the labels
    then by ``int``, while every line is ASCII with a comma and without a
    quote or a separator character (``\\x1c`` to ``\\x1f``); at the first
    other line, or if ``loadtxt`` fails, the file is read again record by
    record with the csv module, ``int`` and ``float``, which decide what
    loads and name the fault.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("dataset file is empty") from None
        except csv.Error as exc:
            raise ValueError(f"line 1: {exc}") from None
        width = len(header)
        if width < 2 or header[0] != "label":
            raise ValueError(f"line 1: header must be label,f0,..., got {header!r}")
        fast = True

        def fast_lines():
            nonlocal fast
            for line in handle:
                if not (line.isascii() and "," in line) or any(c in line for c in _NOT_FAST):
                    fast = False
                    return
                yield line

        row_type = np.dtype([("label", object), ("features", np.float64, (width - 1,))])
        try:
            with warnings.catch_warnings():
                # a header alone is reported below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(
                    fast_lines(), dtype=row_type, delimiter=",", comments=None, ndmin=1
                )
        except ValueError:
            fast = False
    if not fast:
        return _read_records(path, width)
    if table.size == 0:
        raise ValueError("dataset file has no data rows")
    labels = [_label(cell, line_no) for line_no, cell in enumerate(table["label"], start=2)]
    return dataset_from_arrays(table["features"], labels)


def _label(cell: str, line_no: int) -> int:
    try:
        label = int(cell)
    except ValueError:
        raise ValueError(f"line {line_no}: non-integer label {cell!r}") from None
    if label not in _INT64:
        raise ValueError(f"line {line_no}: label {cell!r} is outside int64")
    return label


def _read_records(path: Path, width: int) -> Dataset:
    """``load_dataset``'s record-by-record reader, for the body after the header."""
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        labels: list[int] = []
        rows: list[list[float]] = []
        line_no = 1
        try:
            for line_no, row in enumerate(reader, start=2):
                if len(row) != width:
                    raise ValueError(f"line {line_no}: expected {width} cells, got {len(row)}")
                labels.append(_label(row[0], line_no))
                try:
                    rows.append([float(cell) for cell in row[1:]])
                except ValueError:
                    raise ValueError(f"line {line_no}: non-numeric feature cell") from None
        except csv.Error as exc:
            raise ValueError(f"line {line_no + 1}: {exc}") from None
    if not rows:
        raise ValueError("dataset file has no data rows")
    return dataset_from_arrays(np.array(rows), labels)


def _csv_cell(text: str) -> str:
    """``text`` as ``csv.writer`` spells it as one cell of a longer row."""
    out = io.StringIO()
    csv.writer(out).writerow([text, ""])
    return out.getvalue()[: -len(",\r\n")]


def save_dataset(data: Dataset, path) -> None:
    """Write the dataset CSV; floats use repr so a reload is bit-exact.

    The bytes are those of ``csv.writer`` with its CRLF line ends: each
    class name is spelled once as it would spell it, and a float's repr
    never needs quoting.
    """
    names = data.class_names or tuple(str(i) for i in range(data.n_classes))
    names = [_csv_cell(name) for name in names]
    path = Path(path)
    with path.open("w", newline="") as handle:
        csv.writer(handle).writerow(["label"] + [f"f{i}" for i in range(data.n_features)])
        for label, row in zip(data.labels.tolist(), data.features):
            handle.write(names[label] + "," + ",".join(map(repr, row.tolist())) + "\r\n")


def split(data: Dataset, ratio: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic uniform split; training size is ``round(ratio * p)``.

    Every class must appear in the training split, otherwise this raises
    with advice to raise the ratio or change the seed.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio out of range: expected (0, 1), got {ratio!r}")
    p = data.n_samples
    n_train = int(math.floor(ratio * p + 0.5))
    if n_train < 1 or n_train >= p:
        raise ValueError(f"split leaves an empty side: {p} samples at ratio {ratio}")
    order = substream(seed, "split").permutation(p)
    train_idx = np.sort(order[:n_train])
    test_idx = np.sort(order[n_train:])
    if np.unique(data.labels[train_idx]).size != data.n_classes:
        raise ValueError(
            "some class has no training sample; raise the ratio or change the seed"
        )

    def take(idx: np.ndarray) -> Dataset:
        return Dataset(
            data.features[idx], data.labels[idx], data.class_names, data.n_classes
        )

    return take(train_idx), take(test_idx)


@dataclass(frozen=True)
class MlrModel:
    """Trained multinomial logistic model with its standardization."""

    weights: np.ndarray
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    loss_trace: tuple[float, ...]
    converged: bool


def _design(features: np.ndarray, mean: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Standardized features with a row of ones below: one column per sample."""
    design = np.ones((features.shape[1] + 1, features.shape[0]))
    np.subtract(features.T, mean[:, None], out=design[:-1])
    design[:-1] /= scale[:, None]
    return design


def _cross_entropy(logits: np.ndarray, picked: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy of ``k x p`` logits, with the softmax's ``exp`` and column sums.

    ``picked`` holds the flat index of each sample's true-class logit.
    """
    shifted = logits - logits.max(axis=0)
    exp = np.exp(shifted)
    total = exp.sum(axis=0)
    loss = float(np.log(total).sum() - shifted.take(picked).sum()) / picked.size
    return loss, exp, total


def train_mlr(
    train: Dataset,
    l2: float = DEFAULT_L2,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
) -> MlrModel:
    """Full-batch gradient descent with backtracking (Armijo) line search.

    Features are standardized on training statistics (stored in the
    model); the bias column is excluded from the L2 penalty. Training
    stops at the first of three events: the gradient norm falls to
    ``tol`` (``converged``); ``max_iters`` steps have been accepted; or
    the line search fails, because 60 halvings found no acceptable step
    or because the decrease the Armijo test demands rounds away
    (``loss - c t |g|^2 == loss``), so the loss has reached its rounding
    floor. The loss trace is non-increasing. Logits are linear
    in the weights, so each step forms the gradient ``g`` and its logits
    ``g X`` once, and a trial step ``t`` costs only the loss of ``Z - t g X``.
    """
    labels = train.labels
    k = train.n_classes
    if np.unique(labels).size < 2:
        raise ValueError("training data must contain at least 2 classes")
    if not (math.isfinite(l2) and l2 >= 0.0):
        raise ValueError(f"l2 out of range: expected finite and >= 0, got {l2!r}")
    if not tol >= 0.0:
        raise ValueError(f"tol out of range: expected >= 0, got {tol!r}")
    if max_iters < 0:
        raise ValueError(f"max_iters out of range: expected >= 0, got {max_iters!r}")
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)
    scale = np.where(std > 1e-12, std, 1.0)
    design = _design(train.features, mean, scale)
    p = labels.size
    picked = labels * p + np.arange(p)
    weights = np.zeros((k, design.shape[0]))
    logits = np.zeros((k, p))
    loss, exp, total = _cross_entropy(logits, picked)
    trace = [loss]
    step = 1.0
    while True:
        residual = exp / total
        residual.ravel()[picked] -= 1.0
        grad = residual @ design.T
        grad /= p
        grad[:, :-1] += l2 * weights[:, :-1]
        grad_sq = float((grad**2).sum())
        converged = math.sqrt(grad_sq) <= tol
        if converged or len(trace) > max_iters:
            break
        along = grad @ design
        step = min(step * 2.0, 1e6)
        for _ in range(60):
            demanded = loss - ARMIJO_SLOPE * step * grad_sq
            if not demanded < loss:
                # below half an ulp of the loss: no step can make progress
                break
            candidate = weights - step * grad
            trial = logits - step * along
            new_loss, exp, total = _cross_entropy(trial, picked)
            new_loss += 0.5 * l2 * float((candidate[:, :-1] ** 2).sum())
            if new_loss <= demanded:
                break
            step *= 0.5
        if not (demanded < loss and new_loss <= demanded):
            break  # the line search failed
        weights, logits, loss = candidate, trial, new_loss
        trace.append(loss)
    return MlrModel(
        weights=weights,
        feature_mean=mean,
        feature_scale=scale,
        loss_trace=tuple(trace),
        converged=converged,
    )


def predict(model: MlrModel, features) -> np.ndarray:
    """Class labels for feature rows under the trained model."""
    features = np.asarray(features, dtype=float)
    design = _design(features, model.feature_mean, model.feature_scale)
    return np.argmax(model.weights @ design, axis=0)


def error_rate(model: MlrModel, data: Dataset) -> float:
    return float(np.mean(predict(model, data.features) != data.labels))


@dataclass(frozen=True)
class PipelineReport:
    """One method's test error and training cost within a pipeline run.

    ``steps`` and ``converged`` say how training stopped; the report CSV
    leaves them out.
    """

    method: str
    m: int
    seed: int
    error: float
    train_seconds: float
    steps: int
    converged: bool

    def to_row(self) -> list:
        return [self.method, self.m, self.seed, repr(self.error), repr(self.train_seconds)]


def _parse_method(method: str, n_features: int) -> tuple[str, int]:
    if method == "identity":
        return "identity", n_features
    for prefix in ("rp", "pca"):
        if method.startswith(prefix + ":"):
            try:
                m = int(method.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"malformed method: {method!r}") from None
            if not 1 <= m <= n_features:
                raise ValueError(
                    f"method out of range: {method!r} needs M in [1, {n_features}]"
                )
            return prefix, m
    raise ValueError(f"unknown method: {method!r}; use identity, rp:M, or pca:M")


def run_pipeline(
    data: Dataset,
    ratio: float,
    methods,
    seed: int,
    l2: float = DEFAULT_L2,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
) -> list[PipelineReport]:
    """Train and evaluate each feature map on one shared split.

    Methods are strings: ``identity``, ``rp:M`` (Gaussian projection with
    this run's seed), or ``pca:M`` (subspace fit on the training split
    only), each parsed before the split and before any training. Wall-clock
    covers classifier training alone.
    """
    parsed = [(method, *_parse_method(method, data.n_features)) for method in methods]
    train, test = split(data, ratio, seed)
    reports = []
    for method, kind, m in parsed:
        if kind == "identity":
            train_x, test_x = train.features, test.features
        elif kind == "rp":
            matrix = GaussianProjection(m, data.n_features, seed).entries
            train_x = train.features @ matrix.T
            test_x = test.features @ matrix.T
        else:
            basis = principal_subspace(inertia(train.features), m).basis
            train_x = train.features @ basis
            test_x = test.features @ basis
        train_set = Dataset(train_x, train.labels, train.class_names, train.n_classes)
        start = time.perf_counter()
        model = train_mlr(train_set, l2=l2, max_iters=max_iters, tol=tol)
        elapsed = time.perf_counter() - start
        test_set = Dataset(test_x, test.labels, test.class_names, test.n_classes)
        reports.append(
            PipelineReport(
                method=method,
                m=m,
                seed=seed,
                error=error_rate(model, test_set),
                train_seconds=elapsed,
                steps=len(model.loss_trace) - 1,
                converged=model.converged,
            )
        )
    return reports


def save_report(reports, path) -> None:
    """Write pipeline reports as ``method,M,seed,error,train_seconds``."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["method", "M", "seed", "error", "train_seconds"])
        for report in reports:
            writer.writerow(report.to_row())
