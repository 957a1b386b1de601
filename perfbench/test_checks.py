"""Each benchmark check accepts a right output and rejects a wrong one.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import math

import numpy as np
import pytest

import checks
import spans
from checks import CheckError


def logistic_grid(n, centers, trials, width=2.0):
    """Success counts rising through 50% at each center, all trials at M = n."""
    ms = np.arange(1, n + 1)
    rows = [np.round(trials / (1.0 + np.exp(-(ms - c - 0.5) / width))).astype(int) for c in centers]
    for row in rows:
        row[-1] = trials
    return np.array(rows)


# criterion 6 at seed 2024: squared-width curve per gap and its 50% ranks
CURVE = [53.69, 14.93, 7.33, 4.55]
RANKS50 = [15.89, 8.31, 5.12, 2.71]


def ellipsoid_counts(trials=21):
    successes = logistic_grid(40, RANKS50, trials, width=1.0)
    return successes, np.zeros_like(successes)


def test_ellipsoid_grid_accepts_criterion_6_shape():
    successes, indeterminate = ellipsoid_counts()
    indeterminate[0, 13] = 1
    successes[0, 13] = min(successes[0, 13], 20)
    assert checks.check_ellipsoid_grid(range(1, 41), 21, successes, indeterminate, CURVE, 40) == 1


def test_ellipsoid_grid_rejects_halved_curve():
    successes, indeterminate = ellipsoid_counts()
    with pytest.raises(CheckError, match="50% rank"):
        checks.check_ellipsoid_grid(range(1, 41), 21, successes, indeterminate,
                                    [c / 2 for c in CURVE], 40)


def test_ellipsoid_grid_rejects_rising_curve_and_overfull_cells():
    successes, indeterminate = ellipsoid_counts()
    with pytest.raises(CheckError, match="fall strictly"):
        checks.check_ellipsoid_grid(range(1, 41), 21, successes, indeterminate,
                                    CURVE[:2] + [CURVE[1] + 1, CURVE[3]], 40)
    indeterminate[2, 39] = 1
    with pytest.raises(CheckError, match="exceed the trials"):
        checks.check_ellipsoid_grid(range(1, 41), 21, successes, indeterminate, CURVE, 40)


def disjoint_pair():
    rng = np.random.default_rng(3)
    b1, b2 = rng.standard_normal((2, 6, 6)) * 0.2
    return np.full(6, -1.0), b1, np.full(6, 1.0), b2


def test_certificate_accepted_and_flipped_certificate_rejected():
    c1, b1, c2, b2 = disjoint_pair()
    w = (c2 - c1) / np.linalg.norm(c2 - c1)
    checks.check_disjoint_certificate(c1, b1, c2, b2, w)
    with pytest.raises(CheckError, match="margin"):
        checks.check_disjoint_certificate(c1, b1, c2, b2, -w)


def test_witness_accepted_and_missed_or_oversized_witness_rejected():
    rng = np.random.default_rng(4)
    b1, b2 = rng.standard_normal((2, 5, 5))
    x = rng.standard_normal(5)
    x *= 0.5 / np.linalg.norm(x)
    y = np.zeros(5)
    c1 = np.zeros(5)
    c2 = b1 @ x  # the point c1 + B1 x is the centre of the second body
    checks.check_intersecting_witness(c1, b1, c2, b2, x, y, 1e-7)
    with pytest.raises(CheckError, match="misses"):
        checks.check_intersecting_witness(c1, b1, c2 + 1e-3, b2, x, y, 1e-7)
    with pytest.raises(CheckError, match="unit ball"):
        checks.check_intersecting_witness(c1, 0.25 * b1, c2, b2, 4 * x, y, 1e-7)


def cone_rows(shift=0):
    n, trials = 100, 50
    predicted = [checks.cone_prediction(n, a) for a in (math.pi / 8, math.pi / 4, 3 * math.pi / 8)]
    counts = logistic_grid(n, [p + shift for p in predicted], trials)
    text = "param,M,trials,successes,indeterminate\n" + "".join(
        f"{alpha:.6f},{m},{trials},{counts[i, m - 1]},0\n"
        for i, alpha in enumerate((math.pi / 8, math.pi / 4, 3 * math.pi / 8))
        for m in range(1, n + 1)
    )
    return checks.read_phase_csv(text)


def test_cone_grid_accepts_predicted_crossings():
    checks.check_cone_grid(cone_rows(), 100, (math.pi / 8, math.pi / 4, 3 * math.pi / 8), 50)


@pytest.mark.parametrize("shift", [5, -5])
def test_cone_grid_rejects_crossing_moved_by_5(shift):
    with pytest.raises(CheckError, match="crossing"):
        checks.check_cone_grid(cone_rows(shift), 100, (math.pi / 8, math.pi / 4, 3 * math.pi / 8), 50)


def test_cone_grid_rejects_failure_at_full_rank():
    rows = cone_rows()
    rows[99] = rows[99]._replace(successes=49)
    with pytest.raises(CheckError, match="M = n"):
        checks.check_cone_grid(rows, 100, (math.pi / 8, math.pi / 4, 3 * math.pi / 8), 50)


def test_nullspace_recheck():
    rng = np.random.default_rng(5)
    matrix = rng.standard_normal((3, 10))
    axis = np.zeros(10)
    axis[0] = 1.0
    basis_norm = np.linalg.norm(np.linalg.svd(matrix)[2][3:] @ axis)
    angle = math.acos(basis_norm) + 0.1  # wide enough that the null space meets the cone
    checks.check_nullspace_test(matrix, axis, angle, False)
    with pytest.raises(CheckError, match="disagrees"):
        checks.check_nullspace_test(matrix, axis, angle, True)
    checks.check_nullspace_test(rng.standard_normal((10, 10)), axis, angle, True)


def classification_inputs():
    rng = np.random.default_rng(9)
    n = 20
    centers = [30.0 * np.eye(n)[k] for k in range(3)]
    shapes = [(lambda a: a @ a.T)(rng.standard_normal((n, n)) / math.sqrt(n)) for _ in range(3)]
    return centers, shapes


def test_reference_plan_matches_gordon_dimension_of_worst_pair():
    centers, shapes = classification_inputs()
    m = checks.reference_plan_m(centers, shapes, 0.1)
    eta = 0.1 / 3
    widths = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        gap = centers[i] - centers[j]
        e = gap / np.linalg.norm(gap)
        slack = np.linalg.norm(gap) - np.linalg.norm(shapes[i] @ e) - np.linalg.norm(shapes[j] @ e)
        fro = np.linalg.norm(shapes[i]) + np.linalg.norm(shapes[j])
        widths.append(fro / slack + 1 / math.sqrt(2 * math.pi))
    threshold = (max(widths) + math.sqrt(2 * math.log(1 / eta))) ** 2 + 1
    assert m - 1 <= threshold < m


def report_rows(m, errors=(0.01, 0.02, 0.03)):
    text = "method,M,seed,error,train_seconds\n" + "".join(
        f"{method},{width},7,{err!r},0.5\n"
        for method, width, err in zip(("identity", f"rp:{m}", f"pca:{m}"), (200, m, m), errors)
    )
    return checks.read_report_csv(text)


def test_classification_accepts_and_rejects_m_off_by_one():
    checks.check_classification(21, 21, report_rows(21), 200)
    for wrong in (20, 22):
        with pytest.raises(CheckError, match="planned M"):
            checks.check_classification(wrong, 21, report_rows(wrong), 200)


def test_classification_rejects_errors_outside_criterion_9():
    with pytest.raises(CheckError, match="identity error"):
        checks.check_classification(21, 21, report_rows(21, (0.06, 0.06, 0.06)), 200)
    with pytest.raises(CheckError, match="rp:21"):
        checks.check_classification(21, 21, report_rows(21, (0.01, 0.07, 0.01)), 200)


def test_tracer_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("pca.principal_subspace", lambda: sum(range(20000)))
    outer = tracer.wrap("classify.train_mlr", lambda: [inner() for _ in range(3)])
    outer()
    (name, start, end, parent), *children = tracer.spans
    assert name == "classify.train_mlr" and parent == -1
    assert [c[3] for c in children] == [0, 0, 0]
    summary = tracer.summary()
    inner_total = sum(c[2] - c[1] for c in children)
    assert summary["pca.principal_subspace.self_s"] == pytest.approx(inner_total)
    assert summary["classify.train_mlr.self_s"] == pytest.approx(end - start - inner_total)
