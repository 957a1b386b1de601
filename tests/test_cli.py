import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from typing import NamedTuple
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import projsep
from projsep import __version__, cli
from projsep.cli import MAX_GRID_POINTS, SCHEMA_VERSION, dispatch, parse_grid


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def strict_json_constant(name):
    """``parse_constant`` hook that rejects ``Infinity`` and ``NaN``, which JSON lacks."""
    raise ValueError(f"invalid JSON constant {name}")


def write_pair(tmp, zeta, radius=1.0, n=100):
    c1 = [0.0] * n
    c2 = [0.0] * n
    c2[0] = zeta
    path = Path(tmp) / "pair.json"
    path.write_text(
        json.dumps(
            {
                "e1": {"center": c1, "radius": radius},
                "e2": {"center": c2, "radius": radius},
            }
        )
    )
    return str(path)


class TestBoundCommand(unittest.TestCase):
    def test_unit_ball_pair(self):
        with tempfile.TemporaryDirectory() as tmp:
            pair = write_pair(tmp, zeta=4.0)
            code, out, err = run_cli(["bound", "--pair", pair, "--eta", "0.01"])
        self.assertEqual(code, 0)
        payload = json.loads(out)
        self.assertEqual(payload["required_m"], 182)
        self.assertAlmostEqual(
            payload["width_bound"]["value"], 10.398942280401434, places=9
        )
        self.assertIn('"command": "bound"', err)

    def test_close_pair_fails_with_reason(self):
        with tempfile.TemporaryDirectory() as tmp:
            pair = write_pair(tmp, zeta=2.0, n=10)
            code, out, err = run_cli(["bound", "--pair", pair])
        self.assertEqual(code, 1)
        self.assertIn("theorem-hypothesis-violated", err)

    def test_out_file(self):
        with tempfile.TemporaryDirectory() as tmp:
            pair = write_pair(tmp, zeta=4.0)
            dest = str(Path(tmp) / "bound.json")
            code, out, _ = run_cli(["bound", "--pair", pair, "--out", dest])
            self.assertEqual(code, 0)
            self.assertEqual(out, "")
            payload = json.loads(Path(dest).read_text())
        self.assertEqual(payload["required_m"], 182)

    def test_missing_pair_file(self):
        code, _, err = run_cli(["bound", "--pair", "/nonexistent/pair.json"])
        self.assertEqual(code, 1)
        self.assertIn("error:", err)


class TestSeparateCommand(unittest.TestCase):
    def test_tangent_balls(self):
        with tempfile.TemporaryDirectory() as tmp:
            pair = write_pair(tmp, zeta=2.0, n=3)
            code, out, _ = run_cli(["separate", "--pair", pair])
        self.assertEqual(code, 0)
        self.assertEqual(json.loads(out)["state"], "Intersecting")

    def test_separated_balls(self):
        with tempfile.TemporaryDirectory() as tmp:
            pair = write_pair(tmp, zeta=5.0, n=3)
            code, out, _ = run_cli(["separate", "--pair", pair])
        payload = json.loads(out)
        self.assertEqual(code, 0)
        self.assertEqual(payload["state"], "Disjoint")
        self.assertAlmostEqual(payload["margin"], 3.0, places=4)
        self.assertEqual(len(payload["certificate"]), 3)


class TestExtremeScales(unittest.TestCase):
    """``separate`` and ``bound`` at scales whose squares leave double range."""

    @staticmethod
    def run_pair(tmp, command, e1, e2):
        path = Path(tmp) / "pair.json"
        path.write_text(json.dumps({"e1": e1, "e2": e2}))
        return run_cli([command, "--pair", str(path)])

    def outcomes(self, s):
        shape = [[s, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        pairs = {
            "overlapping": ({"center": [s, 0.0, 0.0], "shape": shape},
                            {"center": [0.0, 0.0, 0.0], "shape": shape}),
            "apart": ({"center": [0.0, 0.0, 0.0], "radius": s},
                      {"center": [3.0 * s, 0.0, 0.0], "radius": s}),
        }
        out = {}
        with tempfile.TemporaryDirectory() as tmp:
            for name, (e1, e2) in pairs.items():
                code, text, _ = self.run_pair(tmp, "separate", e1, e2)
                self.assertEqual(code, 0)
                out[name, "separate"] = json.loads(text)["state"]
                code, text, err = self.run_pair(tmp, "bound", e1, e2)
                out[name, "bound"] = (code, json.loads(text)["required_m"] if code == 0 else
                                      err.splitlines()[-1])
        return out

    def test_same_outcomes_as_at_scale_1(self):
        reference = self.outcomes(1.0)
        self.assertEqual(reference["overlapping", "separate"], "Intersecting")
        self.assertEqual(reference["apart", "separate"], "Disjoint")
        for s in (1e-200, 1e-160, 1e160, 1e200):
            self.assertEqual(self.outcomes(s), reference, f"scale {s}")

    def test_margin_beyond_double_range(self):
        # the margin, about 2e308, is not a double: Disjoint with margin null
        with tempfile.TemporaryDirectory() as tmp:
            code, text, _ = self.run_pair(
                tmp, "separate",
                {"center": [-1e308, 0.0], "radius": 1.0},
                {"center": [1e308, 0.0], "radius": 1.0},
            )
        self.assertEqual(code, 0)
        payload = json.loads(text, parse_constant=strict_json_constant)
        self.assertEqual(payload["state"], "Disjoint")
        self.assertIsNone(payload["margin"])
        self.assertEqual(payload["certificate"], [1.0, 0.0])

    def test_small_gap_between_far_centres(self):
        # the centres exceed the radii 1e600 times; the gap 3e-300 beats 2e-300
        with tempfile.TemporaryDirectory() as tmp:
            code, text, _ = self.run_pair(
                tmp, "separate",
                {"center": [1e300, 0.0], "radius": 1e-300},
                {"center": [1e300, 3e-300], "radius": 1e-300},
            )
        self.assertEqual(code, 0)
        payload = json.loads(text, parse_constant=strict_json_constant)
        self.assertEqual(payload["state"], "Disjoint")
        self.assertEqual(payload["certificate"], [0.0, 1.0])

    def test_sweep_gap_near_double_range(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "grid.csv"
            code, _, _ = run_cli(["ellipsoid-phase", "--n", "5", "--grid", "1e308",
                                  "--trials", "2", "--seed", "1", "--out", str(out)])
            self.assertEqual(code, 0)
            rows = out.read_text().splitlines()[1:]
            meta = json.loads(out.with_suffix(".meta.json").read_text(),
                              parse_constant=strict_json_constant)
        self.assertEqual([row.split(",")[1:] for row in rows],
                         [[str(m), "2", "2", "0"] for m in range(1, 6)])
        self.assertEqual(meta["preprojection_disjoint"], [2])

    def test_sweep_bound_squares_beyond_double_range(self):
        # with pulls of 0, gap 1e-200 gives a bound of about 1e200, whose square
        # overflows, and gap 1e-310 a bound beyond the doubles: both means are null
        def sweep(tmp, name, grid):
            out = Path(tmp) / f"{name}.csv"
            code, _, err = run_cli(["ellipsoid-phase", "--n", "3", "--grid", grid,
                                    "--variant", "hyperplane", "--trials", "2", "--seed", "1",
                                    "--out", str(out)])
            self.assertEqual(code, 0, err)
            self.assertNotIn("Traceback", err)
            self.assertEqual(len(out.read_text().splitlines()), 1 + 3 * len(grid.split(",")))
            return json.loads(out.with_suffix(".meta.json").read_text(),
                              parse_constant=strict_json_constant)

        with tempfile.TemporaryDirectory() as tmp:
            tiny, unit = sweep(tmp, "tiny", "1e-200,1e-310,1"), sweep(tmp, "unit", "1")
        self.assertEqual(tiny["mean_sq_bound"][:2], [None, None])
        self.assertEqual(tiny["mean_sq_bound"][2:], unit["mean_sq_bound"])
        self.assertIsInstance(unit["mean_sq_bound"][0], float)

    def test_width_commands_on_a_gap_beyond_double_range(self):
        # two points about 1.97e308 apart: their width bound is 1/sqrt(2 pi) at any gap
        points = [{"center": [0.0, 0.0, 0.0], "radius": 0.0},
                  {"center": [0.0, 1e308, 1.7e308], "radius": 0.0}]
        with tempfile.TemporaryDirectory() as tmp:
            pair, classes = Path(tmp) / "pair.json", Path(tmp) / "classes.json"
            pair.write_text(json.dumps({"e1": points[0], "e2": points[1]}))
            classes.write_text(json.dumps(points))
            plan = Path(tmp) / "plan.json"
            runs = {
                "bound": run_cli(["bound", "--pair", str(pair)]),
                "width-mc": run_cli(["width-mc", "--pair", str(pair), "--trials", "10",
                                     "--seed", "1"]),
                "plan": run_cli(["plan", "--classes", str(classes), "--out", str(plan)]),
            }
            for command, (code, _, err) in runs.items():
                self.assertEqual(code, 0, f"{command}: {err}")
            bound = json.loads(runs["bound"][1], parse_constant=strict_json_constant)
            estimate = json.loads(runs["width-mc"][1], parse_constant=strict_json_constant)
            planned = json.loads(plan.read_text(), parse_constant=strict_json_constant)
        self.assertEqual(bound["width_bound"]["value"], 1.0 / (2.0 * math.pi) ** 0.5)
        self.assertEqual(bound["required_m"], 13)
        self.assertEqual(estimate["value"], bound["width_bound"]["value"])
        self.assertEqual(estimate["std_error"], 0.0)
        self.assertEqual(planned["m"], 8)

    def test_bound_needing_more_rows_than_a_double_holds(self):
        # disjoint along e3, with a width bound of about 2.4e300, whose square overflows
        with tempfile.TemporaryDirectory() as tmp:
            code, _, err = self.run_pair(
                tmp, "bound",
                {"center": [0.0, 1e308, -1.0],
                 "shape": [[1e300, 0.0, 0.0], [0.0, 1e300, 0.0], [0.0, 0.0, 1e-160]]},
                {"center": [1e-310, 1e308, 3e-300],
                 "shape": [[1.0, 0.0, 0.0], [0.0, 1e300, 0.0], [0.0, 0.0, 1e-300]]},
            )
        self.assertEqual(code, 1)
        self.assertNotIn("Traceback", err)
        (line,) = [line for line in err.splitlines() if line.startswith("error:")]
        self.assertRegex(line, r"^error: projection-dimension-beyond-the-doubles: "
                               r"width 2\.41421356\d*e\+300$")


class TestGridRanges(unittest.TestCase):
    def assert_one_error_line(self, value, flag="--grid", expected=None):
        """``cone-phase`` given ``value`` for ``flag`` exits 1 with one error line, ``expected``."""
        flags = {"--ms": "1", "--grid": "0.4", flag: value}
        with tempfile.TemporaryDirectory() as tmp:
            code, _, err = run_cli(["cone-phase", "--n", "2", "--trials", "1",
                                    *(word for pair in flags.items() for word in pair),
                                    "--out", str(Path(tmp) / "x.csv")])
        self.assertEqual(code, 1, err)
        self.assertEqual([line for line in err.splitlines() if line.startswith("error:")],
                         [err.splitlines()[-1]])
        if expected is not None:
            self.assertEqual(err.splitlines()[-1], expected)

    def test_non_finite_bound_is_a_domain_error(self):
        for grid in ("0:1:inf", "nan:1:2", "0:inf:1"):
            with self.subTest(grid):
                self.assert_one_error_line(grid)
        for ms in ("inf", "1e400"):
            with self.subTest(ms=ms):
                self.assert_one_error_line(ms, "--ms", "error: non-integer-grid-value: got inf")

    def test_malformed_grid_names_its_fault(self):
        for flag, grid, line in (
            ("--grid", "1:2", "error: malformed-grid: expected lo:step:hi, got '1:2'"),
            ("--grid", "5:1:1",
             "error: grid-does-not-advance: expected step > 0 and hi >= lo, got '5:1:1'"),
            ("--ms", "0", "error: projected-dimension-out-of-range: expected >= 1, got 0"),
        ):
            with self.subTest(flag=flag, grid=grid):
                self.assert_one_error_line(grid, flag, line)

    def test_too_many_points_is_a_domain_error(self):
        step = 1.0 / MAX_GRID_POINTS
        self.assertEqual(len(parse_grid(f"0:{step}:{1.0 - step}")), MAX_GRID_POINTS)
        # cap + 1 half-angles in [0, 1]: a cheap sweep when not rejected
        self.assert_one_error_line(f"0:{step}:1")

    def test_empty_grid_is_a_domain_error(self):
        for command, grid, error in (
                ("cone-phase", ",", "error: empty-grid: need at least one cone half-angle"),
                ("ellipsoid-phase", ",", "error: empty-grid: need at least one center gap"),
                ("ellipsoid-phase", "-1",
                 "error: center-gap-out-of-range: expected finite and >= 0, got -1.0")):
            with self.subTest(command, grid=grid), tempfile.TemporaryDirectory() as tmp:
                out = Path(tmp) / "x.csv"
                code, _, err = run_cli([command, "--n", "5", "--grid", grid, "--trials", "2",
                                        "--out", str(out)])
                self.assertEqual(code, 1, err)
                self.assertNotIn("Traceback", err)
                self.assertEqual([line for line in err.splitlines() if line.startswith("error:")],
                                 [error])
                self.assertEqual(err.splitlines()[-1], error)
                self.assertFalse(out.exists())


class TestUsageErrors(unittest.TestCase):
    def test_no_arguments(self):
        code, _, _ = run_cli([])
        self.assertEqual(code, 2)

    def test_unknown_command(self):
        code, _, _ = run_cli(["frobnicate"])
        self.assertEqual(code, 2)

    def test_width_mc_without_inputs(self):
        code, _, err = run_cli(["width-mc"])
        self.assertEqual(code, 2)
        self.assertIn("provide --pair or --alpha", err)
        code, _, err = run_cli(["width-mc", "--alpha", "0.5"])
        self.assertEqual(code, 2)
        self.assertEqual(err.splitlines()[-1], "error: --alpha requires --n")

    def test_version(self):
        code, out, _ = run_cli(["--version"])
        self.assertEqual(code, 0)
        self.assertEqual(
            out.strip(), f"projsep {__version__} (schema {SCHEMA_VERSION})"
        )


class TestWidthMcCommand(unittest.TestCase):
    def test_circular_cone(self):
        code, out, _ = run_cli(
            [
                "width-mc",
                "--alpha",
                "0.7853981633974483",
                "--n",
                "100",
                "--trials",
                "2000",
                "--seed",
                "3",
            ]
        )
        self.assertEqual(code, 0)
        payload = json.loads(out)
        # squared width of the quarter-angle cone in R^100 is about 50
        self.assertAlmostEqual(payload["value"] ** 2, 50.0, delta=5.0)

    def test_pair_estimate(self):
        with tempfile.TemporaryDirectory() as tmp:
            pair = write_pair(tmp, zeta=4.0, n=20)
            code, out, _ = run_cli(
                ["width-mc", "--pair", pair, "--trials", "500", "--seed", "1"]
            )
        self.assertEqual(code, 0)
        payload = json.loads(out)
        self.assertGreater(payload["value"], 0.0)
        self.assertGreater(payload["std_error"], 0.0)

    def test_invalid_pair(self):
        with tempfile.TemporaryDirectory() as tmp:
            pair = write_pair(tmp, zeta=1.5, n=8)
            code, _, err = run_cli(
                ["width-mc", "--pair", pair, "--trials", "100", "--seed", "1"]
            )
        self.assertEqual(code, 1)
        self.assertIn("theorem-hypothesis-violated", err)


class TestConePhaseCommand(unittest.TestCase):
    def test_csv_reproducible(self):
        with tempfile.TemporaryDirectory() as tmp:
            p1 = str(Path(tmp) / "a.csv")
            p2 = str(Path(tmp) / "b.csv")
            base = [
                "cone-phase",
                "--n",
                "8",
                "--grid",
                "0.3,0.8",
                "--ms",
                "2,4,6",
                "--trials",
                "5",
                "--seed",
                "21",
            ]
            code1, _, _ = run_cli(base + ["--out", p1])
            code2, _, _ = run_cli(base + ["--out", p2])
            self.assertEqual(code1, 0)
            self.assertEqual(code2, 0)
            self.assertEqual(Path(p1).read_bytes(), Path(p2).read_bytes())
            self.assertTrue(Path(p1).with_suffix(".meta.json").exists())

    def test_fresh_seed_when_omitted(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = str(Path(tmp) / "grid.csv")
            code, _, err = run_cli(
                ["cone-phase", "--n", "5", "--grid", "0.4", "--ms", "2", "--trials", "2", "--out", out]
            )
        self.assertEqual(code, 0)
        config = json.loads(err.splitlines()[0])
        self.assertIsInstance(config["seed"], int)


class TestEllipsoidPhaseCommand(unittest.TestCase):
    def test_runs_and_writes(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = str(Path(tmp) / "grid.csv")
            code, _, _ = run_cli(
                [
                    "ellipsoid-phase",
                    "--n",
                    "4",
                    "--grid",
                    "6.0",
                    "--ms",
                    "2,4",
                    "--trials",
                    "3",
                    "--seed",
                    "9",
                    "--out",
                    out,
                ]
            )
            self.assertEqual(code, 0)
            text = Path(out).read_text()
        self.assertTrue(text.startswith("param,M,trials,successes,indeterminate"))


class TestPlanCommand(unittest.TestCase):
    def test_point_classes(self):
        classes = [
            {"center": [0.0, 0.0], "radius": 0.0},
            {"center": [9.0, 0.0], "radius": 0.0},
            {"center": [0.0, 9.0], "radius": 0.0},
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "classes.json"
            path.write_text(json.dumps(classes))
            code, out, _ = run_cli(["plan", "--classes", str(path), "--p", "0.1"])
        self.assertEqual(code, 0)
        self.assertIn("M = ", out)

    def test_infeasible_plan(self):
        classes = [
            {"center": [0.0, 0.0], "radius": 1.0},
            {"center": [1.0, 0.0], "radius": 1.0},
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "classes.json"
            path.write_text(json.dumps(classes))
            code, out, err = run_cli(["plan", "--classes", str(path)])
        self.assertEqual(code, 1)
        self.assertIn("theorem-hypothesis-violated", err)

    def test_infeasible_plan_writes_strict_json(self):
        # the pair 0-1 overlaps, so its width is invalid and written as null
        classes = [{"center": [x, 0.0], "radius": 1.0} for x in (0.0, 1.0, 10.0)]
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "classes.json", Path(tmp) / "plan.json"
            path.write_text(json.dumps(classes))
            code, _, _ = run_cli(["plan", "--classes", str(path), "--out", str(out)])
            payload = json.loads(out.read_text(), parse_constant=strict_json_constant)
        self.assertEqual(code, 1)
        self.assertFalse(payload["feasible"])
        bounds = {(pair["first"], pair["second"]): pair["bound"] for pair in payload["pairs"]}
        self.assertIsNone(bounds[0, 1]["value"])
        self.assertFalse(bounds[0, 1]["valid"])
        self.assertEqual(bounds[0, 1]["kind"], "EllipsoidTheorem")
        self.assertGreater(bounds[1, 2]["value"], 0.0)


    def test_plan_beyond_the_doubles_is_infeasible_and_written(self):
        # the pair 0-1 has a width bound of about 2.4e300, whose dimension no
        # double holds: that pair has no dimension, the others keep theirs, and
        # the plan is written as strict JSON
        classes = [
            {"center": [0.0, 1e308, -1.0],
             "shape": [[1e300, 0.0, 0.0], [0.0, 1e300, 0.0], [0.0, 0.0, 1e-160]]},
            {"center": [1e-310, 1e308, 3e-300],
             "shape": [[1.0, 0.0, 0.0], [0.0, 1e300, 0.0], [0.0, 0.0, 1e-300]]},
            {"center": [5.0, 5.0, 5.0], "radius": 1.0},
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "classes.json", Path(tmp) / "plan.json"
            path.write_text(json.dumps({"classes": classes}))
            code, table, err = run_cli(["plan", "--classes", str(path), "--out", str(out)])
            payload = json.loads(out.read_text(), parse_constant=strict_json_constant)
        self.assertEqual(code, 1)
        self.assertIn("error: projection-dimension-beyond-the-doubles", err)
        self.assertNotIn("Traceback", err)
        self.assertIn("2.41421e+300", table)
        self.assertFalse(payload["feasible"])
        self.assertIsNone(payload["m"])
        pairs = {(pair["first"], pair["second"]): pair for pair in payload["pairs"]}
        self.assertIsNone(pairs[0, 1]["m_required"])
        self.assertTrue(pairs[0, 1]["bound"]["valid"])
        self.assertGreater(pairs[0, 1]["bound"]["value"], 1e300)
        self.assertIn("beyond the doubles", pairs[0, 1]["bound"]["reason"])
        self.assertGreater(pairs[0, 2]["m_required"], 0)
        self.assertGreater(pairs[1, 2]["m_required"], 0)

class TestPcaToyAndClassify(unittest.TestCase):
    def test_end_to_end(self):
        with tempfile.TemporaryDirectory() as tmp:
            data_path = str(Path(tmp) / "toy.csv")
            code, _, _ = run_cli(
                [
                    "pca-toy",
                    "--kind",
                    "two-balls",
                    "--n",
                    "3",
                    "--radius",
                    "0.5",
                    "--center-norm",
                    "3.0",
                    "--samples",
                    "80",
                    "--seed",
                    "5",
                    "--out",
                    data_path,
                ]
            )
            self.assertEqual(code, 0)
            report_path = str(Path(tmp) / "report.csv")
            code, out, _ = run_cli(
                [
                    "classify",
                    "--data",
                    data_path,
                    "--method",
                    "identity",
                    "--method",
                    "pca:1",
                    "--max-iters",
                    "300",
                    "--seed",
                    "6",
                    "--out",
                    report_path,
                ]
            )
            self.assertEqual(code, 0)
            lines = [l for l in out.splitlines() if l]
            self.assertEqual(len(lines), 2)
            self.assertIn("identity", lines[0])
            self.assertIn("error=", lines[0])
            self.assertRegex(lines[0], r"\tsteps=\d+\tconverged=(True|False)$")
            report = Path(report_path).read_text().splitlines()
        self.assertEqual(report[0], "method,M,seed,error,train_seconds")
        self.assertEqual(len(report), 3)


class TestClassifyKnobs(unittest.TestCase):
    """Training knobs out of range are domain errors (exit 1, one error line)."""

    def classify(self, *knobs):
        with tempfile.TemporaryDirectory() as tmp:
            data = str(Path(tmp) / "toy.csv")
            run_cli(["pca-toy", "--n", "2", "--radius", "0.5", "--center-norm", "3.0",
                     "--samples", "20", "--seed", "1", "--out", data])
            return run_cli(["classify", "--data", data, "--max-iters", "20", "--seed", "2",
                            *knobs])

    def assert_domain_error(self, *knobs):
        code, out, err = self.classify(*knobs)
        self.assertEqual(code, 1, err)
        self.assertEqual(out, "")
        self.assertEqual([line for line in err.splitlines() if line.startswith("error:")],
                         [err.splitlines()[-1]])
        self.assertNotIn("Warning", err)

    def test_non_finite_or_negative_l2(self):
        self.assert_domain_error("--l2", "inf")
        self.assert_domain_error("--l2", "nan")
        self.assert_domain_error("--l2=-1e-4")

    def test_nan_or_negative_tol(self):
        self.assert_domain_error("--tol", "nan")
        self.assert_domain_error("--tol=-1e-6")

    def test_negative_max_iters(self):
        self.assert_domain_error("--max-iters=-5")

    def test_zero_tol_and_zero_l2_run(self):
        code, out, err = self.classify("--tol", "0", "--l2", "0")
        self.assertEqual(code, 0, err)
        self.assertIn("\tsteps=20\tconverged=False", out)


class TestConfigFile(unittest.TestCase):
    def test_config_defaults_overridden_by_flags(self):
        with tempfile.TemporaryDirectory() as tmp:
            pair = write_pair(tmp, zeta=4.0)
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps({"eta": 0.5}))
            code, out, _ = run_cli(
                ["bound", "--pair", pair, "--config", str(cfg), "--eta", "0.01"]
            )
            self.assertEqual(code, 0)
            self.assertEqual(json.loads(out)["required_m"], 182)
            code, out, _ = run_cli(["bound", "--pair", pair, "--config", str(cfg)])
            self.assertEqual(code, 0)
        self.assertEqual(json.loads(out)["eta"], 0.5)

    def run_with_config(self, config, argv):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(config))
            out = str(Path(tmp) / "out.csv")
            return run_cli(argv + ["--config", str(cfg), "--out", out])

    def test_underscore_key_does_not_override_flag(self):
        code, _, err = self.run_with_config(
            {"center_norm": 9.0},
            ["pca-toy", "--n", "2", "--radius", "0.5", "--samples", "5", "--seed", "1",
             "--center-norm", "3.0"],
        )
        self.assertEqual(code, 0)
        self.assertEqual(json.loads(err.splitlines()[0])["center_norm"], 3.0)

    def test_abbreviated_flag_overrides_config(self):
        code, _, err = self.run_with_config(
            {"trials": 1},
            ["cone-phase", "--n", "5", "--grid", "0.4", "--ms", "2", "--seed", "1",
             "--tri", "5"],
        )
        self.assertEqual(code, 0)
        self.assertEqual(json.loads(err.splitlines()[0])["trials"], 5)

    def test_config_values_take_the_flag_type(self):
        code, _, err = self.run_with_config(
            {"trials": "3", "seed": 7},
            ["cone-phase", "--n", "5", "--grid", "0.4", "--ms", "2"],
        )
        self.assertEqual(code, 0)
        config = json.loads(err.splitlines()[0])
        self.assertEqual((config["trials"], config["seed"]), (3, 7))

    def test_bad_config_value_is_a_usage_error(self):
        code, _, err = self.run_with_config(
            {"trials": "abc"},
            ["cone-phase", "--n", "5", "--grid", "0.4", "--ms", "2", "--seed", "1"],
        )
        self.assertEqual(code, 2)
        self.assertEqual(sum(line.startswith("error:") or ": error:" in line
                             for line in err.splitlines()), 1)
        self.assertIn("--trials", err)
        self.assertNotIn("Traceback", err)

    def test_explicit_flag_replaces_a_config_list(self):
        with tempfile.TemporaryDirectory() as tmp:
            data = str(Path(tmp) / "toy.csv")
            run_cli(["pca-toy", "--n", "2", "--radius", "0.5", "--center-norm", "3.0",
                     "--samples", "20", "--seed", "1", "--out", data])
            code, _, err = self.run_with_config(
                {"method": ["identity", "pca:1"]},
                ["classify", "--data", data, "--max-iters", "20", "--seed", "2",
                 "--method", "rp:1"],
            )
        self.assertEqual(code, 0)
        self.assertEqual(json.loads(err.splitlines()[0])["methods"], ["rp:1"])

    def test_unknown_config_key(self):
        code, _, err = self.run_with_config(
            {"max-iter": 4000},
            ["ellipsoid-phase", "--n", "4", "--grid", "6", "--ms", "2", "--trials", "1"],
        )
        self.assertEqual(code, 1)
        self.assertIn("error: unknown-config-key: 'max-iter' is not a flag of this subcommand", err)


class TestConfigEcho(unittest.TestCase):
    """Each subcommand's first stderr line is its configuration, with every value resolved."""

    def assert_echo(self, argv, expected, allowed=None):
        """The echo holds ``expected``; any other key is one of ``allowed``, with its value."""
        code, _, err = run_cli(argv)
        self.assertEqual(code, 0, err)
        echo = json.loads(err.splitlines()[0])
        self.assertEqual({key: value for key, value in echo.items() if key in expected},
                         expected)
        added = {key: value for key, value in echo.items() if key not in expected}
        self.assertLessEqual(added.items(), (allowed or {}).items(), echo)

    def test_every_subcommand(self):
        with tempfile.TemporaryDirectory() as tmp:
            pair = write_pair(tmp, zeta=5.0, n=2)
            classes = str(Path(tmp) / "classes.json")
            Path(classes).write_text(json.dumps([{"center": [0, 0], "radius": 1},
                                                 {"center": [5, 0], "radius": 1}]))
            cone, gaps, toy = (str(Path(tmp) / name) for name in ("c.csv", "e.csv", "toy.csv"))
            self.assert_echo(["bound", "--pair", pair, "--eta", "0.05"],
                             {"command": "bound", "eta": 0.05, "out": None, "pair": pair})
            self.assert_echo(["separate", "--pair", pair],
                             {"command": "separate", "out": None, "pair": pair})
            self.assert_echo(
                ["cone-phase", "--n", "4", "--grid", "0.3:0.1:0.5", "--trials", "2",
                 "--seed", "5", "--out", cone],
                {"command": "cone-phase", "grid": [0.3, 0.4, 0.5], "ms": [1, 2, 3, 4], "n": 4,
                 "out": cone, "seed": 5, "trials": 2},
            )
            self.assert_echo(
                ["ellipsoid-phase", "--n", "4", "--grid", "10,20", "--ms", "1:1:3", "--trials",
                 "2", "--variant", "hyperplane", "--seed", "6", "--out", gaps],
                {"command": "ellipsoid-phase", "grid": [10.0, 20.0], "ms": [1, 2, 3], "n": 4,
                 "out": gaps, "seed": 6, "trials": 2, "variant": "hyperplane"},
            )
            self.assert_echo(["plan", "--classes", classes, "--p", "0.2"],
                             {"classes": classes, "command": "plan", "out": None, "p": 0.2})
            self.assert_echo(
                ["width-mc", "--alpha", "0.5", "--n", "3", "--trials", "20", "--seed", "7"],
                {"alpha": 0.5, "command": "width-mc", "n": 3, "out": None, "seed": 7,
                 "trials": 20},
                allowed={"pair": None},
            )
            self.assert_echo(
                ["width-mc", "--pair", pair, "--trials", "20", "--seed", "8"],
                {"command": "width-mc", "out": None, "pair": pair, "seed": 8, "trials": 20},
                allowed={"alpha": None, "n": None},
            )
            self.assert_echo(
                ["pca-toy", "--kind", "cross-polytope", "--n", "3", "--radius", "0.5",
                 "--samples", "10", "--seed", "9", "--out", toy],
                {"center_norm": 1.0, "command": "pca-toy", "kind": "cross-polytope", "n": 3,
                 "out": toy, "radius": 0.5, "samples": 10, "seed": 9},
            )
            for methods in ([], ["identity", "rp:2"]):
                with self.subTest(methods=methods):
                    self.assert_echo(
                        ["classify", "--data", toy, "--ratio", "0.5", "--max-iters", "20",
                         "--seed", "10", *(f"--method={method}" for method in methods)],
                        {"command": "classify", "data": toy, "l2": 0.0001, "max_iters": 20,
                         "methods": methods or ["identity"], "out": None, "ratio": 0.5,
                         "seed": 10, "tol": 1e-06},
                        allowed={"method": methods or None},
                    )

    def test_non_finite_flags_echo_as_null(self):
        # JSON has no Infinity or NaN; the echo comes before the value is refused
        with tempfile.TemporaryDirectory() as tmp:
            toy, out = str(Path(tmp) / "toy.csv"), str(Path(tmp) / "c.csv")
            self.assertEqual(run_cli(["pca-toy", "--n", "3", "--radius", "0.5", "--samples",
                                      "20", "--seed", "1", "--out", toy])[0], 0)
            for argv, key, value in (
                (["cone-phase", "--n", "3", "--grid", "inf,0.5,nan", "--out", out], "grid",
                 [None, 0.5, None]),
                (["width-mc", "--alpha", "inf", "--n", "3"], "alpha", None),
                (["classify", "--data", toy, "--tol", "nan", "--seed", "2"], "tol", None),
            ):
                with self.subTest(argv=argv):
                    code, _, err = run_cli(argv)
                    self.assertEqual(code, 1, err)
                    echo = json.loads(err.splitlines()[0], parse_constant=strict_json_constant)
                    self.assertEqual(echo[key], value)


def run_python(args):
    """Run a fresh interpreter that imports projsep from this source tree."""
    src = str(Path(projsep.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


class TestModuleEntryPoint(unittest.TestCase):
    def test_python_m_prints_usage(self):
        done = run_python(["-m", "projsep.cli", "--help"])
        self.assertEqual(done.returncode, 0, done.stderr)
        self.assertIn("usage: projsep", done.stdout)
        self.assertIn("cone-phase", done.stdout)

    def test_import_loads_no_scipy(self):
        # scipy is a test-only referee; importing it would double start-up
        done = run_python([
            "-c",
            "import sys, projsep, projsep.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))",
        ])
        self.assertEqual(done.returncode, 0, done.stderr)
        self.assertEqual(done.stdout.strip(), "[]")


class TestRemovedSolverFlags(unittest.TestCase):
    def test_separate_has_no_tolerance_or_cap(self):
        with tempfile.TemporaryDirectory() as tmp:
            pair = write_pair(tmp, zeta=4.0, n=3)
            for flag, value in (("--tol", "1e-7"), ("--max-iter", "500")):
                code, _, err = run_cli(["separate", "--pair", pair, flag, value])
                self.assertEqual(code, 2, flag)
                self.assertIn("unrecognized arguments", err)

    def test_ellipsoid_phase_has_no_tolerance(self):
        code, _, err = run_cli(
            ["ellipsoid-phase", "--n", "4", "--grid", "6", "--out", "unused.csv",
             "--tol", "1e-7"]
        )
        self.assertEqual(code, 2)
        self.assertIn("unrecognized arguments", err)


class TestMalformedInput(unittest.TestCase):
    """Each input used to end in a traceback; each is a domain error (exit 1)."""

    def assert_domain_error(self, argv, content=None):
        # "{tmp}" in argv names a fresh directory that holds input.json
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "input.json").write_text(json.dumps(content))
            code, _, err = run_cli([arg.format(tmp=tmp) for arg in argv])
        self.assertEqual(code, 1, err)
        self.assertEqual([line for line in err.splitlines() if line.startswith("error:")],
                         [err.splitlines()[-1]])
        self.assertNotIn("Traceback", err)

    def test_separate_pair_file_holding_a_list(self):
        self.assert_domain_error(["separate", "--pair", "{tmp}/input.json"], [1, 2])

    def test_bound_pair_file_holding_a_list(self):
        self.assert_domain_error(["bound", "--pair", "{tmp}/input.json"], [1, 2])

    def test_separate_pair_of_numbers(self):
        self.assert_domain_error(["separate", "--pair", "{tmp}/input.json"], {"e1": 5, "e2": 6})

    def test_separate_null_radius(self):
        pair = {"e1": {"center": [0.0, 0.0], "radius": None},
                "e2": {"center": [3.0, 0.0], "radius": 1.0}}
        self.assert_domain_error(["separate", "--pair", "{tmp}/input.json"], pair)

    def test_plan_classes_of_numbers(self):
        self.assert_domain_error(["plan", "--classes", "{tmp}/input.json"], {"classes": [1, 2]})

    def test_width_mc_pair_of_numbers(self):
        self.assert_domain_error(["width-mc", "--pair", "{tmp}/input.json"], {"e1": 5, "e2": 6})

    def test_pca_toy_zero_dimension(self):
        self.assert_domain_error(["pca-toy", "--n", "0", "--radius", "1", "--out", "{tmp}/x.csv"])

    def test_width_mc_zero_dimension(self):
        self.assert_domain_error(["width-mc", "--alpha", "0.5", "--n", "0"])

    def test_classify_label_beyond_int64_names_its_line(self):
        with tempfile.TemporaryDirectory() as tmp:
            data = Path(tmp) / "data.csv"
            data.write_text("label,f0\n99999999999999999999999,1.0\n0,2.0\n1,3.0\n0,1.5\n"
                            "1,2.5\n0,0.1\n")
            code, _, err = run_cli(["classify", "--data", str(data)])
        self.assertEqual(code, 1, err)
        self.assertEqual(err.splitlines()[-1],
                         "error: line-2: label '99999999999999999999999' is outside int64")
        self.assertNotIn("Traceback", err)

    def test_classify_method_faults_name_their_fault(self):
        with tempfile.TemporaryDirectory() as tmp:
            data = str(Path(tmp) / "toy.csv")
            run_cli(["pca-toy", "--n", "3", "--radius", "0.5", "--samples", "20", "--seed", "1",
                     "--out", data])
            for method, line in (
                ("rp:x", "error: malformed-method: 'rp:x'"),
                ("rp:99", "error: method-out-of-range: 'rp:99' needs M in [1, 3]"),
                ("foo:1", "error: unknown-method: 'foo:1'; use identity, rp:M, or pca:M"),
            ):
                with self.subTest(method):
                    code, out, err = run_cli(["classify", "--data", data, "--method", method,
                                              "--seed", "2"])
                    self.assertEqual(code, 1, err)
                    self.assertEqual(out, "")
                    self.assertEqual(err.splitlines()[-1], line)
                    self.assertNotIn("Traceback", err)

    def test_classify_method_fault_comes_before_the_split(self):
        # four rows leave some class without a training sample at most seeds;
        # every method is parsed before the split and before any training
        with tempfile.TemporaryDirectory() as tmp:
            data = Path(tmp) / "d.csv"
            data.write_text("label,f0,f1,f2\n0,1.0,0.0,0.5\n1,2.0,1.0,0.0\n0,1.5,0.5,1.0\n"
                            "1,2.5,0.0,2.0\n")
            for methods in (["rp:99"], ["identity", "rp:99"]):
                argv = ["classify", "--data", str(data)]
                for method in methods:
                    argv += ["--method", method]
                with self.subTest(methods=methods), mock.patch.object(
                        projsep.classify, "train_mlr", side_effect=AssertionError("trained")):
                    code, out, err = run_cli(argv)
                    self.assertEqual(code, 1, err)
                    self.assertEqual(out, "")
                    self.assertEqual(err.splitlines()[-1],
                                     "error: method-out-of-range: 'rp:99' needs M in [1, 3]")
                    self.assertNotIn("Traceback", err)

    def test_half_angle_fault_is_a_stable_slug(self):
        # the offending value follows the slug, so one fault gives one slug
        for value in ("inf", "nan", "2"):
            for argv in (["cone-phase", "--n", "3", "--grid", value, "--trials", "2", "--seed", "1",
                          "--out", "{tmp}/x.csv"],
                         ["width-mc", "--alpha", value, "--n", "3", "--trials", "2", "--seed", "1"]):
                with self.subTest(command=argv[0], value=value), tempfile.TemporaryDirectory() as tmp:
                    code, out, err = run_cli([arg.format(tmp=tmp) for arg in argv])
                    self.assertEqual(code, 1, err)
                    self.assertEqual(out, "")
                    self.assertEqual(err.splitlines()[-1], "error: half-angle-out-of-range: "
                                     f"expected [0, pi/2], got {float(value)!r}")
                    self.assertNotIn("Traceback", err)

    def test_memory_error_is_one_error_line(self):
        # the sweep is mocked: a real allocation this large could exhaust the
        # host's memory where the kernel overcommits
        too_big = MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)")
        argv = ["cone-phase", "--n", "1000000", "--ms", "1000000", "--grid", "0.3",
                "--trials", "1", "--seed", "1", "--out", "x.csv"]
        with mock.patch.object(cli, "run_cone_phase", side_effect=too_big) as sweep:
            code, _, err = run_cli(argv)
        sweep.assert_called_once()
        self.assertEqual(code, 1)
        self.assertEqual(err.splitlines()[-1], "error: out-of-memory")
        self.assertNotIn("Traceback", err)


def mostly(good, bad, odds=10):
    """Draws from ``bad`` when a k drawn from 1..odds equals odds, else from ``good``."""
    return st.integers(1, odds).flatmap(lambda k: bad if k == odds else good)


numbers = mostly(st.integers(-12, 12).map(lambda k: k / 4),
                 st.sampled_from([float("nan"), float("inf"), 5e-324, 1e-310, 1e-300, 1e300,
                                  1e308, 1.7e308, -1e308, 10**400, None, "1"]),
                 odds=50)
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["center", "radius", "shape", "e1", "e2", "classes"]),
                      children, max_size=3),
    max_leaves=8,
)


def bodies(n, values=numbers):
    center = st.lists(values, min_size=n, max_size=n)
    radius = values.map(lambda value: abs(value) if isinstance(value, float) else value)
    diagonal = st.lists(radius, min_size=n, max_size=n).map(
        lambda d: [[d[i] if i == j else 0.0 for j in range(n)] for i in range(n)])
    columns = st.integers(0, n + 1).flatmap(lambda k: st.lists(
        st.lists(values, min_size=k, max_size=k), min_size=n, max_size=n))
    body = st.fixed_dictionaries({"center": center, "radius": radius}) \
        | st.fixed_dictionaries({"center": center, "shape": diagonal | columns})
    return mostly(body, json_values)


BODIES = [bodies(n) for n in range(5)]
# pairs whose every entry is 0, -1, 1 or near an end of the double range
ends = st.sampled_from([0.0, 1.0, -1.0, 5e-324, 1e-310, 1e-300, 1e300, 1e308, 1.7e308, -1e308])
extreme_pairs = st.integers(1, 3).flatmap(
    lambda n: st.fixed_dictionaries({"e1": bodies(n, ends), "e2": bodies(n, ends)}))
dims = mostly(st.integers(1, 3), st.integers(0, 4))
pairs = mostly(dims.flatmap(lambda n: st.fixed_dictionaries({"e1": BODIES[n], "e2": BODIES[n]})),
               json_values)
class_lists = dims.flatmap(lambda n: st.lists(BODIES[n], min_size=2, max_size=4))


def labelled_rows(width):
    """A header and rows of features labelled 0, 1, 0, 1, ... in turn."""
    rows = st.lists(st.lists(st.sampled_from(["0", "1", "2", "0.5", "-1"]),
                             min_size=width, max_size=width), min_size=6, max_size=10)
    return rows.map(lambda rows: [["label"] + [f"f{i}" for i in range(width)]]
                    + [[str(i % 2)] + row for i, row in enumerate(rows)])


# a data row blanked, its label quoted, or its label beyond int64
SPOILS = (lambda row: [], lambda row: [f'"{row[0]}"'] + row[1:],
          lambda row: ["99999999999999999999999"] + row[1:])


def spoiled(rows):
    """``rows`` with one data row spoiled."""
    pick = st.tuples(st.integers(1, len(rows) - 1), st.sampled_from(SPOILS))
    return pick.map(lambda p: rows[:p[0]] + [p[1](rows[p[0]])] + rows[p[0] + 1:])


arbitrary_rows = st.lists(
    st.lists(st.sampled_from(["label", "f0", "0", "1", "nan", "x", ""]), max_size=3), max_size=4)
# labelled rows; one time in three a few arbitrary cells, or labelled rows spoiled
csv_text = st.integers(1, 3).map(labelled_rows).flatmap(
    lambda labelled: mostly(labelled, arbitrary_rows | labelled.flatmap(spoiled), odds=3)
).map(lambda rows: "".join(",".join(row) + "\n" for row in rows))
small = mostly(st.integers(2, 6).map(str), st.sampled_from(["1", "0", "-1", "x"]))
reals = mostly(st.sampled_from(["0.1", "0.3", "0.5", "0.7", "1", "2.5"]),
               st.sampled_from(["0", "-1", "nan", "inf", "abc"]))
grids = mostly(st.sampled_from(["0.4", "0.2,0.6", "0:0.5:1", "1:1:3", "2", "6"]),
               st.sampled_from(["1:0:2", "2,1", "-1", "0", "abc", "0:1"]))
seeds = mostly(st.integers(0, 2**64 - 1), st.integers(-1, 2**64)).map(str)


class FileContent(NamedTuple):
    """A drawn value that is written to a file, whose path goes on the command line."""

    value: object


def file(content):
    return content.map(FileContent)


# subcommand -> {flag: strategy}; the first REQUIRED flags are usually drawn, the rest half the time
FLAGS = {
    "bound": {"--pair": file(pairs), "--eta": reals},
    "separate": {"--pair": file(pairs)},
    "cone-phase": {"--n": small, "--grid": grids, "--ms": grids, "--seed": seeds},
    "ellipsoid-phase": {"--n": small, "--grid": grids, "--ms": grids, "--seed": seeds,
                        "--variant": st.sampled_from(["general", "hyperplane", "x"])},
    "plan": {"--classes": file(mostly(class_lists | st.fixed_dictionaries(
                 {"classes": class_lists}), json_values)),
             "--p": reals},
    "width-mc": {"--n": small, "--pair": file(pairs), "--alpha": reals, "--seed": seeds},
    "pca-toy": {"--n": small, "--radius": reals, "--center-norm": reals, "--seed": seeds,
                "--kind": st.sampled_from(["two-balls", "cross-polytope", "x"])},
    "classify": {"--data": file(csv_text), "--ratio": reals, "--l2": reals, "--tol": reals,
                 "--method": st.sampled_from(["identity", "rp:1", "pca:1", "rp:0", "pca:x", "y"]),
                 "--seed": seeds},
}
REQUIRED = {"bound": 1, "separate": 1, "cone-phase": 2, "ellipsoid-phase": 2, "plan": 1,
            "width-mc": 2, "pca-toy": 2, "classify": 1}
# flags that bound the work of a run; always given, so no run takes long
BOUNDS = {"cone-phase": "--trials", "ellipsoid-phase": "--trials", "width-mc": "--trials",
          "pca-toy": "--samples", "classify": "--max-iters"}
CONFIGS = {command: mostly(st.none(), st.dictionaries(
               st.sampled_from([f.strip("-") for f in flags] + ["max_iter", "handler"]),
               json_values, max_size=3) | json_values, odds=5)
           for command, flags in FLAGS.items()}
usually = mostly(st.just(True), st.just(False))
work = mostly(st.integers(2, 3), st.integers(-1, 1)).map(str)


class TestEveryInputExits(unittest.TestCase):
    # 25 derandomized examples draw each spoiled dataset CSV at least once
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.data())
    def test_dispatch_returns_0_1_or_2(self, data):
        for command, flags in FLAGS.items():
            with tempfile.TemporaryDirectory() as tmp:
                code, _, err = run_cli(self.draw_argv(data, command, flags, Path(tmp)))
            self.assertIn(code, (0, 1, 2), err)
            self.assertNotIn("Traceback", err)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(extreme_pairs)
    def test_width_commands_at_both_ends_of_the_double_range(self, pair):
        with tempfile.TemporaryDirectory() as tmp:
            path, classes, plan = (Path(tmp) / name for name in ("pair", "classes", "plan"))
            path.write_text(json.dumps(pair))
            classes.write_text(json.dumps([pair["e1"], pair["e2"]]))
            for argv in (["bound", "--pair", str(path)],
                         ["width-mc", "--pair", str(path), "--trials", "3", "--seed", "1"],
                         ["plan", "--classes", str(classes), "--out", str(plan)]):
                code, text, err = run_cli(argv)
                self.assertIn(code, (0, 1), err)
                self.assertNotIn("Traceback", err)
                if code == 0 and argv[0] != "plan":
                    json.loads(text, parse_constant=strict_json_constant)
            if plan.exists():
                json.loads(plan.read_text(), parse_constant=strict_json_constant)

    def draw_argv(self, data, command, flags, tmp):
        argv = [command, "--out", str(tmp / "out")]
        if command in BOUNDS:
            argv += [BOUNDS[command], data.draw(work)]
        for index, flag in enumerate(flags):
            if not data.draw(usually if index < REQUIRED[command] else st.booleans()):
                continue
            value = data.draw(flags[flag])
            if isinstance(value, FileContent):
                path = tmp / flag.strip("-")
                text = value.value
                path.write_text(text if isinstance(text, str) else json.dumps(text))
                value = str(path)
            argv += [flag, value]
        config = data.draw(CONFIGS[command])
        if config is not None:
            path = tmp / "config.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        return argv


if __name__ == "__main__":
    unittest.main()
