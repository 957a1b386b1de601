import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from typing import NamedTuple

from hypothesis import given, settings
from hypothesis import strategies as st

import projsep
from projsep import __version__
from projsep.cli import MAX_GRID_POINTS, SCHEMA_VERSION, dispatch, parse_grid


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, out.getvalue(), err.getvalue()


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


class TestGridRanges(unittest.TestCase):
    def assert_one_error_line(self, grid):
        with tempfile.TemporaryDirectory() as tmp:
            code, _, err = run_cli(["cone-phase", "--n", "2", "--ms", "1", "--trials", "1",
                                    "--grid", grid, "--out", str(Path(tmp) / "x.csv")])
        self.assertEqual(code, 1, err)
        self.assertEqual([line for line in err.splitlines() if line.startswith("error:")],
                         [err.splitlines()[-1]])

    def test_non_finite_bound_is_a_domain_error(self):
        for grid in ("0:1:inf", "nan:1:2", "0:inf:1"):
            with self.subTest(grid):
                self.assert_one_error_line(grid)

    def test_too_many_points_is_a_domain_error(self):
        step = 1.0 / MAX_GRID_POINTS
        self.assertEqual(len(parse_grid(f"0:{step}:{1.0 - step}")), MAX_GRID_POINTS)
        # cap + 1 half-angles in [0, 1]: a cheap sweep when not rejected
        self.assert_one_error_line(f"0:{step}:1")


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
            report = Path(report_path).read_text().splitlines()
        self.assertEqual(report[0], "method,M,seed,error,train_seconds")
        self.assertEqual(len(report), 3)


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
        self.assertIn("error: config-key-max-iter-is-not-a-flag-of-this-subcommand", err)


class TestModuleEntryPoint(unittest.TestCase):
    def test_python_m_prints_usage(self):
        src = str(Path(projsep.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "projsep.cli", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        self.assertEqual(done.returncode, 0, done.stderr)
        self.assertIn("usage: projsep", done.stdout)
        self.assertIn("cone-phase", done.stdout)


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


def mostly(good, bad, odds=10):
    """Draws from ``bad`` when a k drawn from 1..odds equals odds, else from ``good``."""
    return st.integers(1, odds).flatmap(lambda k: bad if k == odds else good)


numbers = mostly(st.integers(-12, 12).map(lambda k: k / 4),
                 st.sampled_from([float("nan"), float("inf"), 1e300, 10**400, None, "1"]),
                 odds=50)
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["center", "radius", "shape", "e1", "e2", "classes"]),
                      children, max_size=3),
    max_leaves=8,
)


def bodies(n):
    center = st.lists(numbers, min_size=n, max_size=n)
    radius = numbers.map(lambda value: abs(value) if isinstance(value, float) else value)
    diagonal = st.lists(radius, min_size=n, max_size=n).map(
        lambda d: [[d[i] if i == j else 0.0 for j in range(n)] for i in range(n)])
    columns = st.integers(0, n + 1).flatmap(lambda k: st.lists(
        st.lists(numbers, min_size=k, max_size=k), min_size=n, max_size=n))
    body = st.fixed_dictionaries({"center": center, "radius": radius}) \
        | st.fixed_dictionaries({"center": center, "shape": diagonal | columns})
    return mostly(body, json_values)


BODIES = [bodies(n) for n in range(5)]
dims = mostly(st.integers(1, 3), st.integers(0, 4))
pairs = mostly(dims.flatmap(lambda n: st.fixed_dictionaries({"e1": BODIES[n], "e2": BODIES[n]})),
               json_values)
class_lists = dims.flatmap(lambda n: st.lists(BODIES[n], min_size=2, max_size=4))
# rows of features labelled 0, 1, 0, 1, ... in turn, or a few arbitrary cells
csv_text = st.integers(1, 3).flatmap(lambda width: mostly(
    st.lists(st.lists(st.sampled_from(["0", "1", "2", "0.5", "-1"]),
                      min_size=width, max_size=width), min_size=6, max_size=10)
    .map(lambda rows: [["label"] + [f"f{i}" for i in range(width)]]
         + [[str(i % 2)] + row for i, row in enumerate(rows)]),
    st.lists(st.lists(st.sampled_from(["label", "f0", "0", "1", "nan", "x", ""]), max_size=3),
             max_size=4),
)).map(lambda rows: "".join(",".join(row) + "\n" for row in rows))
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
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(st.data())
    def test_dispatch_returns_0_1_or_2(self, data):
        for command, flags in FLAGS.items():
            with tempfile.TemporaryDirectory() as tmp:
                code, _, err = run_cli(self.draw_argv(data, command, flags, Path(tmp)))
            self.assertIn(code, (0, 1, 2), err)
            self.assertNotIn("Traceback", err)

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
