import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import projsep
from projsep import __version__
from projsep.cli import SCHEMA_VERSION, dispatch


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


if __name__ == "__main__":
    unittest.main()
