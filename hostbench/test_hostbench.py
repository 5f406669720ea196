"""Tests of the host benchmark itself.

  python3 -m unittest discover -s hostbench -p 'test_*.py'

The smoke test builds the session binary (first time only) and runs all four
workloads end to end, untraced and traced, at smoke size.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SCRATCH = run.BUILD / "test-scratch"


class SpecTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        spec = run.load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["paths"], ["hostbench"])
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))
        runs = 4 + 22 * len(spec["workloads"])
        self.assertLess(runs * (spec["run_seconds"] + 6), 3000)


class CompareTest(unittest.TestCase):
    def test_verdicts(self):
        a = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98]
        self.assertEqual(run.verdict(a, [1.3 * x for x in a], 0.1,
                                     "lower")[0], "worse")
        self.assertEqual(run.verdict(a, [0.8 * x for x in a], 0.1,
                                     "lower")[0], "better")
        self.assertEqual(run.verdict(a, [0.8 * x for x in a], 0.1,
                                     "higher")[0], "worse")
        self.assertEqual(run.verdict(a, list(a), 0.1, "lower")[0], "same")
        noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6]
        self.assertEqual(run.verdict(a, noisy, 0.1, "lower")[0],
                         "unresolved")
        self.assertEqual(run.verdict(noisy, [0.1] * 6, 0.1, "lower")[0],
                         "better")

    def test_too_few_runs_are_unresolved(self):
        a = [1.00, 1.01, 0.99, 1.00]
        for b in ([0.5], [0.5, 0.5], [2.0], [1.0]):
            self.assertEqual(run.verdict(a, b, 0.1, "lower")[0],
                             "unresolved")
            self.assertEqual(run.verdict(b, a, 0.1, "lower")[0],
                             "unresolved")

    def test_timings_need_interleaved_sets(self):
        self.assertTrue(run.interleaved([0, 2, 4, 6], [1, 3, 5, 7]))
        self.assertFalse(run.interleaved([0, 1, 2, 3], [10, 11, 12, 13]))
        self.assertFalse(run.interleaved([0, 1, 2, 3], []))
        self.assertFalse(run.interleaved([0, 2, 4], [1, 3, None]))
        a = [1.00, 1.01, 0.99, 1.00]
        b = [1.3 * x for x in a]
        self.assertEqual(run.verdict(a, b, 0.1, "lower", timing=True,
                                     same_host=False)[0], "unresolved")
        self.assertEqual(run.verdict(a, b, 0.1, "lower", timing=False,
                                     same_host=False)[0], "worse")

    def test_repeated_seed_keeps_earlier_result(self):
        d = SCRATCH / "result-path"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        first = run.result_path(d, "mysql-seed1", 0)
        first.write_text("{}")
        second = run.result_path(d, "mysql-seed1", 0)
        self.assertNotEqual(first, second)
        self.assertFalse(second.exists())

    def compare_sets(self, start_b):
        """--compare output for B = 1.5 x A; A runs start at 0, 2, 4, 6."""
        spec = run.load_spec()
        dirs = []
        for label, scale, first in (("a", 1.0, 0), ("b", 1.5, start_b)):
            d = SCRATCH / ("compare-" + label)
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)
            for seed in range(4):
                metrics = {m["name"]: {"value": scale * (1 + 0.001 * seed),
                                       "unit": m["unit"]}
                           for m in spec["end_to_end"]}
                (d / ("pbzip2-seed%d-trace0-run1.json" % seed)).write_text(
                    json.dumps({"workload": "pbzip2", "seed": seed,
                                "trace": 0, "size": "full",
                                "started": first + 2 * seed,
                                "result": {"metrics": metrics}}))
            dirs.append(str(d))
        out = subprocess.run([sys.executable, str(run.ROOT / "hostbench" /
                                                  "run.py"), "--compare"] +
                             dirs, capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stderr)
        return spec, out.stdout

    def test_compare_reads_saved_result_sets(self):
        spec, out = self.compare_sets(start_b=1)
        self.assertIn("summary: %d worse" % len(spec["end_to_end"]), out)

    def test_compare_leaves_back_to_back_timings_unresolved(self):
        spec, out = self.compare_sets(start_b=100)
        timings = sum(m["unit"] in ("s", "ms") for m in spec["end_to_end"])
        self.assertIn("summary: %d unresolved, %d worse" %
                      (timings, len(spec["end_to_end"]) - timings), out)


class SmokeTest(unittest.TestCase):
    def test_every_workload_end_to_end(self):
        spec = run.load_spec()
        out = subprocess.run(
            [sys.executable, str(run.ROOT / "hostbench" / "run.py"),
             "--workload", "all", "--size", "smoke", "--seconds", "0",
             "--out", str(SCRATCH / "smoke")],
            capture_output=True, text=True, timeout=900)
        self.assertEqual(out.returncode, 0, out.stderr)
        results = json.loads(out.stdout.strip().splitlines()[-1])
        for w in spec["workloads"]:
            for trace, names in ((0, spec["end_to_end"]),
                                 (1, spec["per_layer"])):
                r = results["%s/trace%d" % (w["name"], trace)]
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertGreater(r["attempted"], 0)
                self.assertEqual(set(r["metrics"]),
                                 {m["name"] for m in names})
                for m in names:
                    self.assertEqual(r["metrics"][m["name"]]["unit"],
                                     m["unit"])
        self.assertTrue((run.BUILD / "trace-racy-seed1.json").is_file())

    def test_fails_without_program_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(run.SPEC_FILE, bare / "BENCHMARK.json")
        shutil.copytree(run.ROOT / "hostbench", bare / "hostbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "hostbench/run.py", "--workload", "pbzip2",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
