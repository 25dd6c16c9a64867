#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/test_perfbench.py        # from the checkout root

* every metric BENCHMARK.json names has a unit and a well-formed name;
* the knee search returns the right rung on synthetic latency curves
  (the gtest binary perfbench_unit_test);
* a small-size run of each workload succeeds and reports every
  end-to-end metric (untraced) or per-layer metric (traced) with its unit;
* a traced run's span trace passes trace_inspect --validate;
* a run with an injected fault (one object crashed, undrained, before a
  membership check) fails the correctness gate: exit 1, "correct": false.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_small(workload, trace, trace_out="", fault=""):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "5", "--trace", str(trace), "--small"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if fault:
        cmd += ["--fault", fault]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    return proc


class MetricNames(unittest.TestCase):
    def test_names_and_units(self):
        s = spec()
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        self.assertEqual(len(names), len(set(names)), "metric names repeat")
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in s["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in s["end_to_end"]))
        self.assertLessEqual({w["name"] for w in s["workloads"]}, set(run.WORKLOADS))


class KneeSearch(unittest.TestCase):
    def test_unit_tests(self):
        bdir = run.build(os.path.join(ROOT, run.build_dir()))
        subprocess.run(["cmake", "--build", bdir, "--target", "perfbench_unit_test"],
                       check=True, capture_output=True)
        proc = subprocess.run([os.path.join(bdir, "perfbench_unit_test")],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


class SmallRuns(unittest.TestCase):
    def check(self, workload, trace):
        s = spec()
        tmp = os.path.join(ROOT, run.build_dir(), "tests")
        os.makedirs(tmp, exist_ok=True)
        trace_out = os.path.join(tmp, "trace-%s.json" % workload) if trace else ""
        proc = run_small(workload, trace, trace_out)
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:] + proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = s["per_layer"] if trace else s["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        # Every metric is printed by name with its unit before the JSON line.
        printed = {ln.split()[0] for ln in lines[:-1] if ln.split()}
        self.assertTrue({m["name"] for m in wanted} <= printed)
        if trace:
            validate = os.path.join(ROOT, run.build_dir(), "trace_inspect")
            v = subprocess.run([validate, trace_out, "--validate"],
                               capture_output=True, text=True)
            self.assertEqual(v.returncode, 0, v.stdout + v.stderr)

    def test_sim_grow_churn(self):
        self.check("sim_grow_churn", 0)

    def test_sim_serve_zipf_writes(self):
        self.check("sim_serve_zipf_writes", 0)

    def test_traced_sim_grow_churn(self):
        self.check("sim_grow_churn", 1)

    def test_traced_sim_serve_zipf_writes(self):
        self.check("sim_serve_zipf_writes", 1)


class CorrectnessGate(unittest.TestCase):
    def check_fault(self, workload, expected):
        proc = run_small(workload, 0, fault="views")
        self.assertEqual(proc.returncode, 1, proc.stdout[-2000:] + proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("WRONG: " + expected, proc.stdout)

    def test_sim_grow_churn_views_diverge(self):
        self.check_fault("sim_grow_churn", "churn round did not restore N and converge")

    def test_sim_serve_zipf_writes_views_diverge(self):
        self.check_fault("sim_serve_zipf_writes",
                         "lo: writes did not restore N and converge")


if __name__ == "__main__":
    os.chdir(ROOT)
    unittest.main()
