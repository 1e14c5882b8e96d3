#!/usr/bin/env python3
"""Smoke test of the repo benchmark on tiny inputs.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json through perfbench/run.py --smoke,
untraced and traced, and checks that each run succeeds, emits exactly the
metrics BENCHMARK.json names (with their units) and repeats its
deterministic outputs for a seed. Also checks that the benchmark refuses to
run, without printing a result, in a tree that holds only BENCHMARK.json
and perfbench/.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
# Lines carrying outputs that must repeat exactly for a seed.
DETERMINISTIC = re.compile(r"^(instance \d+:|dummy_transfers =|outputs:|metric cost_over_lb)")


def run(workload, trace, seed=7, cwd=ROOT):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, expected):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in expected])
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_metric_is_emitted(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, expected in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc = run(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    self.check_metrics(result_of(proc), expected)
                    if trace:
                        self.assertIn("unattributed", proc.stdout)
                        self.assertIn("tracing overhead", proc.stdout)
                    else:
                        for m in SPEC["end_to_end"]:
                            self.assertIsNotNone(
                                re.search(rf"^metric {re.escape(m['name'])} .* {re.escape(m['unit'])}$",
                                          proc.stdout, re.M), m["name"])

    def test_outputs_repeat_for_a_seed(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                first, second = run(workload, 0, seed=11), run(workload, 0, seed=11)
                lines = [[l for l in p.stdout.splitlines() if DETERMINISTIC.match(l)]
                         for p in (first, second)]
                self.assertTrue(lines[0])
                self.assertEqual(lines[0], lines[1])

    def test_refuses_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("paper-dummy-rich", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
