#!/usr/bin/env python3
"""Smoke-size self-check of the benchmark: python3 perfbench/test_selfcheck.py

Runs every workload untraced and the traced breakdown once, all at smoke
size, and checks the result line, the metric names and units against
BENCHMARK.json and that every output check passed.  It also checks that
the benchmark fails cleanly, without a result line, in a directory that
holds only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


class SelfCheck(unittest.TestCase):
    def check_result(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(doc), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(doc["correct"], proc.stdout)
        self.assertEqual(doc["failed"], 0)
        self.assertGreaterEqual(doc["attempted"], 1)
        listed = spec()["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(doc["metrics"]), {m["name"] for m in listed})
        for m in listed:
            got = doc["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
        self.assertIn("machine: cpu=", proc.stdout)
        return doc

    def test_workloads(self):
        for w in spec()["workloads"]:
            with self.subTest(workload=w["name"]):
                doc = self.check_result(w["name"], 0)
                for name, m in doc["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced(self):
        doc = self.check_result("cell-xu3", 1)
        share = doc["metrics"]["core.attributed_share"]["value"]
        self.assertGreater(share, 0.5)
        self.assertEqual(doc["metrics"]["cache.hit_ratio"]["value"], 1)

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "selfcheck-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cell-xu3",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
