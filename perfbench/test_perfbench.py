#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the benchmark the way run.py does, then checks that
  * one seed gives identical generated inputs (compared by hash) and
    identical paper-model counts, run after run;
  * a different seed changes every workload's inputs;
  * each workload runs for a second, passes its correctness checks and
    reports exactly the metrics BENCHMARK.json declares, untraced and
    traced.
"""
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = [w["name"] for w in json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))["workloads"]]
BINARY = None


def inputs(workload, seed):
    out = subprocess.run([BINARY, "--inputs", "--workload", workload, "--seed", str(seed),
                          "--seconds", "10"], check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().split("\n")[-1])


class Reproducibility(unittest.TestCase):
    def test_same_seed_same_inputs_and_counts(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(inputs(w, 7), inputs(w, 7))

    def test_other_seed_other_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertNotEqual(inputs(w, 7)["inputs_hash"], inputs(w, 8)["inputs_hash"])

    def test_paper_model_counts_are_correct_and_fixed(self):
        a, b = inputs("paper-model", 1), inputs("paper-model", 2)
        for adversary in ("random", "collision"):
            self.assertTrue(a[adversary]["correct"])
            self.assertEqual(a[adversary], b[adversary])
        self.assertEqual(a["random"]["n"], 1 << 16)
        self.assertEqual(a["collision"]["n"], 1 << 12)


class ShortRuns(unittest.TestCase):
    def run_one(self, workload, trace):
        proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                               "--workload", workload, "--seed", "5", "--seconds", "1",
                               "--trace", str(trace)],
                              cwd=run.ROOT, capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), run.declared_metrics(trace))
        return result["metrics"]

    def test_untraced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                m = self.run_one(w, 0)
                for name, v in m.items():
                    self.assertGreater(v["value"], 0, name)

    def test_traced_separates_layers(self):
        reuse = self.run_one("reuse-churn", 1)
        scatter = self.run_one("full-scatter", 1)
        self.assertGreaterEqual(reuse["renaming.stash.hit_rate"]["value"], 0.9)
        self.assertLessEqual(scatter["renaming.stash.hit_rate"]["value"], 0.1)
        self.assertGreater(scatter["renaming.service.probes_per_acquire_mean"]["value"],
                           reuse["renaming.service.probes_per_acquire_mean"]["value"])
        elastic = self.run_one("elastic-burst", 1)
        for name in ("elastic.grows", "elastic.shrinks", "elastic.reclaimed_groups"):
            self.assertGreaterEqual(elastic[name]["value"], 1, name)
        self.assertGreaterEqual(elastic["lease.recovered_ratio"]["value"], 0.99)
        self.assertEqual(elastic["lease.guard_trips"]["value"], 0)


if __name__ == "__main__":
    BINARY = run.build(run.build_dir())
    unittest.main()
