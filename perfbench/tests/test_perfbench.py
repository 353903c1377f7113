#!/usr/bin/env python3
"""Tests of the benchmark itself: its C++ unit tests (tail-percentile rule,
seed determinism, failure accounting, answer checksums), that every metric
it prints is well-formed, declared in BENCHMARK.json and carries the
declared unit, and that it rejects flags it does not know.

    python3 perfbench/tests/test_perfbench.py

Run from the root of a checkout; builds like run.py does.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
import run  # noqa: E402

ROOT = HERE.parent.parent
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
TAIL = re.compile(r"samples: .* p([0-9.]+) [0-9.]+ ms \(highest")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build("perfbench")
        cls.unit = run.build("perfbench_test")
        cls.bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.spec = json.loads((HERE.parent / "workloads.json").read_text())

    def declared(self, section):
        return {m["name"]: m["unit"] for m in self.bench[section]}

    def test_unit_tests_pass(self):
        self.assertIsNotNone(self.unit)
        self.assertEqual(subprocess.run([str(self.unit)]).returncode, 0)

    def test_listed_metrics_are_declared(self):
        out = subprocess.run([str(self.binary), "--list-metrics"],
                             capture_output=True, text=True, check=True)
        listed = dict(line.split() for line in out.stdout.splitlines())
        declared = {**self.declared("end_to_end"), **self.declared("per_layer")}
        self.assertEqual(listed, declared)
        for name in listed:
            self.assertRegex(name, NAME)

    def test_workloads_agree(self):
        names = [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(sorted(names), sorted(self.spec["workloads"]))
        per_layer = set(self.declared("per_layer"))
        self.assertEqual(set(self.spec["layer_map"]), per_layer)

    def test_rejects_unknown_flags(self):
        base = [str(self.binary), "--workload", "semantic-scan", "--seed", "1",
                "--seconds", "0.5", "--trace", "0", "--tiny"]
        for extra in (["--set", "rows=10"], ["--rows", "10"]):
            with self.subTest(extra=extra):
                out = subprocess.run(base + extra, capture_output=True,
                                     text=True, timeout=60)
                self.assertNotEqual(out.returncode, 0)
        for flag, bad in (("--seed", "x1"), ("--seconds", "0"), ("--trace", "2")):
            with self.subTest(flag=flag):
                cmd = list(base)
                cmd[cmd.index(flag) + 1] = bad
                out = subprocess.run(cmd, capture_output=True, text=True,
                                     timeout=60)
                self.assertNotEqual(out.returncode, 0)

    def test_printed_metrics(self):
        for workload in self.spec["workloads"]:
            for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    # Small inputs, so every workload runs in about a second.
                    cmd = [str(self.binary), "--workload", workload, "--seed",
                           "3", "--seconds", "0.5", "--trace", trace, "--tiny"]
                    out = subprocess.run(cmd, capture_output=True, text=True,
                                         timeout=120)
                    self.assertEqual(out.returncode, 0, out.stderr)
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], out.stdout)
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, self.declared(section))
                    for name in printed:
                        self.assertRegex(name, NAME)
                    # The tail percentile workloads.json documents is the
                    # one the run reports.
                    tail = TAIL.search(out.stdout)
                    self.assertIsNotNone(tail, out.stdout)
                    self.assertEqual(
                        float(tail.group(1)),
                        self.spec["workloads"][workload]["tail_percentile"])


if __name__ == "__main__":
    unittest.main()
