#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py      (from the root of a checkout)

* The exact-count pass of every workload gives identical counts on two runs.
* A one-second run of every workload, traced and untraced, ends in a
  correct, error-free result line whose metrics are exactly the ones
  BENCHMARK.json lists, with their units; end-to-end values are never 0.
"""

import json
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's own build step)

WORKLOADS = ["small_hits", "large_misses", "stream_cluster"]
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def setUpModule():
    if not run.build():
        raise RuntimeError("perfbench build failed")


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class CountPassTest(unittest.TestCase):
    def counts(self, workload):
        out = subprocess.run(
            [str(run.BINARY), "--counts-only", "--workload", workload],
            capture_output=True, text=True, timeout=170)
        self.assertEqual(out.returncode, 0, out.stderr)
        return last_json(out.stdout)["counts"]

    def test_counts_repeat_exactly(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self.counts(workload)
                self.assertEqual(first, self.counts(workload))
                self.assertGreater(first["count.round_trips"], 0)
                self.assertGreater(first["count.store_gets"], 0)


class ResultLineTest(unittest.TestCase):
    def result(self, workload, trace):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", trace],
            cwd=HERE.parent, capture_output=True, text=True, timeout=300)
        self.assertEqual(out.returncode, 0, out.stderr)
        return last_json(out.stdout)

    def test_result_lines(self):
        for workload in WORKLOADS:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    r = self.result(workload, trace)
                    self.assertEqual(
                        set(r), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in BENCH[key]}
                    units = {k: v["unit"] for k, v in r["metrics"].items()}
                    self.assertEqual(units, expected)
                    if trace == "0":
                        for name, m in r["metrics"].items():
                            self.assertGreater(m["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
