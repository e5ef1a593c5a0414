#!/usr/bin/env python3
"""Self-tests of the benchmark: determinism of its digests and agreement
of its printed metrics with BENCHMARK.json.

Run from the repository root:  python3 perfbench/test_perfbench.py
Builds the benchmark binary through run.py first (about half a minute on 4 cores
the first time); the tests then take about a minute on shortened runs.
"""

import functools
import json
import subprocess
import unittest

import run

SECONDS = "0.5"


@functools.lru_cache(maxsize=None)
def binary():
    return run.build()


def invoke(workload, seed=1, trace=0, extra=()):
    """Runs one shortened workload; returns (digest, result, metric lines)."""
    cmd = run.bench_command(binary(), workload, seed, SECONDS, trace,
                             ("--short", *extra))
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          check=True)
    lines = proc.stdout.splitlines()
    digest = next(l.split()[1] for l in lines if l.startswith("sim_digest "))
    printed = [l.split() for l in lines if l.startswith("metric ")]
    return digest, json.loads(lines[-1]), {p[1]: p[3] for p in printed}


class Determinism(unittest.TestCase):
    def test_digest_independent_of_sim_threads(self):
        one, r1, _ = invoke("membound_tiles", extra=("--sim-threads", "1"))
        four, r4, _ = invoke("membound_tiles", extra=("--sim-threads", "4"))
        self.assertTrue(r1["correct"] and r4["correct"])
        self.assertEqual(one, four)

    def test_digest_follows_seed(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a, ra, _ = invoke(workload, seed=11)
                b, _, _ = invoke(workload, seed=11)
                c, _, _ = invoke(workload, seed=12)
                self.assertTrue(ra["correct"])
                self.assertEqual(ra["failed"], 0)
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)


class MetricNames(unittest.TestCase):
    def test_printed_metrics_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.WORKLOADS))
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[section]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    _, result, printed = invoke(workload, trace=trace)
                    self.assertEqual(printed, want)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        want)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})


if __name__ == "__main__":
    unittest.main()
