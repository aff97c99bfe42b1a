#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload runs briefly, reports
every metric BENCHMARK.json names in its unit, and fails no op; a handler
that corrupts its replies makes failures show.

    python3 chantbench/smoke_test.py

Builds the benchmark first (see run.py). Takes about half a minute.
"""
import json
import subprocess
import sys
import unittest

import run

WORKLOADS = ("pingpong_shm", "rsr_mix", "fig9_wq", "mn_sync")
SMOKE_DIR = run.ROOT / ".bench_build" / "smoke"


def bench(workload, trace, *extra):
    args = ["--workload", workload, "--seed", "11", "--seconds", "1",
            "--trace", str(trace), *extra]
    return run.run_binary(BINARY, args)


class ChantbenchSmoke(unittest.TestCase):
    def assert_metrics(self, report, trace):
        for m in run.expected_metrics(trace):
            with self.subTest(metric=m["name"]):
                self.assertIn(m["name"], report["metrics"])
                self.assertEqual(report["metrics"][m["name"]]["unit"], m["unit"])

    def assert_clean(self, report):
        self.assertGreater(report["attempted"], 0)
        self.assertEqual(report["failed"], 0)
        self.assertEqual(report["metrics"]["failed_ratio"],
                         {"value": 0, "unit": "ratio"})

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                report = bench(w, 0)
                self.assert_clean(report)
                self.assert_metrics(report, 0)
                for name in ("op_us_p50", "ops_per_s", "setup_s", "max_rss_MB"):
                    self.assertGreater(report["metrics"][name]["value"], 0, name)

    def test_traced_run(self):
        SMOKE_DIR.mkdir(parents=True, exist_ok=True)
        layer = {}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                path = SMOKE_DIR / f"{w}.json"
                report = bench(w, 1, "--trace-out", str(path))
                self.assert_clean(report)
                self.assert_metrics(report, 1)
                trace = json.loads(path.read_text())
                self.assertTrue(any(e["ph"] == "X" for e in trace["traceEvents"]))
                layer[w] = {k: v["value"] for k, v in report["metrics"].items()}
        self.assertGreater(layer["pingpong_shm"]["nx.rt_us_p50"], 0)
        self.assertGreater(layer["pingpong_shm"]["chant.p2p_overhead_us_p50"], 0)
        self.assertGreater(layer["rsr_mix"]["nx.bytes_copied_per_op"], 0)
        self.assertGreater(layer["rsr_mix"]["chant.call_tail_us_p50"], 0)
        self.assertGreater(layer["rsr_mix"]["chant.remote_create_us_p50"], 0)
        # fig9_wq stages only its 8 B ticks that arrive before their
        # receive is posted: at most one tick's bytes per op.
        self.assertLessEqual(layer["fig9_wq"]["nx.bytes_copied_per_op"], 8)
        self.assertGreater(layer["fig9_wq"]["lwt.wq_poll_tests_per_op"], 0)
        self.assertGreater(layer["mn_sync"]["lwt.spawn_join_us_p50"], 0)

    def test_corrupted_replies_count_as_failed(self):
        report = bench("rsr_mix", 0, "--corrupt-replies")
        self.assertGreater(report["failed"], 0)
        self.assertGreater(report["metrics"]["failed_ratio"]["value"], 0)

    def test_run_py_summary_line(self):
        out = subprocess.run(
            [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload",
             "rsr_mix", "--seed", "3", "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, text=True, timeout=run.RUN_TIMEOUT_S,
            check=True)
        summary = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(summary), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(summary["correct"])
        self.assertEqual(set(summary["metrics"]),
                         {m["name"] for m in run.expected_metrics(0)})


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
