#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 relbench/test_relbench.py

The metric-math tests are pure Python. The check tests run the real
benchmark (building it first if needed, which takes a minute) with a
fault injected, and expect the run to be reported as failed.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402


class MetricMathTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(metrics.median([3, 1, 2]), 2.0)
        self.assertEqual(metrics.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            metrics.median([])

    def test_percentile_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(metrics.percentile(values, 99), 99.0)
        self.assertEqual(metrics.percentile(values, 100), 100.0)
        self.assertEqual(metrics.percentile(values, 50), 50.0)
        self.assertEqual(metrics.percentile([7, 5], 1), 5.0)
        self.assertEqual(metrics.percentile([5], 99), 5.0)
        with self.assertRaises(ValueError):
            metrics.percentile(values, 0)

    def test_ratio_and_explained_frac(self):
        self.assertEqual(metrics.ratio(1, 4), 0.25)
        self.assertEqual(metrics.ratio(5, 0), 0.0)
        # 100 ns/op x 3e6 ops = 0.3 s of a 1.2 s self time.
        self.assertAlmostEqual(metrics.explained_frac(100 * 3e6, 1.2e9), 0.25)
        self.assertEqual(metrics.explained_frac(1e6, 0), 0.0)

    def test_best_slice_rate_takes_each_slice_at_its_fastest(self):
        runs = [{"slice_ns": [4e6, 1e6]}, {"slice_ns": [2e6, 3e6]}]
        # Fastest slices: 2 ms + 1 ms = 3 ms of host time for 30 sim ms.
        self.assertAlmostEqual(metrics.best_slice_rate(30.0, runs), 1e4)
        with self.assertRaises(ValueError):
            metrics.best_slice_rate(30.0, [{"slice_ns": [1.0]},
                                           {"slice_ns": [1.0, 2.0]}])

    def test_end_to_end_from_driver_document(self):
        model = {"dag_deadline_frac": 0.5, "forward_coloc_frac": 0.6,
                 "dram_traffic_frac": 0.7, "goodput_rps": 80.0,
                 "admitted_frac": 1.0,
                 "latencies_ms": [float(v) for v in range(200, 0, -1)]}
        doc = {"horizon_ms": 100.0, "peak_rss_mb": 42.0, "model": model,
               "setup_ns": [3e5, 1e5, 2e5],
               "runs": [{"kind": "timed", "slice_ns": [5e7, 5e7]},
                        {"kind": "reference", "slice_ns": [1.0, 1.0]}]}
        m = metrics.end_to_end(doc)
        self.assertEqual(m["setup_s"], (2e-4, "s"))
        self.assertEqual(m["sim_ms_per_host_s"], (1000.0, "ms/s"))
        self.assertEqual(m["peak_rss_mb"], (42.0, "MB"))
        self.assertEqual(m["model.goodput_rps"], (80.0, "1/sim_s"))
        # Nearest rank: 198 of 200 latencies lie at or below 198 ms.
        self.assertEqual(m["model.p99_latency_ms"], (198.0, "sim_ms"))


def traced_doc(closed_loop):
    """A traced-mode driver document of one profiled and one timed run."""
    lad = {"sim.dispatch_ns": 100.0, "mem.claim_ns": 20.0,
           "mem.claim_ledger_ns": 40.0, "interconnect.path_ns": 30.0,
           "interconnect.path_claim_ns": 60.0, "dma.transfer_ns": 400.0,
           "stats.union_add_ns": 10.0, "trace.span_build_ns": 1000.0,
           "core.soc_build_us": 50.0, "sched.forward_share": 0.9,
           "sched.RELIEF.push_select_ns_mean": 200.0,
           "sched.RELIEF.push_select_ns_peak": 300.0,
           "sched.LL.push_select_ns_mean": 20.0,
           "sched.LL.push_select_ns_peak": 30.0,
           "kernels.canny.iter_ns": 1e6, "kernels.ISP.mpix_per_s": 70.0,
           "dag.canny.build_us": 4.0}
    counts = {"runs": 1, "events": 1e6, "heap_callables": 0,
              "decisions": 1e5, "queue_depth_mean": 2.0,
              "queue_peak_depth": 7, "claims": 1e6, "dram_transfers": 3e5,
              "fabric_transfers": 2e5, "dma_transfers": 2e5, "tasks": 1e5,
              "scratch_reuses": 0, "scratch_allocs": 0,
              "fwd_candidates": 9e4,
              "arrivals": 0 if closed_loop else 4000,
              "kept_traces": 0 if closed_loop else 1000,
              "app_runs": {"canny": 50}, "app_builds": {"canny": 1}}
    prof = {"total": 2e9, "other": 1e6, "sched": 1e9, "mem": 8e7,
            "interconnect": 1e7, "dma": 5e7, "kernels": 1e8, "stats": 0,
            "serve": 0 if closed_loop else 2e8}
    return {"workload": "w", "policy": "RELIEF", "functional": 0,
            "horizon_ms": 100.0, "counts": counts, "ladder": lad,
            "hostprof_ns": prof,
            "spans_ns": {"construct": 6e4, "build": 5e3 if closed_loop else 0,
                         "report": 1e7},
            "probe": {"short_ms": 50.0, "long_ms": 100.0,
                      "short_rss_mb": 40.0, "long_rss_mb": 41.0},
            "runs": [{"kind": "profiled", "slice_ns": [6e7]},
                     {"kind": "timed", "slice_ns": [5e7]}]}


class PerLayerTest(unittest.TestCase):
    def test_metric_names_do_not_depend_on_the_workload(self):
        closed, _ = metrics.per_layer(traced_doc(True))
        served, _ = metrics.per_layer(traced_doc(False))
        self.assertEqual(set(closed), set(served))
        # Per-policy and per-family names follow the ladder's keys.
        self.assertIn("sched.LL.push_select_ns_peak", closed)
        self.assertIn("kernels.ISP.mpix_per_s", closed)
        self.assertIn("dag.canny.build_us", closed)

    def test_figures_zero_by_construction_are_not_metrics(self):
        m, scoped = metrics.per_layer(traced_doc(True))
        for name in ("serve.self_s", "serve.arrivals", "trace.kept_frac",
                     "stats.self_s", "kernels.scratch_reuse_frac"):
            self.assertNotIn(name, m)
            self.assertNotIn(name, scoped)
        self.assertIn("dag.self_s", scoped)
        m, scoped = metrics.per_layer(traced_doc(False))
        self.assertEqual(scoped["serve.arrivals"], (4000.0, "count"))
        self.assertEqual(scoped["trace.kept_frac"], (0.25, "fraction"))
        self.assertNotIn("dag.self_s", scoped)

    def test_reconciliation_and_trace_overhead(self):
        m, scoped = metrics.per_layer(traced_doc(True))
        # RELIEF push+select 200 ns x 1e5 inserts = 0.02 s of 1 s.
        self.assertAlmostEqual(m["sched.explained_frac"][0], 0.02)
        # Profiled run 60 ms, timed run 50 ms.
        self.assertAlmostEqual(m["trace_overhead_ratio"][0], 1.2)
        self.assertAlmostEqual(scoped["trace_overhead_frac"][0], 0.2)
        self.assertAlmostEqual(m["mem.rss_mb_per_sim_s"][0], 20.0)


def run_bench(workload, *flags):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", "0"] + list(flags),
        cwd=HERE.parent, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError("run.py failed:\n" + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


class ChecksFailTest(unittest.TestCase):
    def test_clean_run_is_correct(self):
        result = run_bench("functional-cdghl")
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 3)

    def test_corrupted_digest_fails_the_run(self):
        result = run_bench("long-cdl", "--corrupt-digest")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_perturbed_gru_output_fails_the_run(self):
        result = run_bench("functional-cdghl", "--perturb-gru")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
