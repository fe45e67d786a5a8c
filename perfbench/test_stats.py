"""Tests of the benchmark's own statistics and metric reduction.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

# Raw runner output of a traced serve_loopback run (--seconds 2), kept as
# recorded data for the reduction and overhead checks.
RECORDED = os.path.join(HERE, "testdata", "serve_loopback_trace.json")


def load_recorded():
    with open(RECORDED) as f:
        return json.load(f)


class MedianTest(unittest.TestCase):
    def test_odd_and_even_counts(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_single_sample(self):
        self.assertEqual(stats.median([7.5]), 7.5)

    def test_no_samples_refused(self):
        with self.assertRaises(stats.TooFewSamples):
            stats.median([])


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [float(v) for v in range(1, 10)]
        self.assertEqual(stats.quartiles(values), (2.5, 5.0, 7.5))
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_order_does_not_matter(self):
        values = [9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0]
        self.assertEqual(stats.quartiles(values), (2.5, 5.0, 7.5))

    def test_spread_is_iqr_over_median(self):
        values = [float(v) for v in range(1, 10)]
        self.assertAlmostEqual(stats.spread(values), (7.5 - 2.5) / 5.0)

    def test_constant_values_have_zero_spread(self):
        self.assertEqual(stats.spread([4.0] * 10), 0.0)

    def test_one_sample_refused(self):
        with self.assertRaises(stats.TooFewSamples):
            stats.quartiles([1.0])


class PercentileTest(unittest.TestCase):
    def test_p90_of_100_samples_has_10_beyond(self):
        values = [float(v) for v in range(1, 101)]
        self.assertEqual(stats.percentile(values, 0.9), 90.0)

    def test_p90_refused_with_9_beyond(self):
        values = [float(v) for v in range(1, 100)]
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(values, 0.9)

    def test_p99_needs_1000_samples(self):
        self.assertEqual(
            stats.percentile([float(v) for v in range(1, 1001)], 0.99),
            990.0)
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile([float(v) for v in range(1, 1000)], 0.99)

    def test_rank_is_exact_at_round_products(self):
        # 0.9 * 1000 is 900.0000000000001 in binary floating point; the
        # nearest rank must still be 900, not 901.
        values = [float(v) for v in range(1, 1001)]
        self.assertEqual(stats.percentile(values, 0.9), 900.0)

    def test_unsorted_input(self):
        values = [float(v) for v in range(100, 0, -1)]
        self.assertEqual(stats.percentile(values, 0.9), 90.0)

    def test_median_rank_with_small_tail(self):
        self.assertEqual(stats.percentile([1.0, 2.0, 3.0], 0.5, min_tail=1),
                         2.0)

    def test_q_outside_unit_interval_rejected(self):
        with self.assertRaises(ValueError):
            stats.percentile([1.0] * 200, 1.0)


def synthetic_pass(latencies, ok=None, attempted=None, mismatches=0):
    """A pass whose good ops complete one every 20 ms."""
    return {"workload": "frame_local", "traced": 0, "setup_s": [0.2, 0.1, 0.3],
            "window_s": 0.02 * len(latencies),
            "attempted": attempted or len(latencies),
            "ok": len(latencies) if ok is None else ok,
            "mismatches": mismatches, "errors": 0, "timeouts": 0, "shed": 0,
            "degraded": 0, "rung_switches": 0, "latency_s": latencies,
            "done_s": [0.02 * (i + 1) for i in range(len(latencies))]}


class ThroughputTest(unittest.TestCase):
    def test_steady_completions(self):
        done = [0.01 * (i + 1) for i in range(320)]
        self.assertAlmostEqual(stats.throughput(done), 100.0)

    def test_a_stall_moves_one_chunk_not_the_median(self):
        done = [0.01 * (i + 1) for i in range(320)]
        stalled = done[:100] + [t + 1.0 for t in done[100:]]
        self.assertAlmostEqual(stats.throughput(stalled), 100.0)

    def test_order_does_not_matter(self):
        done = [0.01 * (i + 1) for i in range(320)]
        self.assertAlmostEqual(stats.throughput(done[::-1]), 100.0)

    def test_fewer_than_three_chunks_refused(self):
        with self.assertRaises(stats.TooFewSamples):
            stats.throughput([0.01 * (i + 1) for i in range(95)])


class ReductionTest(unittest.TestCase):
    def test_end_to_end_of_a_pass(self):
        latencies = [v / 1000.0 for v in range(1, 101)]
        run = {"passes": [synthetic_pass(latencies)], "peak_rss_kb": 2048.0,
               "probe_mismatches": 0}
        m = stats.end_to_end(run)
        self.assertEqual(set(m), set(stats.END_TO_END))
        self.assertAlmostEqual(m["frames_per_s"], 50.0)
        self.assertAlmostEqual(m["latency_p50_ms"], 50.5)
        self.assertAlmostEqual(m["latency_p90_ms"], 90.0)
        self.assertAlmostEqual(m["setup_s"], 0.2)
        self.assertAlmostEqual(m["peak_rss_mb"], 2.0)

    def test_end_to_end_refuses_short_pass(self):
        run = {"passes": [synthetic_pass([0.01] * 50)], "peak_rss_kb": 1.0,
               "probe_mismatches": 0}
        with self.assertRaises(stats.TooFewSamples):
            stats.end_to_end(run)

    def test_outcome_counts_failures_and_mismatches(self):
        good = synthetic_pass([0.01] * 100, ok=98, attempted=100)
        bad = synthetic_pass([0.01] * 100, mismatches=1)
        self.assertEqual(
            stats.outcome({"passes": [good], "probe_mismatches": 0}),
            (True, 100, 2))
        self.assertEqual(
            stats.outcome({"passes": [good, bad], "probe_mismatches": 0}),
            (False, 200, 2))
        self.assertFalse(
            stats.outcome({"passes": [good], "probe_mismatches": 1})[0])

    def test_tracing_overhead_signs(self):
        untraced = {"frames_per_s": 100.0, "latency_p50_ms": 10.0,
                    "latency_p90_ms": 20.0}
        traced = {"frames_per_s": 90.0, "latency_p50_ms": 11.0,
                  "latency_p90_ms": 20.0}
        o = stats.tracing_overhead(untraced, traced)
        self.assertAlmostEqual(o["trace.overhead_frames_per_s_pct"], 10.0)
        self.assertAlmostEqual(o["trace.overhead_latency_p50_pct"], 10.0)
        self.assertAlmostEqual(o["trace.overhead_latency_p90_pct"], 0.0)

    def test_negative_overhead_refused(self):
        with self.assertRaises(ValueError):
            stats.check_overhead_samples([1.0, -0.001])


class RecordedDataTest(unittest.TestCase):
    def test_transport_overhead_never_negative(self):
        samples = load_recorded()["layers"]["samples"]["transport.overhead_ms"]
        self.assertGreater(len(samples), 100)
        self.assertGreaterEqual(min(samples), 0.0)

    def test_recorded_run_reduces_to_every_per_layer_metric(self):
        metrics, untraced, traced = stats.per_layer(load_recorded())
        self.assertEqual(set(metrics), set(stats.PER_LAYER))
        self.assertEqual(set(untraced), set(traced))
        self.assertEqual(metrics["transport.protocol_errors"], 0)
        self.assertEqual(metrics["stream.rung_switches"], 0)

    def test_recorded_run_is_correct(self):
        correct, attempted, failed = stats.outcome(load_recorded())
        self.assertTrue(correct)
        self.assertGreater(attempted, 0)
        self.assertEqual(failed, 0)


class BenchmarkDefinitionTest(unittest.TestCase):
    def test_benchmark_json_matches_the_metric_tables(self):
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json next to perfbench/")
        with open(path) as f:
            bench = json.load(f)
        for key, table in (("end_to_end", stats.END_TO_END),
                           ("per_layer", stats.PER_LAYER)):
            self.assertEqual(
                [(m["name"], m["unit"], m["better"]) for m in bench[key]],
                [(name, unit, better)
                 for name, (unit, better) in table.items()])


if __name__ == "__main__":
    unittest.main()
