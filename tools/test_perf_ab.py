"""Unit tests of tools/perf_ab.py's reduction, on canned run records."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perf_ab  # noqa: E402

BOUNDS = {"frames_per_s": 0.25, "latency_p50_ms": 0.25,
          "latency_p90_ms": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.2}


def run(fps, p50=10.0, steal=0.5, correct=True, failed=0):
    return {"steal_pct": steal, "idle_pct": 1.0, "exit": 0,
            "correct": correct, "attempted": 100, "failed": failed,
            "metrics": {"frames_per_s": fps, "latency_p50_ms": p50,
                        "latency_p90_ms": p50 * 1.2, "setup_s": 0.05,
                        "peak_rss_mb": 100.0}}


def pairs(parent_fps, change_fps):
    return [{"pair": i, "seed": i, "parent": run(a), "change": run(b)}
            for i, (a, b) in enumerate(zip(parent_fps, change_fps))]


class SummarizeTest(unittest.TestCase):
    def test_medians_iqr_ratio_and_wins(self):
        s = perf_ab.summarize(pairs([100, 102, 98, 104, 96],
                                    [110, 101, 112, 108, 109]), BOUNDS)
        fps = s["frames_per_s"]
        self.assertEqual(fps["parent_median"], 100)
        self.assertEqual(fps["change_median"], 109)
        self.assertEqual(fps["ratio"], 1.09)
        # statistics.quantiles(n=4), exclusive method: 97, 103 / 104.5, 111.
        self.assertEqual(fps["parent_iqr"], 6.0)
        self.assertEqual(fps["change_iqr"], 6.5)
        self.assertEqual(fps["wins"], "4/5")
        self.assertTrue(fps["within_bound"])
        self.assertNotIn("claim_holds", fps)

    def test_lower_is_better_metrics_count_a_drop_as_a_win(self):
        p = pairs([100] * 4, [100] * 4)
        for i, pair in enumerate(p):
            pair["change"]["metrics"]["latency_p50_ms"] = 9.0 - i * 0.1
        s = perf_ab.summarize(p, BOUNDS)
        self.assertEqual(s["latency_p50_ms"]["wins"], "4/4")
        self.assertLess(s["latency_p50_ms"]["change_worse_by"], 0)

    def test_claim_needs_nine_of_ten_and_a_gap_beyond_the_parent_iqr(self):
        parent = [100, 101, 99, 102, 98, 100, 101, 99, 100, 100]
        held = perf_ab.summarize(pairs(parent, [112] * 10), BOUNDS,
                                 claimed="frames_per_s")
        self.assertTrue(held["frames_per_s"]["claim_holds"])
        eight = [112] * 8 + [90, 90]
        lost = perf_ab.summarize(pairs(parent, eight), BOUNDS,
                                 claimed="frames_per_s")
        self.assertFalse(lost["frames_per_s"]["claim_holds"])
        small = perf_ab.summarize(pairs(parent, [100.5] * 10), BOUNDS,
                                  claimed="frames_per_s")
        self.assertEqual(small["frames_per_s"]["wins"], "7/10")
        self.assertFalse(small["frames_per_s"]["claim_holds"])

    def test_a_change_worse_than_its_bound_is_flagged(self):
        s = perf_ab.summarize(pairs([100] * 3, [70] * 3), BOUNDS)
        self.assertEqual(s["frames_per_s"]["change_worse_by"], 0.3)
        self.assertFalse(s["frames_per_s"]["within_bound"])

    def test_a_pair_with_a_failed_run_is_a_lost_pair(self):
        p = pairs([100, 100, 100], [110, 110, 110])
        p[1]["change"] = {"steal_pct": 0.1, "idle_pct": 1.0, "exit": 1}
        s = perf_ab.summarize(p, BOUNDS)
        self.assertEqual(s["frames_per_s"]["wins"], "2/3")
        self.assertEqual(s["frames_per_s"]["change_median"], 110)
        block = perf_ab.workload_block("frame_local", p, 20, BOUNDS, None)
        self.assertFalse(block["all_correct"])
        self.assertEqual(block["steal_pct_range"], [0.1, 0.5])
        self.assertEqual(block["failed_of_attempted"],
                         {"parent": [0, 300], "change": [1, 201]})

    def test_failed_pairs_count_against_the_claim(self):
        parent = [100, 101, 99, 102, 98, 100, 101, 99, 100, 100]
        p = pairs(parent, [112] * 10)
        for i in (3, 7):
            p[i]["change"] = {"steal_pct": 0.1, "idle_pct": 1.0, "exit": 1}
        s = perf_ab.summarize(p, BOUNDS, claimed="frames_per_s")
        self.assertEqual(s["frames_per_s"]["wins"], "8/10")
        self.assertFalse(s["frames_per_s"]["claim_holds"])

    def test_a_claim_fails_when_the_change_fails_more_operations(self):
        parent = [100, 101, 99, 102, 98, 100, 101, 99, 100, 100]
        p = pairs(parent, [112] * 10)
        p[0]["change"]["failed"] = 1
        s = perf_ab.summarize(p, BOUNDS, claimed="frames_per_s")
        self.assertEqual(s["frames_per_s"]["wins"], "10/10")
        self.assertFalse(s["frames_per_s"]["claim_holds"])
        p[5]["parent"]["failed"] = 1
        s = perf_ab.summarize(p, BOUNDS, claimed="frames_per_s")
        self.assertTrue(s["frames_per_s"]["claim_holds"])

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        # Parent IQR 60 > 0.25 x median 100: no bound verdict.
        wide = perf_ab.summarize(pairs([40, 100, 160, 70, 130],
                                       [60, 90, 150, 80, 140]), BOUNDS)
        self.assertFalse(wide["frames_per_s"]["resolved"])
        self.assertIsNone(wide["frames_per_s"]["within_bound"])
        # The same spread, but every change run beats every parent run.
        ahead = perf_ab.summarize(pairs([40, 100, 160, 70, 130],
                                        [170, 200, 260, 180, 240]), BOUNDS)
        self.assertTrue(ahead["frames_per_s"]["resolved"])
        self.assertTrue(ahead["frames_per_s"]["within_bound"])
        # Lower is better: every change run below every parent run.
        p = pairs([100] * 5, [100] * 5)
        for i, pair in enumerate(p):
            pair["parent"]["metrics"]["latency_p90_ms"] = 20.0 + 10 * i
            pair["change"]["metrics"]["latency_p90_ms"] = 10.0 + i
        low = perf_ab.summarize(p, BOUNDS)
        self.assertTrue(low["latency_p90_ms"]["resolved"])
        self.assertEqual(low["latency_p90_ms"]["wins"], "5/5")

if __name__ == "__main__":
    unittest.main()
