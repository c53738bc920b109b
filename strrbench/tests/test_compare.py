#!/usr/bin/env python3
"""Tests for strrbench/compare.py on synthetic result sets.

    python3 strrbench/tests/test_compare.py
"""

import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                ".."))
import compare  # noqa: E402

BOUNDS = {
    "latency_p50_ms": ("lower", 0.15),
    "throughput_qps": ("higher", 0.15),
    "setup_s": ("lower", 0.25),
    "storage.page_hit_rate": ("higher", None),
}


def runs(values):
    """[(seed, value)] with seeds 1..n."""
    return [(i + 1, v) for i, v in enumerate(values)]


TIGHT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9]


class VerdictTest(unittest.TestCase):
    def test_same_distribution_is_no_worse(self):
        self.assertEqual(
            compare.verdict(runs(TIGHT), runs(list(reversed(TIGHT))),
                            "lower", 0.15), "no worse")

    def test_clear_latency_drop_is_improved(self):
        faster = [v * 0.8 for v in TIGHT]
        self.assertEqual(
            compare.verdict(runs(TIGHT), runs(faster), "lower", 0.15),
            "improved")

    def test_higher_is_better_direction(self):
        more = [v * 1.3 for v in TIGHT]
        self.assertEqual(
            compare.verdict(runs(TIGHT), runs(more), "higher", 0.15),
            "improved")
        self.assertEqual(
            compare.verdict(runs(TIGHT), runs(more), "lower", 0.15), "worse")

    def test_small_consistent_gain_within_noise_is_not_improved(self):
        # Wins every pair, but the medians differ by less than the base's
        # own IQR and not every change run beats every base run.
        base = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.4, 9.6, 10.0]
        change = [v - 0.1 for v in base]
        self.assertEqual(
            compare.verdict(runs(base), runs(change), "lower", 0.15),
            "no worse")

    def test_eight_of_ten_wins_is_not_improved(self):
        base = list(TIGHT)
        change = [v * 0.9 for v in base]
        change[0] = base[0] * 1.01  # two losses
        change[1] = base[1] * 1.01
        self.assertNotEqual(
            compare.verdict(runs(base), runs(change), "lower", 0.15),
            "improved")

    def test_regression_beyond_bound_is_worse(self):
        slower = [v * 1.3 for v in TIGHT]
        slower[0] = 9.0  # one overlap keeps it off "every run better/worse"
        self.assertEqual(
            compare.verdict(runs(TIGHT), runs(slower), "lower", 0.15),
            "worse")

    def test_regression_within_bound_is_no_worse(self):
        slower = [v * 1.05 for v in TIGHT]
        slower[0] = 9.0
        self.assertEqual(
            compare.verdict(runs(TIGHT), runs(slower), "lower", 0.15),
            "no worse")

    def test_wide_spread_is_unresolved(self):
        noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        self.assertEqual(
            compare.verdict(runs(TIGHT), runs(noisy), "lower", 0.15),
            "unresolved")

    def test_wide_spread_but_every_run_better_is_improved(self):
        base = [20.0, 30.0, 25.0, 35.0, 22.0]
        change = [5.0, 9.0, 6.0, 8.0, 7.0]
        self.assertEqual(
            compare.verdict(runs(base), runs(change), "lower", 0.15),
            "improved")

    def test_pairs_by_seed(self):
        base = [(3, 1.0), (1, 2.0), (2, 3.0)]
        change = [(1, 20.0), (2, 30.0), (3, 10.0)]
        self.assertEqual(compare.pair_up(base, change),
                         [(2.0, 20.0), (3.0, 30.0), (1.0, 10.0)])


class SpreadTest(unittest.TestCase):
    def test_spread_matches_statistics_quantiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        med, q1, q3 = compare.summarize(values)
        self.assertEqual(med, 5.5)
        self.assertAlmostEqual(compare.spread(values), (q3 - q1) / 5.5)

    def test_check_spread_flags_noisy_metric_but_not_setup(self):
        results = {"serve_hot": [
            (i + 1, {"latency_p50_ms": v, "throughput_qps": 100.0 + i * 0.1,
                     "setup_s": 10.0 * (1 + (i % 2))})
            for i, v in enumerate(
                [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0])]}
        out = io.StringIO()
        over = compare.check_spread(results, BOUNDS, out=out)
        self.assertEqual(over, [("serve_hot", "latency_p50_ms")])
        self.assertIn("exempt", out.getvalue())


class FilesTest(unittest.TestCase):
    def test_end_to_end_on_files(self):
        with tempfile.TemporaryDirectory() as tmp:
            base_dir = os.path.join(tmp, "base")
            change_dir = os.path.join(tmp, "change")
            os.makedirs(base_dir)
            os.makedirs(change_dir)
            for i, v in enumerate(TIGHT):
                doc = {"provenance": {"workload": "paper_sweep", "seed": i},
                       "correct": True, "attempted": 10, "failed": 0,
                       "metrics": {"latency_p50_ms": {"value": v,
                                                      "unit": "ms"}}}
                with open(os.path.join(base_dir, f"r{i}.json"), "w") as f:
                    json.dump(doc, f)
                # A captured stdout: the workload and seed come from the name.
                line = {"correct": True, "attempted": 10, "failed": 0,
                        "metrics": {"latency_p50_ms": {"value": v * 1.5,
                                                       "unit": "ms"}}}
                with open(os.path.join(change_dir,
                                       f"paper_sweep.seed{i}.out"), "w") as f:
                    f.write("# provenance ...\n" + json.dumps(line) + "\n")
            bench = os.path.join(tmp, "BENCHMARK.json")
            with open(bench, "w") as f:
                json.dump({"end_to_end": [{"name": "latency_p50_ms",
                                           "unit": "ms", "better": "lower",
                                           "bound": 0.15}],
                           "per_layer": []}, f)
            out = io.StringIO()
            rows = compare.compare(compare.load_results([base_dir]),
                                   compare.load_results([change_dir]),
                                   compare.load_bounds(bench), out=out)
            self.assertEqual(rows, [("paper_sweep", "latency_p50_ms",
                                     "worse")])
            self.assertEqual(compare.main([base_dir, "--vs", change_dir,
                                           "--benchmark", bench]), 1)
            self.assertEqual(compare.main(["--spread", base_dir,
                                           "--benchmark", bench]), 0)


if __name__ == "__main__":
    unittest.main()
