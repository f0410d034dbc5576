#!/usr/bin/env python3
"""Tests of perf_ab.judge, the A/B verdict, on synthetic run lists.

Stdlib only: python3 tools/test_perf_ab.py (ctest runs it as PerfAbVerdict).
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_ab  # noqa: E402

THROUGHPUT = {"name": "layouts_per_probe", "better": "higher", "bound": 0.25}
SETUP = {"name": "setup_s", "better": "lower", "bound": 0.25}
PASS = {"name": "pass_frac", "better": "higher", "bound": 0.01}
BASE = [36.0, 36.5, 35.8, 36.2, 36.9, 36.4, 35.9, 36.6, 36.1, 36.3]


def runs(values, correct=True, pass_frac=1.0):
    """Last-line JSON objects as perfbench prints them, one per value."""
    return [{"correct": correct, "attempted": 100, "failed": 0 if correct else 1,
             "metrics": {"layouts_per_probe": {"value": v},
                         "setup_s": {"value": v / 100.0},
                         "pass_frac": {"value": pass_frac}}}
            for v in values]


def verdicts(base, change, metrics=(THROUGHPUT,)):
    rows, failures = perf_ab.judge(base, change, list(metrics))
    return {name: (wins, verdict) for name, _, _, wins, verdict in rows}, failures


class Verdict(unittest.TestCase):
    def test_same_runs_are_within_bound_and_ties_win_nothing(self):
        rows, failures = verdicts(runs(BASE), runs(BASE), (THROUGHPUT, PASS))
        self.assertEqual(rows["layouts_per_probe"], (0, "within bound"))
        self.assertEqual(rows["pass_frac"], (0, "within bound"))
        self.assertEqual(failures, [])

    def test_better_needs_nine_wins_and_a_gap_wider_than_the_base_iqr(self):
        rows, _ = verdicts(runs(BASE), runs([v * 1.05 for v in BASE]))
        self.assertEqual(rows["layouts_per_probe"], (10, "better"))
        # Two tied pairs leave 8 wins: not enough, however large the gap.
        change = [v * 1.05 for v in BASE[:8]] + BASE[8:]
        rows, _ = verdicts(runs(BASE), runs(change))
        self.assertEqual(rows["layouts_per_probe"], (8, "within bound"))
        # Ten wins by a hair: the gap is inside the base's IQR.
        rows, _ = verdicts(runs(BASE), runs([v + 0.01 for v in BASE]))
        self.assertEqual(rows["layouts_per_probe"], (10, "within bound"))

    def test_better_respects_the_direction_of_the_metric(self):
        # setup_s is lower-is-better: 5% faster set-up wins every pair.
        rows, _ = verdicts(runs(BASE), runs([v * 0.95 for v in BASE]), (SETUP,))
        self.assertEqual(rows["setup_s"], (10, "better"))

    def test_worse_than_the_bound_with_a_tight_spread_fails(self):
        rows, failures = verdicts(runs(BASE), runs([v * 0.6 for v in BASE]))
        self.assertEqual(rows["layouts_per_probe"], (0, "worse"))
        self.assertEqual(len(failures), 1)
        # 20% worse is inside the 0.25 bound.
        rows, failures = verdicts(runs(BASE), runs([v * 0.8 for v in BASE]))
        self.assertEqual(rows["layouts_per_probe"], (0, "within bound"))
        self.assertEqual(failures, [])

    def test_wide_spread_is_unresolved_unless_the_sides_separate(self):
        noisy = [20.0, 60.0, 22.0, 58.0, 25.0, 55.0, 24.0, 57.0, 21.0, 59.0]
        rows, failures = verdicts(runs(noisy), runs([v * 0.7 for v in noisy]))
        self.assertEqual(rows["layouts_per_probe"], (0, "unresolved"))
        self.assertEqual(failures, [])
        # Just as wide on the change side, but every change run is below
        # every base run: the runs settle it.
        spread_low = [6.0, 18.0, 7.0, 17.0, 8.0, 16.0, 9.0, 15.0, 10.0, 14.0]
        rows, failures = verdicts(runs(BASE), runs(spread_low))
        self.assertEqual(rows["layouts_per_probe"], (0, "worse"))
        self.assertEqual(len(failures), 1)

    def test_correct_false_on_either_side_fails(self):
        for base, change in ((runs(BASE, correct=False), runs(BASE)),
                             (runs(BASE), runs(BASE[:9]) + runs(BASE[9:], correct=False))):
            _, failures = verdicts(base, change)
            self.assertEqual(len(failures), 1)
            self.assertIn("correct=false", failures[0])

    def test_a_fall_in_pass_frac_fails_even_inside_its_bound(self):
        change = runs(BASE[:9]) + runs(BASE[9:], pass_frac=0.995)
        rows, failures = verdicts(runs(BASE), change, (PASS,))
        self.assertEqual(rows["pass_frac"], (0, "within bound"))
        self.assertEqual(len(failures), 1)
        self.assertIn("pass_frac fell", failures[0])


if __name__ == "__main__":
    unittest.main()
