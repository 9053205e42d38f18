"""Tests for the benchmark's statistics: python3 perfbench/test_stats.py"""

import math
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402


class Percentile(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_interpolates(self):
        self.assertAlmostEqual(stats.percentile([0, 10], 0.25), 2.5)
        self.assertEqual(stats.percentile([5, 1, 9], 0.0), 1)
        self.assertEqual(stats.percentile([5, 1, 9], 1.0), 9)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)
        with self.assertRaises(ValueError):
            stats.percentile([1], 1.5)


class Tail(unittest.TestCase):
    def test_ten_samples_beyond(self):
        xs = list(range(1, 101))  # 100 samples
        t = stats.tail(xs)
        self.assertEqual(t, 90)
        self.assertEqual(sum(1 for x in xs if x > t), 10)

    def test_order_does_not_matter(self):
        xs = [float(x) for x in range(40)]
        self.assertEqual(stats.tail(xs), stats.tail(list(reversed(xs))))

    def test_too_few_samples_gives_maximum(self):
        self.assertEqual(stats.tail([3, 7, 5]), 7)


class Geomean(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(stats.geomean([1, 100]), 10)
        self.assertAlmostEqual(stats.geomean([2, 2, 2]), 2)

    def test_scale_invariant_ratio(self):
        a = [3.0, 5.0, 11.0]
        b = [2 * x for x in a]
        self.assertAlmostEqual(stats.geomean(b) / stats.geomean(a), 2)

    def test_rejects_non_positive(self):
        with self.assertRaises(ValueError):
            stats.geomean([1, 0])


class Reduce(unittest.TestCase):
    def test_reducers(self):
        xs = [4.0, 1.0, 2.0]
        self.assertEqual(stats.reduce("median", xs), 2.0)
        self.assertEqual(stats.reduce("sum", xs), 7.0)
        self.assertEqual(stats.reduce("last", xs), 2.0)
        self.assertAlmostEqual(stats.reduce("geomean", xs), 2.0)
        self.assertAlmostEqual(stats.reduce("mean", xs), 7.0 / 3)

    def test_untouched_layer_is_zero(self):
        self.assertEqual(stats.reduce("geomean", []), 0.0)

    def test_unknown_reducer(self):
        with self.assertRaises(ValueError):
            stats.reduce("mode", [1.0])


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        xs = [9.0, 1.0, 4.0, 7.0, 3.0, 8.0, 2.0, 6.0, 5.0, 10.0]
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        self.assertEqual(stats.quartiles(xs), (q1, q2, q3))
        self.assertAlmostEqual(stats.relative_spread(xs), (q3 - q1) / q2)


class Verdict(unittest.TestCase):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def test_better_needs_nine_in_ten_wins_and_a_gap(self):
        child = [x * 0.8 for x in self.parent]
        self.assertEqual(stats.verdict(self.parent, child, "lower", 0.1), "better")
        self.assertEqual(stats.verdict(child, self.parent, "higher", 0.1), "better")

    def test_worse_beyond_bound(self):
        child = [x * 1.3 for x in self.parent]
        self.assertEqual(stats.verdict(self.parent, child, "lower", 0.1), "worse")
        self.assertEqual(stats.verdict(self.parent, child, "higher", 0.1), "better")

    def test_unchanged_within_bound(self):
        child = [x * 1.02 for x in self.parent]
        self.assertEqual(stats.verdict(self.parent, child, "lower", 0.1), "unchanged")

    def test_eight_wins_are_not_enough(self):
        child = [x * 0.8 for x in self.parent[:8]] + [x * 1.01 for x in self.parent[8:]]
        self.assertNotEqual(stats.verdict(self.parent, child, "lower", 0.5), "better")

    def test_ties_count_for_neither(self):
        child = list(self.parent)
        self.assertEqual(stats.verdict(self.parent, child, "lower", 0.1), "unchanged")

    def test_unresolved_when_noisy_or_short(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 90.0, 110.0, 70.0, 130.0]
        self.assertEqual(stats.verdict(noisy, list(noisy), "lower", 0.1), "unresolved")
        self.assertEqual(stats.verdict(self.parent[:9], self.parent[:9], "lower", 0.1), "unresolved")

    def test_gap_must_exceed_parent_spread(self):
        child = [x - 0.05 for x in self.parent]  # wins every pair by a hair
        self.assertEqual(stats.verdict(self.parent, child, "lower", 0.1), "unchanged")

    def test_rejects_unknown_direction(self):
        with self.assertRaises(ValueError):
            stats.verdict(self.parent, self.parent, "up", 0.1)


if __name__ == "__main__":
    unittest.main()
