"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import stats  # noqa: E402


class TailTest(unittest.TestCase):
    def test_picks_highest_percentile_with_ten_beyond(self):
        values = list(range(1, 1001))  # 1000 samples.
        # p99.9 has 1 beyond, p99 has 10 beyond: p99 is the tail.
        self.assertEqual(stats.tail(values), (99.0, 990))

    def test_falls_down_the_ladder_for_fewer_samples(self):
        self.assertEqual(stats.tail(list(range(100))), (90.0, 89))  # 10 beyond p90.
        self.assertEqual(stats.tail(list(range(40))), (75.0, 29))   # 10 beyond p75.
        self.assertEqual(stats.tail(list(range(20))), (50.0, 9))    # 10 beyond p50.

    def test_order_of_samples_does_not_matter(self):
        self.assertEqual(stats.tail(list(range(100, 0, -1))), (90.0, 90))

    def test_none_when_no_percentile_has_ten_beyond(self):
        self.assertIsNone(stats.tail(list(range(19))))
        self.assertIsNone(stats.tail(list(range(10))))
        self.assertIsNone(stats.tail([5.0]))
        self.assertIsNone(stats.tail([]))


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times([(0, 10, -1)]), [10])

    def test_nested_children_count_only_at_their_own_level(self):
        spans = [
            (0, 100, -1),  # root
            (10, 60, 0),   # child
            (20, 30, 1),   # grandchild: excluded from the child, not the root
            (70, 80, 0),   # second child
        ]
        self.assertEqual(stats.self_times(spans), [100 - 50 - 10, 50 - 10, 10, 10])

    def test_overlapping_children_are_counted_once(self):
        spans = [(0, 100, -1), (10, 50, 0), (30, 70, 0), (60, 65, 0)]
        # Union of [10,50], [30,70], [60,65] is [10,70]: 60.
        self.assertEqual(stats.self_times(spans)[0], 40)

    def test_children_are_clipped_to_the_parent(self):
        spans = [(10, 20, -1), (5, 15, 0), (18, 40, 0)]
        self.assertEqual(stats.self_times(spans)[0], 10 - 5 - 2)

    def test_union_of_touching_and_contained_intervals(self):
        self.assertEqual(stats.union_length([(0, 5), (5, 10), (2, 3)]), 10)
        self.assertEqual(stats.union_length([]), 0)


class HitRatioTest(unittest.TestCase):
    def test_ratio_with_its_base(self):
        self.assertEqual(stats.hit_ratio(3, 1), (0.75, 4))

    def test_zero_base_reads_zero(self):
        self.assertEqual(stats.hit_ratio(0, 0), (0.0, 0))

    def test_all_misses(self):
        self.assertEqual(stats.hit_ratio(0, 7), (0.0, 7))


if __name__ == "__main__":
    unittest.main()
