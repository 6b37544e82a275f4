"""Arithmetic of the benchmark's reported numbers: the tail percentile, span
self time and cache hit ratios. Kept free of I/O so tests/test_stats.py can
pin every rule."""

import math

# Percentiles the tail is chosen from, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A tail percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list, with the number of
    samples strictly beyond its rank."""
    n = len(sorted_values)
    # Rounding first keeps e.g. 90% of 100 at rank 90, not 91.
    rank = max(1, math.ceil(round(pct * n / 100.0, 9)))
    return sorted_values[rank - 1], n - rank


def tail(values):
    """(percentile, value) of the highest ladder percentile that has at least
    MIN_BEYOND samples beyond it, or None when no percentile has."""
    ordered = sorted(values)
    if len(ordered) <= MIN_BEYOND:
        return None
    for pct in TAIL_LADDER:
        value, beyond = percentile(ordered, pct)
        if beyond >= MIN_BEYOND:
            return pct, value
    return None


def union_length(intervals):
    """Total length covered by (start, end) intervals; overlaps count once."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per span: its duration minus the union of its direct children's
    intervals, each clipped to the span. `spans` is a list of
    (start, end, parent_index) with parent_index -1 for a root."""
    children = [[] for _ in spans]
    for i, (_, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    result = []
    for i, (start, end, _) in enumerate(spans):
        covered = union_length(
            (max(start, spans[c][0]), min(end, spans[c][1]))
            for c in children[i]
            if spans[c][0] < end and spans[c][1] > start
        )
        result.append((end - start) - covered)
    return result


def hit_ratio(hits, misses):
    """(hits / (hits + misses), hits + misses); the ratio is 0.0 when the base
    is 0, so a cache that was never consulted reads as serving nothing."""
    base = hits + misses
    return (hits / base if base else 0.0), base
