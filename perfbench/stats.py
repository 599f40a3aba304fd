"""Summary statistics of the benchmark: percentiles, geometric mean, medians."""
from __future__ import annotations

import math
from typing import Sequence

# The tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """The p-th percentile (0..100), interpolating linearly between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(samples: int) -> int:
    """The highest whole percentile with at least TAIL_BEYOND of ``samples``
    beyond it.

    A workload passes the sample count of its shortest run, so the
    percentile is fixed per workload: a faster program runs more passes of
    the same mix, and its tail is still read at the same rank of that mix.
    """
    if samples <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {samples}")
    return math.floor(100 * (1 - TAIL_BEYOND / samples))


def geomean(values: Sequence[float]) -> float:
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)
