"""Machine speed, measured by a fixed pure-Python loop.

The benchmark was defined on a shared two-vCPU virtual machine (2.1 GHz
Xeon) whose speed drifts by up to 2x within minutes, for every program
alike.  A run times this loop between inputs, and scales the time of each
input by NOMINAL_S over the loop's median time around it; an isolated
input is scaled by the loops its own child runs just before and after it.
That cancels most of the drift: across seeds on that machine the spread
of the geometric mean latency fell from 14 to 40 % unscaled to 2 to 8 %.
The loop shares no code with countercheck, so no change to the package
can move it.
"""
from __future__ import annotations

import bisect
import time

import stats

NOMINAL_S = 0.015  # about the loop's time on that machine when it ran fastest
EVERY_S = 0.1  # sample the loop at most this often between inputs
NEAREST = 15  # samples that set the factor of one input


def loop_seconds() -> float:
    start = time.perf_counter()
    table = {}
    for i in range(15000):
        table[(i % 97, i)] = str(i)
    ordered = sorted(table, key=lambda k: (k[1] % 13, k))
    len({k[0] for k in ordered})
    return time.perf_counter() - start


class Speed:
    """Samples ``(time, loop seconds)`` of the loop taken during one run."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self, force: bool = False) -> None:
        if force or not self.samples or time.perf_counter() - self.samples[-1][0] >= EVERY_S:
            seconds = loop_seconds()
            self.samples.append((time.perf_counter(), seconds))

    def factor(self) -> float:
        """NOMINAL_S over the median sample of the run."""
        return NOMINAL_S / stats.median([seconds for _, seconds in self.samples])

    def factor_at(self, moment: float) -> float:
        """NOMINAL_S over the median of the NEAREST samples around
        ``moment``, which follows the drift within a run."""
        index = bisect.bisect_left(self.samples, (moment,))
        low = max(0, min(index - NEAREST // 2, len(self.samples) - NEAREST))
        return NOMINAL_S / stats.median([seconds for _, seconds in self.samples[low:low + NEAREST]])
