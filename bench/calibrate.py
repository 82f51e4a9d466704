"""Machine-speed calibration for the timed runs.

The sandboxes this benchmark runs in share their cores with strangers:
a pure-python loop on an otherwise idle box was measured running up to
1.9x slower for seconds to minutes at a time, per core, which is far
more than any bound in ``BENCHMARK.json``.  Wall time alone therefore
says more about the neighbours than about the program.

So the timed run does two things.  It pins itself — and, by
inheritance, every server it starts — to the one CPU that is quietest at
start: a single closed-loop connection never has two of those processes
running at once, and on one CPU the client sees exactly the speed the
server gets.  And between ops, every 50 ms, the client times ``work()``:
a fixed piece of interpreter work (dict, set, tuple, string and call
traffic) that no change to the program can touch.  Every duration is
then reported *at nominal speed*: scaled by ``NOMINAL_S`` over the
median of the calibration samples taken around it (per quarter-second
slice of a timed window; before and after a set-up or a recovery).
``NOMINAL_S`` is what ``work()`` takes on an undisturbed core of the
2-core reference box, so on a quiet box the scale is 1 and the numbers
are plain milliseconds.  On the reference box this cut the run-to-run
spread of one seed from 12-16% to about 4%.

Calibration time is taken out of the window it interrupts.  The traced
run (``--trace 1``) is not calibrated: its counts are exact and its
times are diagnostics.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import List, Sequence, Tuple

#: Seconds ``work()`` takes on an undisturbed core of the reference box.
NOMINAL_S = 0.0017
#: Seconds between calibration samples inside a timed window.
INTERVAL_S = 0.05
#: Seconds per slice over which one scale is applied.
SLICE_S = 0.25

now = time.perf_counter


def work(rounds: int = 1500) -> float:
    """Seconds one fixed unit of interpreter work takes right now."""
    started = now()
    counts: dict = {}
    seen: set = set()
    for i in range(rounds):
        key = (f"n{i % 97}", f"m{i % 31}")
        counts[key] = counts.get(key, 0) + 1
        seen.add(key[0])
        if key[1] in seen:
            seen.discard(key[1])
        tuple(sorted(counts.get((name, "m1"), 0) for name in ("n1", "n2", "n3")))
    return now() - started


def pin_to_quietest_cpu() -> int:
    """Pin this process (children inherit it) to the allowed CPU on which
    ``work()`` currently runs fastest; returns that CPU."""
    allowed = sorted(os.sched_getaffinity(0))
    best_cpu, best_time = allowed[0], float("inf")
    for cpu in allowed[:8]:
        os.sched_setaffinity(0, {cpu})
        quickest = min(work() for _ in range(5))
        if quickest < best_time:
            best_cpu, best_time = cpu, quickest
    os.sched_setaffinity(0, {best_cpu})
    return best_cpu


class Speed:
    """Calibration samples of one run and the scales they imply."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (taken at, seconds)
        self._next = 0.0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            taken = now()
            self.samples.append((taken, work()))
        self._next = now() + INTERVAL_S

    def tick(self) -> None:
        """Sample if the interval has passed (called between ops)."""
        if now() >= self._next:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """``NOMINAL_S`` over the median sample in ``[start, end]`` (the
        nearest samples when the interval holds none)."""
        inside = [s for t, s in self.samples if start <= t <= end]
        if not inside:
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda ts: abs(ts[0] - middle))[:3]
            inside = [s for _t, s in nearest]
        return NOMINAL_S / statistics.median(inside)

    def spent(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` that went into calibration."""
        return sum(s for t, s in self.samples if start <= t < end)

    def window(
        self, start: float, end: float, timed: Sequence[Tuple[float, float]]
    ) -> Tuple[List[float], float]:
        """Scale a timed window slice by slice.

        ``timed`` is ``(ended at, seconds)`` per op.  Returns the scaled
        op durations and the window's scaled length, calibration time
        removed.
        """
        slices = max(1, round((end - start) / SLICE_S))
        length = (end - start) / slices
        scales, total = [], 0.0
        for index in range(slices):
            low = start + index * length
            scale = self.scale(low, low + length)
            scales.append(scale)
            total += (length - self.spent(low, low + length)) * scale
        scaled = [
            seconds * scales[min(slices - 1, max(0, int((ended - start) / length)))]
            for ended, seconds in timed
        ]
        return scaled, total

    def median_scale(self) -> float:
        return NOMINAL_S / statistics.median(s for _t, s in self.samples)
