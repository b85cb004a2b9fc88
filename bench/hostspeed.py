"""Op times corrected for the speed of the CPU they ran on.

The benchmark runs on shared hosts where the same work in the same process
takes up to 1.7x longer from one second or minute to the next, and where the
two vCPUs change speed independently of each other.  So the runner pins
itself (and every process it starts) to one CPU, and a probe thread times a
fixed reference task on that CPU every ``PERIOD_S`` while the ops run.  The
task does the kinds of work epiq does in pure Python (Fraction arithmetic,
set operations on tuples, dict lookups), never calls epiq, and runs within
one GIL switch interval, so no change to the program moves it.

An op's scaled time is its time less the probe's own time inside it, times
``REFERENCE_S`` over the mean reference time within ``WINDOW_S`` of the op:
what the op would take on a CPU that runs the task in ``REFERENCE_S``.  A
mean, not a median, because slow spells of a few milliseconds slow the op
in proportion to their share of its time; the slowest 5% of reference times
are left out, since a probe that waited for the GIL or for a child process
reads long for that reason alone.
"""
from __future__ import annotations

import os
import statistics
import threading
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

# Typical time of reference() on a 2-vCPU Intel Xeon VM (Python 3.11).
# Only the ratio to it matters, so it never needs changing.
REFERENCE_S = 0.00075
PERIOD_S = 0.02
WINDOW_S = 0.3

_FRACTIONS = [Fraction(i, i + 1) for i in range(1, 61)]
_TUPLES = [(i % 7, i % 11, i) for i in range(600)]
_TABLE = {t: i for i, t in enumerate(_TUPLES)}


def reference():
    """Seconds the reference task takes now."""
    start = perf_counter()
    total = Fraction(0)
    for f in _FRACTIONS:
        total += f * f
    a, b = frozenset(_TUPLES[:400]), frozenset(_TUPLES[200:])
    hits = len(a | b) + len(a & b) + sum(_TABLE[t] for t in _TUPLES if t in a)
    assert total > 0 and hits
    return perf_counter() - start


def pin_to_one_cpu():
    """Restrict this process, and the processes it starts, to the lowest
    CPU it may use; returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Probe:
    """Times reference() every ``PERIOD_S`` on a thread, inside ``with``."""

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            start = perf_counter()
            reference()
            self.starts.append(start)
            self.ends.append(perf_counter())

    def settle(self):
        """Wait until the probe has timed the window after the last op."""
        end = perf_counter() + WINDOW_S
        while not (self.starts and self.starts[-1] >= end):
            if not self._thread.is_alive():
                raise RuntimeError("the host speed probe is not running")
            self._stop.wait(PERIOD_S / 2)

    def scale(self, start, end):
        """(time, scaled time) of the interval [start, end], both less the
        probe's own time in it."""
        lo = bisect_right(self.ends, start - WINDOW_S)
        hi = bisect_left(self.starts, end + WINDOW_S)
        # an op that kept the probe waiting the whole window: its neighbours
        lo, hi = min(lo, max(hi - 1, 0)), max(hi, min(lo + 1, len(self.starts)))
        own = sum(max(0.0, min(e, end) - max(s, start))
                  for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        took = end - start - own
        refs = sorted(e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        ref = statistics.fmean(refs[:max(1, len(refs) * 19 // 20)])
        return took, took * REFERENCE_S / ref
