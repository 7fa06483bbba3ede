"""Timing in reference seconds: wall time corrected for the machine's speed.

The benchmark runs on shared machines whose CPU speed drifts by up to a
factor of two over seconds to minutes, as neighbours load the same cores and
caches.  A plain wall time then mostly measures the neighbours.  So the
benchmark keeps sampling the machine's speed with a short, fixed reference
task written here (a pure-Python loop and small numpy array operations, the
two kinds of work the program does) and scales each timed span by how much
slower than its nominal time the reference task ran around it::

    reference seconds = wall seconds * REFERENCE_S / (median reference time near the span)

Samples are taken right after each span and, while a span runs, every
``SAMPLE_EVERY_S`` from a timer signal; the time a sample takes inside a
span is left out of the span's wall time.  The program never runs inside the
reference task, so a change to the program moves the wall time only.
``REFERENCE_S`` is a constant close to the reference task's time on an
unloaded 2-core x86-64 machine, so reference seconds read close to the wall
seconds such a machine would show.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 1.0e-3
SAMPLE_EVERY_S = 0.05  # timer samples inside a span
AFTER_SAMPLES = 3  # samples right after a span
WINDOW_S = 0.25  # samples this long before a span starts count for it too

_POINTS = np.random.default_rng(0).standard_normal(32) * (1 + 1j)


def reference_task() -> None:
    """The fixed reference task: about 1 ms of interpreted and numpy work."""
    acc, ring = 0.0, [0.0] * 17
    for i in range(4000):
        ring[i % 17] = ring[(i + 1) % 17] * 0.5 + acc
        acc += 0.25
    for _ in range(40):
        diff = _POINTS[:, None] - _POINTS[None, :]
        diff += 1.0
        (1.0 / diff).sum(axis=1)


class SpeedClock:
    """Times spans in reference seconds; one span at a time.

    ``start()`` then ``stop()`` times one span; ``stop()`` returns it in
    reference seconds and keeps its wall seconds and the machine's slowdown
    (median reference time over ``REFERENCE_S``) in ``walls`` and
    ``slowdowns``.  ``close()`` gives back the timer signal.
    """

    def __init__(self, warm_up: int = 20):
        for _ in range(warm_up):  # let caches and the allocator settle
            reference_task()
        self._samples: list[tuple[float, float]] = []  # (when, seconds)
        self._in_span_s = 0.0
        self._t0 = 0.0
        self.walls: list[float] = []
        self.slowdowns: list[float] = []
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)

    def _sample(self) -> float:
        t0 = perf_counter()
        reference_task()
        took = perf_counter() - t0
        self._samples.append((t0, took))
        return took

    def _on_timer(self, _signum, _frame) -> None:
        t0 = perf_counter()
        self._sample()
        self._in_span_s += perf_counter() - t0

    def start(self, sample: bool = True) -> None:
        """Start a span; ``sample=False`` takes no samples while it runs."""
        self._in_span_s = 0.0
        self._t0 = perf_counter()
        if sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        wall = perf_counter() - self._t0 - self._in_span_s
        for _ in range(AFTER_SAMPLES):
            self._sample()
        since = self._t0 - WINDOW_S
        self._samples = [s for s in self._samples if s[0] >= since]
        slowdown = statistics.median(took for _, took in self._samples) / REFERENCE_S
        self.walls.append(wall)
        self.slowdowns.append(slowdown)
        return wall / slowdown

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
