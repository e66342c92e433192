"""Host-speed gauge: corrects timings for how fast the host runs right now.

On a shared host, the speed at which this process runs drifts by up to a
factor of two over tens of seconds, and its CPU time drifts with its wall
time, so the slowdown comes from contention for the cores and caches, not
from waiting.  Medians inside one run cannot remove a drift that lasts
longer than the run.

The gauge times a fixed reference pass right before and right after every
timed segment of a run (each block of set-ups, each day job, each small
family), and, while a segment runs, every `SAMPLE_EVERY_S` seconds from a
SIGALRM handler.  The pass is the benchmark's own code: a loop with the mix
of work the scheduler does (tuple hashing and dict lookups, small numpy
vector arithmetic, a small complex linear solve).  It never calls the
program, so a change to the program cannot move it.  A segment's corrected
time is

    (elapsed - time spent in the handler) * REFERENCE_PASS_S / mean(passes)

that is, its time on a host where one pass takes `REFERENCE_PASS_S`.  The
garbage collector is off during a pass, and a pass frees all it allocates,
so the program's own collections happen where they would without the gauge.
The handler interrupts the program only between bytecodes and touches none
of its state, so results are unchanged.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

# the unit corrected times are expressed in: about one pass on 2 cores of
# an Intel Xeon with Python 3.11 and numpy 2.4, when the host is quiet
REFERENCE_PASS_S = 0.04
# how often a pass is taken while a segment runs (about a tenth of its time)
SAMPLE_EVERY_S = 0.4

_LOOKUPS = 4400
_SOLVES = 280


def reference_pass() -> float:
    """Run the fixed reference work once and return its wall time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        rng = np.random.default_rng(12345)
        base = rng.random(48)
        genes = rng.integers(0, 48, size=(_LOOKUPS, 8)).tolist()
        seen: dict[tuple[int, ...], float] = {}
        acc = 0.0
        for row in genes:
            key = tuple(row)
            hit = seen.get(key)
            if hit is None:
                load = base.copy()
                load[row] += 1.0
                hit = float(np.maximum(load - 0.5, 0.0).sum())
                seen[key] = hit
            acc += hit + sorted(row)[-1] * 1e-6
        bus = 13
        y = rng.random((bus, bus)) + 1j * rng.random((bus, bus)) + bus * np.eye(bus)
        v = np.ones(bus, dtype=complex)
        for _ in range(_SOLVES):
            v = np.linalg.solve(y, v + 0.01)
            v /= np.abs(v).max()
        acc += float(np.abs(v).sum())
        del genes, seen
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if not np.isfinite(acc):
        raise ArithmeticError("reference pass diverged")
    return elapsed


@dataclass
class Segment:
    """One timed segment: its raw wall time and its speed correction."""

    raw_s: float = 0.0
    scale: float = 1.0

    @property
    def corrected_s(self) -> float:
        return self.raw_s * self.scale


class Gauge:
    """Times segments and corrects each by the reference passes in and around it.

    With `sample=False` only the passes around a segment are taken, so no
    handler time falls inside the segment; the traced run uses that.
    """

    def __init__(self, sample: bool = True) -> None:
        self.sample = sample
        reference_pass()  # warm-up: first-call imports and allocations
        self._last = reference_pass()
        self.passes = [self._last]

    @contextlib.contextmanager
    def segment(self):
        seg = Segment()
        passes = [self._last]
        paused = 0.0

        def on_alarm(_signum, _frame):
            nonlocal paused
            start = time.perf_counter()
            passes.append(reference_pass())
            paused += time.perf_counter() - start

        if self.sample:
            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = time.perf_counter()
        try:
            yield seg
        finally:
            elapsed = time.perf_counter() - start
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            self._last = reference_pass()
            passes.append(self._last)
            self.passes += passes[1:]
            seg.raw_s = elapsed - paused
            seg.scale = REFERENCE_PASS_S / statistics.fmean(passes)
