"""Reference clock: the machine's speed, measured next to and during each job.

Speed on a shared machine drifts by tens of percent within seconds and from
process to process.  The clock runs a fixed pure-Python reference loop, which
imports nothing from tordyn, right before and right after each timed job, and
also in short samples interleaved with the job: a real-time interval timer
interrupts the job every SAMPLE_PERIOD_S seconds and the signal handler runs
SAMPLE_ITERATIONS iterations of the same loop.  The mean time per iteration
over the two bracketing loops and the samples, each counted once, gives the
reference time of the job: what one LOOP_ITERATIONS loop took while the job
ran.  The sample time is taken off the job's raw time, and the result is
scaled:

    scaled = (raw - samples) * R0 / reference time

R0 is the reference time on the machine the benchmark was calibrated on, so a
scaled time reads as seconds on that machine.  A job too short for any sample
is scaled by the mean of its two bracketing loops alone; so is the set-up,
whose imports would slow the samples taken during it.
"""

from __future__ import annotations

import signal
import time

# Reference time of one LOOP_ITERATIONS loop on the calibration machine.
R0 = 0.030
LOOP_ITERATIONS = 12000
SAMPLE_ITERATIONS = 150
SAMPLE_PERIOD_S = 0.02


def _step(a, b):
    return tuple(x * y % 65521 for x, y in zip(a, b))


def loop(iterations: int) -> float:
    """Seconds for a fixed mix of small-integer arithmetic, function calls,
    tuple building and dict updates: the kind of bytecode tordyn runs."""
    start = time.perf_counter()
    table = {}
    acc = 0
    x = 1
    v = (1, 2, 3)
    for i in range(iterations):
        x = (x * 48271 + i) % 2147483647
        v = _step(v, (x & 1023, i, x >> 20))
        key = (v[0] & 255, i & 3)
        table[key] = table.get(key, 0) + v[1]
        acc ^= v[2]
    if acc < 0 or len(table) > 1024:
        raise AssertionError("reference loop changed")
    return time.perf_counter() - start


class ReferenceClock:
    """Times jobs and scales them by the reference loop.  The loop after one
    job is also the loop before the next."""

    def __init__(self):
        self._samples: list[float] = []
        self._before: float | None = None
        self.loops: list[float] = []  # every bracketing loop, for the report
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        self._samples.append(loop(SAMPLE_ITERATIONS))

    def begin(self, sample: bool = True) -> float:
        """Start timing after a reference loop (the previous job's closing
        loop when there is one).  Without `sample`, the job is scaled by its
        two bracketing loops alone."""
        if self._before is None:
            self._before = loop(LOOP_ITERATIONS)
        self._samples.clear()
        if sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return time.perf_counter()

    def end(self, started: float) -> tuple[float, float]:
        """Stop timing; returns (raw seconds, scaled seconds), both without
        the interleaved samples."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        raw = time.perf_counter() - started
        sampled = sum(self._samples)
        after = loop(LOOP_ITERATIONS)
        brackets = [self._before, after]
        # Per-iteration reference speed: each bracketing loop weighs as much
        # as one interleaved sample, so that samples dominate long jobs.
        per_iteration = [t / LOOP_ITERATIONS for t in brackets]
        per_iteration += [t / SAMPLE_ITERATIONS for t in self._samples]
        reference = sum(per_iteration) / len(per_iteration) * LOOP_ITERATIONS
        self._before = after
        self.loops.append(after)
        return raw - sampled, (raw - sampled) * R0 / reference

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
