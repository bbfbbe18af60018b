"""Host speed samples taken during a timed pass, and the pass time rescaled by them.

The benchmark runs on a share of a machine that other work also uses. For the
same code, that machine's speed changes by up to half, for seconds or minutes
at a time, and a whole run can fall inside a slow spell; a longer run or a
median over passes does not remove that. So while a pass runs, a CPU-time
timer interrupts it every ``SAMPLE_EVERY_S`` and solves one fixed small LP
through scipy's ``linprog`` (the call the decoy layer's LPs go through), timing
it. Each stretch of the pass between two probes is then rescaled by
``REFERENCE_S`` over the median probe time around it. The result is the pass's
CPU time at the speed at which this machine solved the probe LP in
``REFERENCE_S``; the probes' own time is left out.

The probe code is fixed in the benchmark and calls no ``rfiqsdc`` code, so a
change to the program moves the rescaled time as it moves the raw time.

Times here are CPU seconds of the calling thread, which does all the work of
a pass (the workloads run the pipeline with one worker). While a process CPU
timer is armed, Linux reads the process CPU clock only to the scheduler tick
(4 ms here), too coarse for a probe; the thread clock stays exact.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np
from scipy.optimize import linprog

SAMPLE_EVERY_S = 0.04  # CPU seconds between probes
WINDOW_HALF = 2  # a stretch's speed is the median of the 2 * 2 + 1 nearest probes
WARMUP_PROBES = 20
# Probe time on a 2-vCPU shared virtual machine (Python 3.11, scipy 1.17) in a
# quiet spell; any fixed value gives the same comparisons between commits.
REFERENCE_S = 1.6e-3


class Pass:
    """Probes of one pass: (thread CPU seconds when the probe began, probe seconds)."""

    def __init__(self):
        self.start = self.end = None
        self.probes = []

    def work_s(self) -> float:
        """CPU seconds of the pass without the probes."""
        return self.end - self.start - sum(seconds for _, seconds in self.probes)

    def scaled_s(self) -> float:
        """CPU seconds of the pass without the probes, rescaled to the reference speed."""
        if not self.probes:
            raise ValueError("pass ended before the first host speed probe")
        durations = [seconds for _, seconds in self.probes]
        total, begin = 0.0, self.start
        # the stretch after the last probe takes that probe's window
        for i, (stamp, seconds) in enumerate([*self.probes, (self.end, 0.0)]):
            j = min(i, len(durations) - 1)
            speed = statistics.median(durations[max(j - WINDOW_HALF, 0):j + WINDOW_HALF + 1])
            total += (stamp - begin) * REFERENCE_S / speed
            begin = stamp + seconds
        return total

    def probe_median_s(self) -> float:
        return statistics.median(seconds for _, seconds in self.probes)


class HostSpeed:
    """Times the probe LP on a CPU-time timer while a pass runs."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._objective = -rng.random(8)
        self._a_ub = rng.random((12, 8))
        self._b_ub = 1.0 + rng.random(12)
        for _ in range(WARMUP_PROBES):
            self._probe()
        self._pass = None

    def _probe(self):
        result = linprog(
            self._objective, A_ub=self._a_ub, b_ub=self._b_ub, bounds=(0.0, 1.0),
            method="highs", options={"presolve": False},
        )
        if result.status != 0:
            raise RuntimeError(f"host speed probe LP failed: {result.message}")

    def probe_s(self, count: int = 5) -> float:
        """Median seconds of ``count`` probes run back to back, outside a pass."""
        seconds = []
        for _ in range(count):
            start = time.thread_time()
            self._probe()
            seconds.append(time.thread_time() - start)
        return statistics.median(seconds)

    def _on_timer(self, signum, frame):
        start = time.thread_time()
        self._probe()
        self._pass.probes.append((start, time.thread_time() - start))

    @contextlib.contextmanager
    def sampling(self):
        """Probe while the body runs; yields the :class:`Pass` that collects the probes."""
        self._pass = current = Pass()
        previous = signal.signal(signal.SIGPROF, self._on_timer)
        current.start = time.thread_time()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield current
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            current.end = time.thread_time()
            signal.signal(signal.SIGPROF, previous)
