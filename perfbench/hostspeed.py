"""Host speed, sampled while a campaign runs, to take host drift out of its time.

The benchmark runs on a few vCPUs of a shared host.  Each vCPU slows by
10-45% for seconds to minutes at a time, independently of the others,
and the process's CPU time slows with its wall time (there is no steal
time to subtract), so a campaign's wall time measures the host as much
as the program.  ``HostSpeed`` measures the host on the campaign's own
thread and vCPU while it runs: every ``PERIOD_S`` a timer signal runs
``probe``, a fixed mix of interpreted Python and NumPy sorting that
calls nothing in ``repro``, and records how long it took.  ``factor`` is
the mean speed over those samples relative to ``REFERENCE_PROBE_S``; a
time multiplied by it is the time the same work takes at the reference
speed.  A change to ``repro`` cannot move the probe, so it moves the
normalised time as it moves the wall time on a steady host.
``HostSpeedAround`` samples every vCPU between campaigns instead, for
campaigns that occupy them all.
"""

from __future__ import annotations

import os
import signal
import statistics
from time import perf_counter
from typing import List

import numpy as np

PERIOD_S = 0.1
"""Seconds between samples; one probe costs about 2% of that."""

REFERENCE_PROBE_S = 2.3e-3
"""The probe's median duration on the host the reference was recorded on
(2-vCPU Xeon at 2.1 GHz, Python 3.11, NumPy 2.4)."""


class HostSpeed:
    """Timer-driven probe samples; use as a context manager around timed work."""

    def __init__(self) -> None:
        self._keys = np.random.default_rng(0).integers(0, 1 << 20, 20_000)
        self.samples: List[float] = []

    def probe(self) -> int:
        total = 0
        for i in range(2_000):
            total += i * i % 7
        return total + len(np.unique(np.sort(self._keys) >> 6))

    def sample(self, *_signal_args) -> None:
        start = perf_counter()
        self.probe()
        self.samples.append(perf_counter() - start)

    def calibrate(self, seconds: float) -> "HostSpeed":
        """Sample back to back for ``seconds``."""
        self.samples = []
        end = perf_counter() + seconds
        while perf_counter() < end:
            self.sample()
        return self

    @property
    def probe_s(self) -> float:
        """Seconds the samples took, to take out of the wall time they interrupted."""
        return sum(self.samples)

    @property
    def factor(self) -> float:
        """Host speed relative to the reference; 1.0 when nothing was sampled."""
        if not self.samples:
            return 1.0
        return REFERENCE_PROBE_S * statistics.fmean(1 / seconds for seconds in self.samples)

    def __enter__(self) -> "HostSpeed":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class HostSpeedAround(HostSpeed):
    """Host speed sampled on every vCPU just before and just after the work.

    For campaigns whose worker processes keep every vCPU busy: a probe
    inside them waits for the workers, so it measures the contention the
    campaign itself creates, not the host.
    """

    CALIBRATE_S = 0.04
    """Back-to-back sampling per vCPU, before and again after the work."""

    def _every_cpu(self) -> List[float]:
        cpus = os.sched_getaffinity(0)
        samples: List[float] = []
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                samples.extend(self.calibrate(self.CALIBRATE_S).samples)
        finally:
            os.sched_setaffinity(0, cpus)  # workers forked later inherit it
        return samples

    def __enter__(self) -> "HostSpeedAround":
        self._before = self._every_cpu()
        self.samples = []
        return self

    def __exit__(self, *exc_info) -> None:
        self.samples = self._before + self._every_cpu()

    @property
    def probe_s(self) -> float:
        """No probe runs inside the work."""
        return 0.0
