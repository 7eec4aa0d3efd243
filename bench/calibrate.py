"""Machine-speed calibration of the benchmark's time metrics.

The benchmark runs on shared virtual CPUs.  On the 2-vCPU KVM host it was
tuned on, the same job took anywhere from 1.9 s to 3.1 s, and the speed
switched within seconds.  Raw times from one run therefore say more about
the neighbours than about the program.

So every job times a fixed calibration kernel every SAMPLE_INTERVAL_S of wall
time, from a SIGALRM handler, and reports its times at a nominal speed:

    normalised = (raw - kernel time) * mean(NOMINAL_S / kernel time_i)

The kernel has the shape of the quadrature's inner loop: numpy complex logs
and exponentials on a few hundred nodes, plus scalar complex arithmetic.  It
never touches rzero state, so a job's output is the same with it.  The raw
times stay in the run record.
"""

from __future__ import annotations

import bisect
import cmath
import math
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

NOMINAL_S = 0.65e-3        # typical kernel time on the tuning host
SAMPLE_INTERVAL_S = 0.05   # kernel every 50 ms: about 1.3 % of a job
BRACKET_REPS = 5           # kernels around a set-up probe or a tiny job
LOCAL_SAMPLES = 5          # kernels behind the speed at one instant

_NODES = 0.5 + (np.arange(-200, 201) * 0.05) * cmath.exp(1j * math.pi / 4.0)


def kernel() -> None:
    """The fixed calibration work."""
    acc = 0j
    for k in range(4):
        s = complex(0.5, 100.0 + k)
        lg = (-s * np.log(_NODES) + 1j * math.pi * _NODES * _NODES
              - np.log(np.exp(2j * math.pi * _NODES) - 1.0))
        acc += complex(np.sum(np.exp(lg - lg.real.max())))
        for i in range(60):
            acc += cmath.exp(complex(0.001 * i, 0.002 * k))


def kernel_seconds() -> float:
    start = time.perf_counter_ns()
    kernel()
    return (time.perf_counter_ns() - start) / 1e9


def factor(kernel_times) -> float:
    """Scale from raw to nominal seconds for the given kernel times."""
    return statistics.fmean(NOMINAL_S / t for t in kernel_times)


def bracket_factor() -> float:
    """Factor from BRACKET_REPS kernels run now."""
    return factor([kernel_seconds() for _ in range(BRACKET_REPS)])


class Sampler:
    """Runs the kernel every SAMPLE_INTERVAL_S of wall time while active.

    ``where`` is called at each sample and its value stored with it; the
    traced job passes the innermost open span, so spans can exclude kernel
    time.
    """

    def __init__(self, where=None):
        self.samples: list[tuple[int, int, int]] = []  # (start_ns, end_ns, where)
        self.total_ns = 0
        self._where = where

    def _tick(self, signum, frame):
        where = self._where() if self._where is not None else -1
        start = time.perf_counter_ns()
        kernel()
        end = time.perf_counter_ns()
        self.samples.append((start, end, where))
        self.total_ns += end - start

    @contextmanager
    def active(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def local_factors(self, times_ns: list[int]) -> list[float]:
        """Factor at each instant, from the median of the LOCAL_SAMPLES
        kernel times nearest to it; the job factor when unsampled."""
        if not self.samples:
            return [self.factor()] * len(times_ns)
        starts = [start for start, _, _ in self.samples]
        kernels = [(end - start) / 1e9 for start, end, _ in self.samples]
        half = LOCAL_SAMPLES // 2
        out = []
        for t in times_ns:
            k = bisect.bisect(starts, t)
            lo = max(0, min(k - half, len(kernels) - LOCAL_SAMPLES))
            out.append(NOMINAL_S / statistics.median(kernels[lo:lo + LOCAL_SAMPLES]))
        return out

    def factor(self) -> float:
        """Factor over the samples taken, or from a bracket when the job was
        too short to be sampled."""
        if not self.samples:
            return bracket_factor()
        return factor([(end - start) / 1e9 for start, end, _ in self.samples])
