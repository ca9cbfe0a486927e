"""The pace of the machine while a sweep runs, from a fixed reference kernel.

A shared host runs the same code at speeds that differ by up to a factor of
two from one stretch of seconds to the next, so a sweep's wall time moves by
20-40% between runs of the same code.  ``PaceClock`` measures that pace
inside the sweep's own process: every INTERVAL_S seconds a SIGALRM handler
runs ``kernel`` (a fixed loop of small numpy operations driven from Python,
like the simulator's own inner loops) and records how long it took.  The
sweep's wall time, less the time spent in the kernel, rescaled by
``REFERENCE_S / mean kernel time``, is the time the sweep would take at the
reference pace.  Samples fall evenly over the sweep, so their mean is the
pace the sweep ran at.

Nothing here touches the program: the kernel is the benchmark's own code, so
a change to metricfl moves the sweep time but not the pace.  The sweep must
run in the measured process; work moved to other processes is not paced.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Kernel time that defines the reference pace (about the median on a 2-vCPU
# Xeon VM); paced times are in seconds at this pace.
REFERENCE_S = 4.0e-4
INTERVAL_S = 0.02

_A = np.random.default_rng(0).standard_normal((60, 60))


def kernel() -> float:
    total = 0.0
    for i in range(100):
        total += float((_A[i % 60] * _A[(i + 1) % 60]).sum())
    return total


class PaceClock:
    """Context manager that samples the kernel every INTERVAL_S seconds."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a late tick while the kernel still runs
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)
        self._busy = False

    def __enter__(self) -> "PaceClock":
        kernel()  # warm: the first call pays for lazy set-up in numpy
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def paced(self, wall_s: float) -> float:
        """``wall_s`` of the measured code, less the kernel's share, at the reference pace."""
        if not self.samples:
            raise RuntimeError("no pace samples: the measured code ran for less than one interval")
        return (wall_s - sum(self.samples)) * REFERENCE_S / statistics.fmean(self.samples)
