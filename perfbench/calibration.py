"""A fixed calibration kernel that measures how fast the machine is running
right now, so that op times can be stated at a reference speed.

On a shared host the CPU speed a process gets drifts by 30% or more over
tens of seconds, as other tenants come and go. Every op feels that drift
in full, so raw op times from runs a minute apart differ by more than any
change worth detecting. The kernel below does the same kinds of work as
ldpkit (a Python loop over small numpy calls, a vectorized pass over a
grid, bare interpreter arithmetic), but it is frozen in the benchmark and
calls nothing of ldpkit, so a change to ldpkit does not change it. Timed
just before and just after an op, it feels the same drift as the op, and

    reference seconds = measured seconds * REFERENCE_S / kernel seconds

takes the drift out while keeping every change of ldpkit in. The kernel
seconds used for an op are the mean of the samples just before and just
after it and, for an op that runs in this process, of samples taken every
PERIOD_S while it runs; the time those take is not counted in the op's.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median time of one kernel() call on the 2-vCPU machine the first
# baseline was recorded on (Intel Xeon, Python 3.11, numpy 2.4). Values
# in reference seconds are close to wall seconds on that machine.
REFERENCE_S = 0.0055
PERIOD_S = 0.05  # the kernel then takes about a tenth of an op's time

_ROWS = np.random.default_rng(0).dirichlet(np.ones(8), size=8)
_GRID = np.linspace(0.0, 1.0, 4001)


def kernel() -> float:
    total, acc = 0.0, 0
    for _ in range(6):
        for i in range(8):  # small numpy calls from a Python loop, as in the scan
            for j in range(8):
                total += float(np.maximum(_ROWS[i] - 2.0 * _ROWS[j], 0.0).sum())
        for _ in range(4):  # vectorized passes over a grid, as in the quadratures
            total += float((np.sqrt(_GRID) * np.log1p(_GRID)).sum())
        for k in range(6000):  # interpreter arithmetic
            acc += k * k % 7
    return total + acc


class Calibrator:
    """Times the kernel around ops, and inside in-process ops, and scales
    op times by it. ``samples`` holds (start, seconds) per kernel run."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter() - t0))
        return self.samples[-1][1]

    def around(self, fn, during: bool = False):
        """Run ``fn()`` between two kernel samples and, with ``during``,
        every PERIOD_S while it runs (from a SIGALRM handler, so fn must
        run Python code in this process, not wait on a child that shares
        this CPU). Returns the factor that turns seconds measured inside
        fn into reference seconds, and what fn returned."""
        before = self.samples[-1][1] if self.samples else self.sample()
        first = len(self.samples)
        if during:
            signal.signal(signal.SIGALRM, lambda *_: self.sample())
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            out = fn()
        finally:
            if during:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, signal.SIG_DFL)
        window = [before, *(d for _, d in self.samples[first:]), self.sample()]
        return REFERENCE_S * len(window) / sum(window), out

    def kernel_seconds(self, t0: float, t1: float) -> float:
        """Seconds of kernel runs that started in [t0, t1): time an op
        measured from t0 to t1 spent in the kernel, not in the op."""
        return sum(d for s, d in self.samples if t0 <= s < t1)

    def median(self) -> float:
        return statistics.median(d for _, d in self.samples)
