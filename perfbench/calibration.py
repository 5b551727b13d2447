"""The calibration kernel: the benchmark's unit of time.

Every timed quantity the benchmark reports is a multiple of this kernel's
median duration (the ``cal`` unit).  The host's vCPU speed drifts by
tens of percent over seconds; a kernel run in the same thread, between
the operations it calibrates, slows down and speeds up with them, so the
ratio holds still where raw milliseconds do not.

The kernel mixes the three kinds of work the measured code does: a dense
BLAS matmul, a CSR x dense product and a pure-Python loop.  It imports
numpy and scipy only, never the code it calibrates, so a change to that
code cannot change the unit it is measured in.  It must never run
concurrently with measured work: sharing the two vCPUs slows it down by
about half.

The kernel's median passes over the spans in which the hypervisor ran
another guest on this vCPU ("steal"): a 1 ms run is rarely hit.  A span
of seconds is hit in proportion, by 2-27% of a loaded phase's wall time
in 10 s windows on the reference host, so spans that long (an offline
operation, a loaded phase's blocks summed) subtract the steal that
:func:`stolen_seconds` reports.  Shorter spans do not: the count moves
in 10 ms ticks.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
import scipy.sparse as sp

__all__ = ["Calibrator", "stolen_seconds"]

_TICK = 1.0 / os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 0.01


def stolen_seconds() -> float:
    """Seconds the hypervisor has taken from the vCPUs this process may
    run on, since boot (0.0 where ``/proc/stat`` has no steal column).
    The count moves in clock ticks (10 ms), so a span's steal is exact to
    a tick."""
    cpus = {f"cpu{n}" for n in os.sched_getaffinity(0)} \
        if hasattr(os, "sched_getaffinity") else {"cpu"}
    ticks = 0
    try:
        with open("/proc/stat") as stat:
            for line in stat:
                fields = line.split()
                if fields and fields[0] in cpus and len(fields) > 8:
                    ticks += int(fields[8])
    except OSError:
        return 0.0
    return ticks * _TICK


class Calibrator:
    """Runs the kernel and keeps every duration it measured, in order."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._dense_a = rng.standard_normal((160, 160))
        self._dense_b = rng.standard_normal((160, 64))
        self._sparse = sp.random(2000, 2000, density=0.002, format="csr",
                                 random_state=np.random.RandomState(7))
        self._sparse_rhs = rng.standard_normal((2000, 16))
        self._loop_values = [float(v) for v in rng.standard_normal(256)]
        self.samples: list[float] = []
        #: Seconds spent in the kernel so far, to subtract from a span
        #: that the kernel ran inside of.
        self.total = 0.0

    def _kernel(self) -> float:
        dense = self._dense_a @ self._dense_b
        dense = self._dense_a @ dense
        spread = self._sparse @ self._sparse_rhs
        spread = self._sparse @ spread
        acc = 0.0
        values = self._loop_values
        for _ in range(24):
            for value in values:
                acc = acc * 0.5 + value
        return float(dense[0, 0] + spread[0, 0] + acc)

    def run(self, times: int = 1) -> float:
        """Run the kernel ``times`` times; returns the seconds it took."""
        total = 0.0
        for _ in range(times):
            start = time.perf_counter()
            self._kernel()
            elapsed = time.perf_counter() - start
            self.samples.append(elapsed)
            total += elapsed
        self.total += total
        return total

    def mark(self) -> int:
        """An index into :attr:`samples`, to take the median of a span."""
        return len(self.samples)

    def median(self, start: int = 0, stop: int | None = None) -> float:
        """Median kernel seconds over ``samples[start:stop]``."""
        window = self.samples[start:stop]
        if not window:
            raise RuntimeError("no calibration samples in the window")
        return statistics.median(window)
