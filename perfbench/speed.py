"""Host speed reference: report times at a fixed reference speed.

The benchmark runs on a few vCPUs of a shared machine.  Their speed drifts
by tens of percent over minutes as neighbours load the host; on a 2-vCPU VM
the raw median query latency of ten adhoc runs spread by 0.18 of its median,
and their import time by 0.25, while the program did not change.  Medians
inside a run cannot remove that, because a slow phase often lasts longer
than a run.

So the run times a fixed reference kernel (Python bytecode plus a numpy
gather and sort over an 8 MB array, about 3-5 ms) beside the work it
measures: every :data:`SAMPLE_EVERY` seconds between queries, and before and
after every set-up and fresh-interpreter import.  The kernel never calls the
program, and the program is idle while it runs.  A time ``t`` measured while
the kernel took ``k`` seconds is reported as ``t * (REFERENCE_S / k) ** a``:
the time the same work would take on a host where the kernel takes
:data:`REFERENCE_S`.  The exponent ``a`` is how strongly the work follows
the kernel.  Set-ups and imports are CPU-bound like the kernel, so ``a`` is
1 for them.  Query loops also wait on memory, threads and the GIL switch
interval, which a slow host stretches less, so ``a`` is
:data:`LOOP_EXPONENT` for them, with ``k`` the median over the loop.  A
change to the program moves every reported figure by the same share as the
raw one.  A change of host speed moves both the work and the kernel, and
mostly cancels.  Every raw figure and factor is kept in the run's notes and
result file.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

import numpy as np

__all__ = ["REFERENCE_S", "SAMPLE_EVERY", "LOOP_EXPONENT", "Reference", "factor", "loop_factor"]

#: kernel time that defines the reference speed (the kernel's time on an
#: unloaded 2-vCPU Xeon VM); reported times are times at this speed
REFERENCE_S = 0.0033

#: seconds of measured loop between two kernel samples
SAMPLE_EVERY = 0.5

#: how strongly query-loop times follow the kernel.  Chosen over 80 20-s
#: runs of the three workloads on a 2-vCPU VM (eight sets of ten).  With 0.5
#: every loop metric's 10-run spread stayed at or below 0.12.  An exponent
#: of 1 let scan's p99 spread reach 0.25, and 0 (no scaling) let its
#: throughput spread reach 0.22.
LOOP_EXPONENT = 0.5


class Reference:
    """The reference kernel and the samples of it a run has taken."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20_240_601)  # fixed: the kernel is the same in every run
        self._values = rng.normal(size=1_000_000)
        self._index = rng.integers(0, self._values.size, 50_000)
        self.samples: List[float] = []

    def _kernel(self) -> float:
        began = time.perf_counter()
        total = 0
        for step in range(40_000):
            total += step * step
        picked = self._values[self._index]
        picked.sort()
        float(picked.sum())
        float(np.abs(self._values[::7]).mean())
        return time.perf_counter() - began

    def sample(self) -> float:
        """Fastest of three kernel runs, in seconds; kept in :attr:`samples`."""
        best = min(self._kernel() for _ in range(3))
        self.samples.append(best)
        return best


def factor(samples: Sequence[float]) -> float:
    """``REFERENCE_S`` over the median kernel time: multiply CPU-bound times by it."""
    return REFERENCE_S / statistics.median(samples)


def loop_factor(samples: Sequence[float]) -> float:
    """What to multiply a query loop's times by, from its kernel samples."""
    return factor(samples) ** LOOP_EXPONENT
