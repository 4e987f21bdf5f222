"""Host speed correction for benchmark times.

On a shared virtual machine other tenants slow this one down by 10-50%
for seconds to minutes at a time.  Process CPU time rises with wall time,
so the slowdown cannot be subtracted; runs of the same code 30 s apart
then differ by more than the regressions the benchmark has to catch.

A `HostSpeed` times a fixed kernel of stdlib-only Python work
(Fraction arithmetic, dict updates, a sort: the kind of work latcut
does) between the ops it measures.  The kernel shares no code with
latcut, so a change to latcut cannot move it.  The mean kernel time over
a phase shows how fast the host ran during that phase.  Multiplying the
phase's measured times by `REFERENCE_S / mean kernel time` reports them
at one fixed host speed.  On the 2-core host where this was written,
the correction cut the run-to-run spread of dense_gram pass times from
about 9% to about 2%.  The mean is used, not the median, because the
slowdown comes in bursts and the ops feel its average.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# Mean kernel time, in seconds, on a quiet run of the host the benchmark
# was written on; corrected times read as if the host always ran at this
# speed.
REFERENCE_S = 0.0015


def kernel():
    total = Fraction(0)
    counts: dict[int, int] = {}
    for i in range(1, 300):
        total += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2)
        counts[i % 97] = counts.get(i % 97, 0) + i * i
    return total, sorted(counts.values())


class HostSpeed:
    """Kernel timings of one phase of a run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        # Garbage collection would make the kernel's time depend on the
        # heap the program under test left behind.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            kernel()
            self.samples.append(perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def factor(self) -> float:
        """Multiply a measured time by this to get it at reference speed."""
        return REFERENCE_S / statistics.fmean(self.samples)
