"""Machine-speed probe: rescales measured times to a reference speed.

On a shared virtual machine the same pure-Python work can take anywhere from
1.0x to 1.8x its best time, in phases that last from seconds to minutes, so
raw times of one run say as much about the neighbours as about matchtop.
The worker therefore times a fixed pure-Python kernel while it measures,
from a SIGALRM handler every PROBE_PERIOD_S during a pass.  ``scaled`` turns a measured time into the
time it would have taken at the speed where the kernel takes REF_PROBE_S,
given the kernel's typical time while it was measured.
The kernel's own time is subtracted from every pass and item time.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_PERIOD_S = 0.25
# The kernel's time at the reference speed, about its time on the 2-core
# x86-64 box (Python 3.11) the baseline was measured on.
REF_PROBE_S = 0.0007


def kernel():
    """Fixed pure-Python work with a tiny working set, about 1 ms."""
    s = 0
    for i in range(8_000):
        s += i * i % 7
    return s


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the kernel took ``probe_s``, rescaled to
    the reference speed."""
    return seconds * REF_PROBE_S / probe_s


class SpeedProbe:
    """Collects kernel timings.  As a context manager it also samples on
    entry, on exit and every PROBE_PERIOD_S in between."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # total kernel time, to subtract from measured times

    def sample(self, *_):
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        self.sample()
        self.previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self.previous)
        self.sample()

    def typical(self) -> float:
        """Mean kernel time without the fastest and slowest tenth of the
        samples.  A sample hit by a context switch would otherwise weigh far
        more in the mean than the same delay does in a long pass."""
        s = sorted(self.samples)
        cut = len(s) // 10
        return statistics.fmean(s[cut:len(s) - cut])
