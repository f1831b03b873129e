"""The host's speed, read from a fixed reference kernel between phases.

The benchmark's host is shared, and its speed drifts by about ±20% over
minutes: in one pass every wall-time figure reads ~0.8× its median
across runs, in another ~1.2×, all at once.  A figure compared across
runs made at different times would follow the host, not the program.

So the pass times a fixed kernel -- the standard library and NumPy
only, no program code -- at every gap between phases, when no request
is in flight and no program run is going, and reports wall-time figures
scaled to a host on which the kernel takes :data:`NOMINAL_MS`.  The
kernel mixes interpreter work (dict updates) with NumPy array passes,
like the program's own engines.  The raw figures and the factor are
printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The kernel's time on this benchmark's reference host (2-core VM, its
#: fast state); only a unit, so any fixed value would do.
NOMINAL_MS = 10.0

#: Kernel timings per gap.
REPEAT = 3


def kernel() -> float:
    counts: dict = {}
    for i in range(40_000):
        counts[i % 1000] = counts.get(i % 1000, 0) + i
    values = np.arange(65_536, dtype=np.float64)
    for _ in range(20):
        values = np.sqrt(values * 1.0001 + 1.0)
    return float(values[-1]) + len(counts)


class HostSpeed:
    """Kernel timings over a pass."""

    def __init__(self):
        self.samples_ms: list = []

    def sample(self) -> None:
        for _ in range(REPEAT):
            started = time.perf_counter()
            kernel()
            self.samples_ms.append((time.perf_counter() - started) * 1e3)

    def kernel_ms(self) -> float:
        """Mean kernel time without its lowest and highest tenths.

        The host flips between a fast and a slow state from one second
        to the next; a mean follows the share of time spent in each
        smoothly, where a median would jump between the two states.
        """
        samples = sorted(self.samples_ms)
        cut = len(samples) // 10
        return statistics.fmean(samples[cut:len(samples) - cut])

    def factor(self) -> float:
        """How much slower than the reference host the pass ran."""
        return self.kernel_ms() / NOMINAL_MS
