"""Host-speed reference: scale timings to a fixed speed of the CPU.

The 2-vCPU virtual machines this benchmark was written on share their
cores with other tenants, and their speed drifts between a fast and a
slow phase, 1.6-1.9x apart, lasting from seconds to minutes.  The
benchmark therefore times a fixed kernel of its own around every request
and reports each timing scaled by ``REFERENCE_S / reference``: the time
the request would take on a CPU that runs the kernel in ``REFERENCE_S``.
``perfbench/README.md`` ("Host speed") gives the measurements behind
this and its limits.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The speed timings are scaled to: a round figure between the kernel's
#: fast-phase (0.38 ms) and slow-phase (0.71 ms) times on a 2-vCPU Xeon
#: at 2.1 GHz.
REFERENCE_S = 5.0e-4

_TABLE = np.random.default_rng(0).integers(0, 100, size=(64, 64))


def kernel() -> int:
    """The fixed reference work: 60 shrinking max-plus sweeps of a table."""
    table = _TABLE
    for _ in range(60):
        table = np.maximum(table[1:, 1:] + 1, np.maximum(table[:-1, 1:], table[1:, :-1]))
    return int(table.sum())


def reference_s(repeats: int = 5) -> float:
    """Median seconds of *repeats* runs of ``kernel`` now."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(seconds: float, reference: float) -> float:
    """*seconds* measured while ``kernel`` took *reference*, at reference speed."""
    return seconds * REFERENCE_S / reference
