"""How slow the host is running, from a fixed kernel timed between rounds.

Other tenants of a shared host slow it by 30-70% for a minute or more
at a time, longer than a run.  They slow it mostly through the memory
system, so the slowdown is largest for code with a large working set,
as this program's page tables and miss streams are.  The kernel has one
too: random gathers over a 32 MB array and a dict of 100k chained
tuples.  It is the benchmark's own code, so no change to the program
can change its time; only the host can.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

#: The kernel's fastest pass on a quiet 2-vCPU x86-64 cloud host.
QUIET_PASS_S = 0.060
#: Passes timed at each sample.
PASSES = 3


class HostSpeed:
    """Kernel passes timed over one run; their fastest gives the slowdown."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.values = rng.integers(0, 1 << 40, size=4_000_000)
        self.index = rng.integers(0, self.values.size, size=400_000)
        self.passes: List[float] = []
        self._pass()  # first touch of the arrays, not counted

    def _pass(self) -> float:
        started = time.perf_counter()
        gathered = self.values[self.index]
        buckets: dict = {}
        for i in range(100_000):
            key = int(gathered[i]) & 0x3FFFF
            buckets[key] = (i, buckets.get(key))
        total = 0
        for key in range(0, 0x40000, 16):
            node = buckets.get(key)
            while node is not None:
                total += node[0]
                node = node[1]
        np.bincount(gathered & 0xFFFFF)
        return time.perf_counter() - started

    def sample(self) -> None:
        self.passes.extend(self._pass() for _ in range(PASSES))

    def slowdown(self) -> float:
        """The run's fastest pass over a quiet host's: 1.0 means quiet."""
        return min(self.passes) / QUIET_PASS_S
