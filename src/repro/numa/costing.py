"""Latency-weighted walk costing: lines → cycles, attributed per node.

The paper's §6.1 metric is *cache lines touched per TLB miss*; this
module weights each touched line by where it lives.  A
:class:`WalkCoster` combines a topology, a placement, and a replication
policy; :meth:`WalkCoster.charge_reads` consumes the byte-level read
list a :meth:`~repro.pagetables.memimage.MemoryImage.walk_reads` walk
produces and returns both the distinct-line count (identical to the
flat metric) and the latency-weighted cycle cost.  The replays in
:mod:`repro.numa.replay` and :mod:`repro.numa.batch` are its callers:
every NUMA cycle cost is computed here, from byte-level walks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Tuple

from repro.mmu.cache_model import distinct_lines
from repro.numa.placement import TablePlacement
from repro.numa.policy import ReplicationPolicy


@dataclass
class NumaWalkStats:
    """Per-node accounting of page-table line traffic.

    ``cycles / walks`` is the headline ``cycles_per_miss`` metric; with a
    single-node topology it is exactly ``lines_per_miss x local_latency``.
    """

    walks: int = 0
    lines: int = 0
    local_lines: int = 0
    remote_lines: int = 0
    cycles: int = 0
    #: Lines served per holding node (where the data lived).
    lines_by_node: Counter = field(default_factory=Counter)
    #: Walks issued per accessing node (where the miss happened).
    walks_by_node: Counter = field(default_factory=Counter)

    @property
    def cycles_per_miss(self) -> float:
        """Latency-weighted cycles per TLB miss."""
        return self.cycles / self.walks if self.walks else 0.0

    @property
    def local_fraction(self) -> float:
        """Fraction of line fetches serviced from the accessor's node."""
        return self.local_lines / self.lines if self.lines else 0.0

    def merge(self, other: "NumaWalkStats") -> None:
        """Accumulate another run's counters into this one."""
        self.walks += other.walks
        self.lines += other.lines
        self.local_lines += other.local_lines
        self.remote_lines += other.remote_lines
        self.cycles += other.cycles
        self.lines_by_node.update(other.lines_by_node)
        self.walks_by_node.update(other.walks_by_node)

    def reset(self) -> None:
        """Zero every counter."""
        self.walks = 0
        self.lines = 0
        self.local_lines = 0
        self.remote_lines = 0
        self.cycles = 0
        self.lines_by_node = Counter()
        self.walks_by_node = Counter()


class WalkCoster:
    """Charges page-table walks against a NUMA machine model."""

    def __init__(self, policy: ReplicationPolicy):
        self.policy = policy
        self.placement = policy.placement
        self.topology = policy.topology
        self.stats = NumaWalkStats()

    # ------------------------------------------------------------------
    def charge_reads(
        self,
        accessing_node: int,
        reads: Iterable[Tuple[int, int]],
    ) -> Tuple[int, int]:
        """Charge one walk given its ``(address, nbytes)`` read list.

        Returns ``(distinct_lines, cycles)``.  The distinct-line count
        uses the placement's line size and therefore equals the flat
        §6.1 metric for the same walk.
        """
        touched = distinct_lines(reads, self.placement.line_size)
        cycles = 0
        stats = self.stats
        stats.walks += 1
        stats.walks_by_node[accessing_node] += 1
        for line in sorted(touched):
            holder = self.policy.holder_of(line, accessing_node)
            cost = self.topology.access_cycles(accessing_node, holder)
            cycles += cost
            stats.lines += 1
            stats.lines_by_node[holder] += 1
            if holder == accessing_node:
                stats.local_lines += 1
            else:
                stats.remote_lines += 1
        stats.cycles += cycles
        return len(touched), cycles

    # ------------------------------------------------------------------
    def total_cycles(self) -> int:
        """Walk cycles plus the policy's migration-copy cycles."""
        return self.stats.cycles + self.policy.stats.migration_cycles

    def describe(self) -> str:
        """One-line human-readable description."""
        return f"WalkCoster[{self.policy.describe()}]"
