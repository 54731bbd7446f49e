"""Mitosis-style replicated page tables and their shootdown coupling.

:class:`ReplicatedPageTable` is the object-model substrate behind the
``mitosis`` policy: one full page-table replica per NUMA node, built by
a caller-supplied factory.  Reads go to the reader's local replica;
every OS-side update (insert / remove / attribute mark) is applied to
**all** replicas, and the write fan-out is counted — the coherence cost
the Mitosis paper charges against replication.

:class:`NumaSMPSystem` extends the §3.1 shootdown model
(:class:`~repro.os.shootdown.SMPSystem`): each CPU's MMU walks its own
node's replica, and unmap/protect operations update every replica
*before* the TLB-invalidation round.  Skipping either half leaves a CPU
translating through a stale replica — the divergence the MMU-oracle
differential test (``tests/test_numa_replication.py``) exists to catch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.addr.space import DEFAULT_ATTRS
from repro.errors import ConfigurationError, PageFaultError
from repro.mmu.mmu import MMU
from repro.mmu.tlb import BaseTLB
from repro.numa.topology import NumaTopology
from repro.obs.metrics import get_registry
from repro.os.shootdown import SMPSystem
from repro.pagetables.base import LookupResult, PageTable
from repro.resilience.faults import fault_point


@dataclass
class ReplicationStats:
    """Write fan-out accounting for one replicated table."""

    #: OS-side update operations issued.
    updates: int = 0
    #: Individual replica writes performed (``updates x replicas``).
    replica_writes: int = 0
    #: Extra writes replication caused beyond a single table's.
    coherence_writes: int = 0


class ReplicatedPageTable:
    """One page-table replica per NUMA node, updated in lockstep.

    Parameters
    ----------
    factory:
        Zero-argument callable building one empty replica; called once
        per node.  All replicas must be built identically (same layout,
        buckets, hash function) so walks agree.
    topology:
        The machine; one replica is built per node.
    """

    def __init__(
        self,
        factory: Callable[[], PageTable],
        topology: NumaTopology,
    ):
        self.topology = topology
        self.replicas: List[PageTable] = [
            factory() for _ in range(topology.num_nodes)
        ]
        # Walk-trace events from replica ``i`` carry node ``i``.
        for node, replica in enumerate(self.replicas):
            replica.numa_node = node
        self.stats = ReplicationStats()

    # ------------------------------------------------------------------
    @property
    def num_replicas(self) -> int:
        """Replica count (== the topology's node count)."""
        return len(self.replicas)

    @property
    def layout(self):
        """The shared address layout (all replicas agree)."""
        return self.replicas[0].layout

    def replica(self, node: int) -> PageTable:
        """The replica held in ``node``'s local memory."""
        return self.replicas[node]

    # ------------------------------------------------------------------
    # Reads: always the local replica
    # ------------------------------------------------------------------
    def lookup(self, vpn: int, node: int = 0) -> LookupResult:
        """Walk ``node``'s local replica (a TLB miss on that node)."""
        return self.replicas[node].lookup(vpn)

    # ------------------------------------------------------------------
    # Updates: fan out to every replica
    # ------------------------------------------------------------------
    def _count_fan(self) -> None:
        """Charge one fanned-out update to both accounting layers."""
        self.stats.updates += 1
        self.stats.replica_writes += self.num_replicas
        self.stats.coherence_writes += self.num_replicas - 1
        registry = get_registry()
        registry.inc("replication.updates")
        registry.inc("replication.replica_writes", self.num_replicas)
        registry.inc("replication.coherence_writes", self.num_replicas - 1)

    def _fan(self, op: Callable[[PageTable], None]) -> None:
        # Chaos hook: "skip-replica" drops node 0's update, creating the
        # stale-replica divergence coherent() and the differential test
        # must catch — the fan-out is still *charged* for every replica,
        # modelling a write that was issued but lost.
        skip = (
            self.num_replicas > 1
            and fault_point("numa.replica_divergence") == "skip-replica"
        )
        for node, replica in enumerate(self.replicas):
            if skip and node == 0:
                continue
            op(replica)
        self._count_fan()

    def insert(self, vpn: int, ppn: int, attrs: int = DEFAULT_ATTRS) -> None:
        """Add a base-page mapping to every replica."""
        self._fan(lambda table: table.insert(vpn, ppn, attrs))

    def remove(self, vpn: int) -> None:
        """Remove the mapping from every replica."""
        self._fan(lambda table: table.remove(vpn))

    def mark(self, vpn: int, set_bits: int = 0, clear_bits: int = 0) -> int:
        """Update attribute bits in every replica; returns the new bits."""
        skip = (
            self.num_replicas > 1
            and fault_point("numa.replica_divergence") == "skip-replica"
        )
        results = [
            table.mark(vpn, set_bits=set_bits, clear_bits=clear_bits)
            for node, table in enumerate(self.replicas)
            if not (skip and node == 0)
        ]
        self._count_fan()
        return results[-1]

    def insert_superpage(
        self, base_vpn: int, npages: int, base_ppn: int,
        attrs: int = DEFAULT_ATTRS,
    ) -> None:
        """Add a superpage mapping to every replica."""
        self._fan(
            lambda table: table.insert_superpage(
                base_vpn, npages, base_ppn, attrs
            )
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Total memory across replicas — the Mitosis footprint cost."""
        return sum(table.size_bytes() for table in self.replicas)

    def coherent(self, vpn: int) -> bool:
        """True when every replica translates ``vpn`` identically.

        The invariant the update fan-out maintains; the differential
        test drives this over whole address spaces.  Only
        :class:`~repro.errors.PageFaultError` reads as "unmapped here" —
        any other exception is a real lookup bug in that replica and
        propagates, so a broken replica can never masquerade as
        "consistently unmapped" and slip through the differential.
        """
        if not self.replicas:
            return True
        outcomes = []
        for table in self.replicas:
            try:
                result = table.lookup(vpn)
                outcomes.append((result.ppn, result.attrs))
            except PageFaultError:
                outcomes.append(None)
        return all(outcome == outcomes[0] for outcome in outcomes)

    def describe(self) -> str:
        """One-line human-readable description."""
        return (
            f"mitosis x{self.num_replicas} [{self.replicas[0].describe()}]"
        )


class NumaSMPSystem(SMPSystem):
    """An SMP machine whose CPUs walk per-node page-table replicas.

    CPU *i* belongs to node ``i % nodes`` and services TLB misses from
    that node's replica.  Range operations update every replica and then
    run one TLB-shootdown round (inherited accounting), so the
    replication write-coherence cost and the IPI cost show up side by
    side.
    """

    def __init__(
        self,
        table: ReplicatedPageTable,
        tlb_factory: Callable[[], BaseTLB],
        ncpus: int = 4,
        batch_range_shootdowns: bool = True,
        fault_handler: Optional[Callable[[int], None]] = None,
    ):
        if ncpus < 1:
            raise ConfigurationError(f"need at least one CPU, got {ncpus}")
        # Deliberately not calling SMPSystem.__init__: each MMU binds to
        # its node's replica instead of one shared table.
        self.replicated = table
        self.page_table = table.replica(0)
        self.ncpus = ncpus
        self.batch_range_shootdowns = batch_range_shootdowns
        self.cpus = [
            MMU(
                tlb_factory(),
                table.replica(self.node_of_cpu(cpu)),
                fault_handler=fault_handler,
            )
            for cpu in range(ncpus)
        ]
        from repro.os.shootdown import ShootdownStats

        self.stats = ShootdownStats()

    def node_of_cpu(self, cpu: int) -> int:
        """The NUMA node CPU ``cpu`` belongs to."""
        return cpu % self.replicated.topology.num_nodes

    # ------------------------------------------------------------------
    # Range operations: replica fan-out, then the shootdown round
    # ------------------------------------------------------------------
    def unmap(self, vpn: int, initiator: int = 0) -> None:
        """Remove one mapping from every replica, then shoot down."""
        self.replicated.remove(vpn)
        self._shootdown([vpn], initiator)

    def unmap_range(
        self, base_vpn: int, npages: int, initiator: int = 0
    ) -> None:
        """Remove a range from every replica; IPI batching as configured."""
        if self.batch_range_shootdowns:
            for vpn in range(base_vpn, base_vpn + npages):
                self.replicated.remove(vpn)
            self._shootdown(
                list(range(base_vpn, base_vpn + npages)), initiator
            )
        else:
            for vpn in range(base_vpn, base_vpn + npages):
                self.unmap(vpn, initiator)

    def protect_range(
        self, base_vpn: int, npages: int, attrs: int = DEFAULT_ATTRS,
        initiator: int = 0,
    ) -> None:
        """Downgrade a range in every replica, then shoot down."""
        for vpn in range(base_vpn, base_vpn + npages):
            result = self.replicated.lookup(vpn, node=0)
            self.replicated.remove(vpn)
            self.replicated.insert(vpn, result.ppn, attrs)
        self._shootdown(list(range(base_vpn, base_vpn + npages)), initiator)

    def describe(self) -> str:
        """One-line human-readable description."""
        return (
            f"NUMA-SMP x{self.ncpus} over {self.replicated.describe()}"
        )
