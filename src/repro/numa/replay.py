"""NUMA-aware phase-2 replay: charge a page table's walks per node.

The flat replay (:func:`repro.mmu.simulate.replay_misses`) charges each
miss a cache-line count; this module repeats that replay at *byte*
granularity so every touched line can be attributed to the NUMA node
holding it.  Byte addresses come from the byte-exact memory images
(:class:`~repro.pagetables.memimage.MemoryImage`) for hashed and
clustered tables, and from the leaf-array geometry for linear tables.

Address canonicalisation
------------------------
The paper's §6.1 metric assumes *every page-table node starts on a
cache-line boundary*; the object tables count lines under that
assumption, while a raw image packs nodes contiguously at their format
stride.  :class:`_NodeAlignedReads` therefore remaps each image node to
its own line-aligned region before costing, which makes the replay's
distinct-line count equal the flat replay's ``cache_lines`` **exactly**
— the invariant the single-node differential test pins: with the 1-node
topology, ``lines == replay_misses(...).cache_lines`` and ``cycles ==
lines x local_latency``.

Accessing nodes
---------------
Which node takes each TLB miss is the workload model, not the machine's:

- ``block-affine`` (default): the node is derived from the faulting
  page's virtual block (``vpbn mod nodes``) — threads with partitioned
  working sets, the regime where migration policies can win.
- ``uniform``: misses round-robin across nodes regardless of address —
  fully shared data, the regime where only replication helps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

from repro.core.clustered import ClusteredPageTable
from repro.errors import ConfigurationError
from repro.mmu.batch_kernels import BatchUnsupportedError
from repro.mmu.simulate import MissStream
from repro.numa.costing import NumaWalkStats, WalkCoster
from repro.obs.metrics import HistogramStats, get_registry
from repro.numa.placement import (
    DEFAULT_LINE_SIZE,
    FirstTouchPlacement,
    TablePlacement,
)
from repro.numa.policy import PolicyStats, ReplicationPolicy, make_policy
from repro.numa.topology import NumaTopology, get_topology
from repro.pagetables.hashed import HashedPageTable
from repro.pagetables.linear import LinearPageTable
from repro.pagetables.memimage import MemoryImage
from repro.pagetables.pte import PTE_BYTES

#: Recognised accessing-node assignment patterns.
ACCESS_PATTERNS = ("block-affine", "uniform")

#: A walk-reads callable: vpn -> (translation or None, [(addr, nbytes)]).
ReadsFn = Callable[[int], Tuple[Optional[tuple], List[Tuple[int, int]]]]


class _NodeAlignedReads:
    """Walk an image, remapping each node to a line-aligned region.

    Node *k* of the image (at byte offset ``k x node_bytes``) is placed
    at ``k x stride`` where ``stride`` is ``node_bytes`` rounded up to a
    whole number of cache lines — the §6.1 alignment assumption under
    which the object tables count lines.
    """

    def __init__(self, image: MemoryImage, line_size: int):
        self.image = image
        lines = -(-image.node_bytes // line_size)
        self.stride = lines * line_size

    def __call__(self, vpn: int):
        translation, reads = self.image.walk_reads(vpn)
        node_bytes = self.image.node_bytes
        remapped = [
            ((offset // node_bytes) * self.stride + offset % node_bytes,
             nbytes)
            for offset, nbytes in reads
        ]
        return translation, remapped


class _LinearLeafReads:
    """Byte reads of an ideal ("1-level") linear table walk.

    The leaf PTE array is a flat virtual array of eight-byte PTEs; the
    ideal structure's nested translations are free (§6.1's "1-level"
    accounting), so each walk reads exactly the faulting PTE's eight
    bytes — one cache line, matching the object table's cost.
    """

    def __init__(self, table: LinearPageTable):
        if table.structure != "ideal":
            raise ConfigurationError(
                "NUMA replay models the ideal (1-level) linear structure; "
                f"got {table.structure!r}"
            )
        self.table = table

    def __call__(self, vpn: int):
        cell = self.table._load_cell(vpn)
        reads = [(vpn * PTE_BYTES, PTE_BYTES)]
        if cell is None:
            return None, reads
        return (vpn,), reads


def walk_reads_fn(table, line_size: int = DEFAULT_LINE_SIZE) -> ReadsFn:
    """Byte-level walk function for one page table organisation."""
    if isinstance(table, LinearPageTable):
        return _LinearLeafReads(table)
    if isinstance(table, ClusteredPageTable):
        return _NodeAlignedReads(MemoryImage.of_clustered(table), line_size)
    if isinstance(table, HashedPageTable):
        return _NodeAlignedReads(MemoryImage.of_hashed(table), line_size)
    raise ConfigurationError(
        f"no NUMA walk model for {type(table).__name__}; supported: "
        "linear (ideal), hashed (grain 1), clustered"
    )


@dataclass
class NumaReplayResult:
    """One page table's NUMA-weighted cost over a miss stream."""

    table_description: str
    topology_name: str
    policy_name: str
    misses: int
    cache_lines: int
    faults: int
    numa: NumaWalkStats = field(default_factory=NumaWalkStats)
    policy_stats: PolicyStats = field(default_factory=PolicyStats)

    @property
    def lines_per_miss(self) -> float:
        """The flat §6.1 metric (identical to the non-NUMA replay)."""
        return self.cache_lines / self.misses if self.misses else 0.0

    @property
    def cycles_per_miss(self) -> float:
        """Latency-weighted cycles per miss, including migration copies."""
        if not self.misses:
            return 0.0
        total = self.numa.cycles + self.policy_stats.migration_cycles
        return total / self.misses


def access_node_fn(
    pattern: str, topology: NumaTopology, layout
) -> Callable[[int, int], int]:
    """(vpn, miss index) -> accessing node, for one assignment pattern."""
    nnodes = topology.num_nodes
    if pattern == "block-affine":
        return lambda vpn, index: layout.vpbn(vpn) % nnodes
    if pattern == "uniform":
        return lambda vpn, index: index % nnodes
    raise ConfigurationError(
        f"unknown access pattern {pattern!r}; known: {ACCESS_PATTERNS}"
    )


@dataclass
class ReplaySetup:
    """What both NUMA replay engines resolve before their first walk
    (:func:`setup_replay`): the machine, placement and policy, the
    coster, the byte-level walk and accessing-node functions, and one
    (lines, cycles) histogram pair per accessing node."""

    topology: NumaTopology
    placement: TablePlacement
    policy: ReplicationPolicy
    coster: WalkCoster
    reads_fn: ReadsFn
    node_of: Callable[[int, int], int]
    lines_handles: List[HistogramStats]
    cycles_handles: List[HistogramStats]

    def result(
        self, table, misses: int, cache_lines: int, faults: int
    ) -> NumaReplayResult:
        """The replay's result, with the coster's and policy's stats."""
        return NumaReplayResult(
            table.describe(), self.topology.name, self.policy.name, misses,
            cache_lines, faults, self.coster.stats, self.policy.stats,
        )


def setup_replay(
    table,
    topology: Union[str, NumaTopology, None],
    policy: Union[str, ReplicationPolicy],
    placement: Optional[TablePlacement],
    access_pattern: str,
    policies: Optional[Tuple[type, ...]] = None,
) -> ReplaySetup:
    """Resolve one NUMA replay's machine, policy, walk model and series.

    ``placement`` defaults to first-touch on node 0 — the whole table
    allocated where the OS booted, the Mitosis paper's motivating worst
    case.  A policy whose type is not in ``policies`` (when given) raises
    :class:`~repro.mmu.batch_kernels.BatchUnsupportedError` before any
    registry series exists.
    """
    resolved = get_topology(topology)
    if placement is None:
        placement = FirstTouchPlacement(resolved, node=0)
    elif placement.topology is not resolved:
        raise ConfigurationError(
            "placement was built for a different topology"
        )
    if isinstance(policy, str):
        policy = make_policy(policy, placement)
    if policies is not None and type(policy) not in policies:
        raise BatchUnsupportedError(f"{type(policy).__name__} is stateful")
    # Per-node walk histograms, handles resolved once so the hot loops
    # never pay the label-sort cost: each node's walk-cost distribution,
    # complementing NumaWalkStats' flat totals.
    registry = get_registry()
    labels = {"topology": resolved.name, "policy": policy.name}
    return ReplaySetup(
        topology=resolved,
        placement=placement,
        policy=policy,
        coster=WalkCoster(policy),
        reads_fn=walk_reads_fn(table, placement.line_size),
        node_of=access_node_fn(access_pattern, resolved, table.layout),
        lines_handles=[
            registry.histogram_handle("numa.walk_lines", node=node, **labels)
            for node in range(resolved.num_nodes)
        ],
        cycles_handles=[
            registry.histogram_handle("numa.walk_cycles", node=node, **labels)
            for node in range(resolved.num_nodes)
        ],
    )


def replay_misses_numa(
    stream: MissStream,
    table,
    topology: Union[str, NumaTopology, None] = None,
    policy: Union[str, ReplicationPolicy] = "none",
    placement: Optional[TablePlacement] = None,
    access_pattern: str = "block-affine",
    miss_limit: Optional[int] = None,
) -> NumaReplayResult:
    """Replay a miss stream against one table on a NUMA machine.

    Walks are performed at byte granularity (see module docstring) and
    every touched line is charged at the latency between the accessing
    node and the node the policy serves it from (:func:`setup_replay`
    resolves both).  A miss whose walk faults is counted in ``faults``
    and charged nothing, matching
    :func:`~repro.mmu.simulate.replay_misses`.
    """
    setup = setup_replay(table, topology, policy, placement, access_pattern)
    vpns = stream.vpns[:miss_limit].tolist()
    total_lines = 0
    faults = 0
    for index, vpn in enumerate(vpns):
        translation, reads = setup.reads_fn(vpn)
        if translation is None:
            faults += 1
            continue
        node = setup.node_of(vpn, index)
        lines, cycles = setup.coster.charge_reads(node, reads)
        total_lines += lines
        setup.lines_handles[node].observe(lines)
        setup.cycles_handles[node].observe(cycles)
    return setup.result(table, len(vpns), total_lines, faults)
