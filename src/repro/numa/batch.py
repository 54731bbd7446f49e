"""Batch NUMA replay: per-unique-VPN walk memoization.

:func:`replay_misses_numa_batch` mirrors
:func:`repro.numa.replay.replay_misses_numa` exactly for the *stateless*
replication policies.  The byte-level walk of a VPN is a pure function
of the (immutable) memory image, and both stateless policies make the
holding node a pure function of ``(line, accessing node)``:

- ``none`` — the holder is the placement's home, whatever node accesses;
- ``mitosis`` — the holder *is* the accessing node.

So each distinct VPN's walk is resolved once — translation, distinct
line set, per-accessor holder/cycle profile — and every stream
occurrence is charged by multiplication.  The migrate-on-threshold
policy is order-dependent (per-line counters migrate lines mid-replay)
and raises :class:`~repro.mmu.batch_kernels.BatchUnsupportedError`;
callers fall back to the scalar replay.

Exactness contract (pinned by ``tests/test_numa_batch.py``): equal
:class:`~repro.numa.replay.NumaReplayResult` totals, equal
:class:`~repro.numa.costing.NumaWalkStats` (including both per-node
counters), equal :class:`~repro.numa.policy.PolicyStats`, and equal
``numa.walk_lines`` / ``numa.walk_cycles`` registry histograms.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.mmu.batch_kernels import BatchUnsupportedError
from repro.mmu.cache_model import distinct_lines
from repro.mmu.simulate import MissStream
from repro.numa.costing import WalkCoster
from repro.numa.placement import FirstTouchPlacement, TablePlacement
from repro.numa.replay import (
    NumaReplayResult,
    access_node_fn,
    walk_reads_fn,
)
from repro.errors import ConfigurationError
from repro.numa.policy import (
    MitosisPolicy,
    NoReplicationPolicy,
    ReplicationPolicy,
    make_policy,
)
from repro.numa.topology import NumaTopology, get_topology
from repro.obs.metrics import get_registry

__all__ = ["replay_misses_numa_batch"]


def replay_misses_numa_batch(
    stream: MissStream,
    table,
    topology: Union[str, NumaTopology, None] = None,
    policy: Union[str, ReplicationPolicy] = "none",
    placement: Optional[TablePlacement] = None,
    access_pattern: str = "block-affine",
    miss_limit: Optional[int] = None,
) -> NumaReplayResult:
    """Vectorized, exact equivalent of ``replay_misses_numa``.

    Raises :class:`BatchUnsupportedError` for the stateful ``migrate``
    policy (whose per-line counters make walk cost order-dependent);
    every other configuration the scalar replay accepts is supported.
    """
    resolved = get_topology(topology)
    if placement is None:
        placement = FirstTouchPlacement(resolved, node=0)
    elif placement.topology is not resolved:
        raise ConfigurationError("placement was built for a different topology")
    if isinstance(policy, str):
        policy = make_policy(policy, placement)
    policy_type = type(policy)
    if policy_type not in (NoReplicationPolicy, MitosisPolicy):
        raise BatchUnsupportedError(f"{policy_type.__name__} is stateful")
    mitosis = policy_type is MitosisPolicy
    coster = WalkCoster(policy)
    reads_fn = walk_reads_fn(table, placement.line_size)
    node_of = access_node_fn(access_pattern, resolved, table.layout)
    nnodes = resolved.num_nodes

    registry = get_registry()
    labels = {"topology": resolved.name, "policy": policy.name}
    lines_handles = [
        registry.histogram_handle("numa.walk_lines", node=node, **labels)
        for node in range(nnodes)
    ]
    cycles_handles = [
        registry.histogram_handle("numa.walk_cycles", node=node, **labels)
        for node in range(nnodes)
    ]

    vpns = np.asarray(stream.vpns, dtype=np.int64)
    if miss_limit is not None:
        vpns = vpns[:miss_limit]
    misses = int(vpns.shape[0])
    unique_vpns, inverse, counts = np.unique(
        vpns, return_inverse=True, return_counts=True
    )

    # Occurrence counts per (unique vpn, accessing node).  Block-affine
    # accessors depend only on the VPN; uniform accessors round-robin by
    # miss index, so each unique VPN fans out over index residues.
    if access_pattern == "uniform" and nnodes > 1:
        residues = np.arange(misses, dtype=np.int64) % nnodes
        counts_by_node = np.bincount(
            inverse * nnodes + residues, minlength=unique_vpns.shape[0] * nnodes
        ).reshape(unique_vpns.shape[0], nnodes)
    else:
        counts_by_node = None  # one accessor per unique VPN

    stats = coster.stats
    served = policy.stats.served_by_node
    total_lines = 0
    faults = 0
    for at, vpn in enumerate(unique_vpns.tolist()):
        translation, reads = reads_fn(vpn)
        count = int(counts[at])
        if translation is None:
            faults += count
            continue
        lines = sorted(distinct_lines(reads, placement.line_size))
        nlines = len(lines)
        if counts_by_node is None:
            accessor_counts = ((node_of(vpn, 0), count),)
        else:
            accessor_counts = tuple(
                (node, int(counts_by_node[at, node]))
                for node in range(nnodes)
                if counts_by_node[at, node]
            )
        total_lines += nlines * count
        for accessor, weight in accessor_counts:
            stats.walks += weight
            stats.walks_by_node[accessor] += weight
            cycles = 0
            for line in lines:
                holder = accessor if mitosis else placement.home_of(line)
                cycles += resolved.access_cycles(accessor, holder)
                stats.lines_by_node[holder] += weight
                served[holder] += weight
                if holder == accessor:
                    stats.local_lines += weight
                else:
                    stats.remote_lines += weight
            stats.lines += nlines * weight
            stats.cycles += cycles * weight
            lines_handles[accessor].observe_many(nlines, weight)
            cycles_handles[accessor].observe_many(cycles, weight)

    return NumaReplayResult(
        table_description=table.describe(),
        topology_name=resolved.name,
        policy_name=policy.name,
        misses=misses,
        cache_lines=total_lines,
        faults=faults,
        numa=coster.stats,
        policy_stats=policy.stats,
    )
