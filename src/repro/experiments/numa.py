"""NUMA extension: page-table placement, replication, and walk latency.

The paper's §6.1 metric — cache lines touched per TLB miss — is
location-blind: on a point-to-point NUMA machine every one of those
lines lives on *some* node, and a walk that crosses the interconnect
costs 1.7–2.3x a local one.  This experiment reruns the Figure 11a-style
replay on modelled multi-socket machines
(:mod:`repro.numa.topology`) and asks how each page-table organisation
responds to the three placements an OS can choose:

- ``none`` — the whole table sits where it was first touched (node 0),
  the Linux default and the Mitosis paper's motivating worst case;
- ``mitosis`` — one full replica per node, reads all-local, with the
  write fan-out counted separately (ASPLOS '20);
- ``migrate`` — page-table lines migrate toward their dominant accessor
  once an access-count threshold is crossed (numaPTE-style).

Reported per (workload, table, topology): the flat ``lines/miss`` metric
(identical across topologies and policies — placement never changes
*what* a walk touches, only *where it lives*) and latency-weighted
``cycles/miss`` per policy, plus the mitosis local-access fraction and
the migration count.  On a single node every policy degenerates to the
same all-local cost, which the differential test pins against the flat
replay exactly: ``cycles == cache_lines x 90``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.metrics import make_table
from repro.errors import ConfigurationError
from repro.experiments.common import (
    ExperimentResult,
    active_engine,
    get_miss_stream,
    get_translation_map,
    get_workload,
)
from repro.numa.replay import NumaReplayResult, replay_misses_numa
from repro.numa.topology import PRESETS, get_topology

#: Single-stream workloads chosen to span density regimes (Table 1).
DEFAULT_WORKLOADS = ("coral", "mp3d", "gcc")

#: Table organisations with a byte-level NUMA walk model.
DEFAULT_TABLES = ("linear-1lvl", "hashed", "clustered")

#: Machine sizes swept, smallest first (1-node is the control row).
DEFAULT_TOPOLOGIES = ("1-node", "2-node", "4-node", "8-node")

#: Placement/replication policies compared per machine.
DEFAULT_POLICIES = ("none", "mitosis", "migrate")

#: Replays are capped like the cachesim study: the per-miss averages
#: stabilise long before this, and it bounds the 36-config sweep.
DEFAULT_MISS_LIMIT = 20_000


def _fresh_table(name: str, workload, num_buckets: int):
    """One populated table instance (replays mutate policy state)."""
    table = make_table(name, workload.layout, num_buckets=num_buckets)
    get_translation_map(workload, "single").populate(
        table, base_pages_only=True
    )
    return table


def _replay_numa(stream, table, **kwargs) -> NumaReplayResult:
    """NUMA phase 2 through the active engine (batch when it applies).

    The stateful ``migrate`` policy has no exact batch kernel; it raises
    :class:`~repro.mmu.batch_kernels.BatchUnsupportedError` before any
    stats are touched, and the scalar replay takes over.
    """
    if active_engine() == "batch":
        from repro.mmu.batch_kernels import BatchUnsupportedError
        from repro.numa.batch import replay_misses_numa_batch

        try:
            return replay_misses_numa_batch(stream, table, **kwargs)
        except BatchUnsupportedError:
            pass
    return replay_misses_numa(stream, table, **kwargs)


def run(
    workloads: Optional[Sequence[str]] = None,
    trace_length: int = 200_000,
    tables: Sequence[str] = DEFAULT_TABLES,
    topologies: Sequence[str] = DEFAULT_TOPOLOGIES,
    policies: Sequence[str] = DEFAULT_POLICIES,
    access_pattern: str = "block-affine",
    miss_limit: Optional[int] = DEFAULT_MISS_LIMIT,
    num_buckets: int = 4096,
) -> ExperimentResult:
    """Latency-weighted walk cost across machines, tables, and policies."""
    if not policies:
        raise ConfigurationError("need at least one replication policy")
    rows: List[List] = []
    for name in workloads or DEFAULT_WORKLOADS:
        workload = get_workload(name, trace_length)
        stream = get_miss_stream(workload, "single")
        for table_name in tables:
            for topo_name in topologies:
                topology = get_topology(topo_name)
                results: dict = {}
                for policy in policies:
                    if topology.is_single_node() and results:
                        # One node: every policy is the all-local
                        # degenerate case; replay once and reuse.
                        results[policy] = next(iter(results.values()))
                        continue
                    results[policy] = _replay_numa(
                        stream,
                        _fresh_table(table_name, workload, num_buckets),
                        topology=topology,
                        policy=policy,
                        access_pattern=access_pattern,
                        miss_limit=miss_limit,
                    )
                first: NumaReplayResult = next(iter(results.values()))
                row: List = [
                    f"{name}/{table_name}",
                    topology.num_nodes,
                    round(first.lines_per_miss, 3),
                ]
                for policy in DEFAULT_POLICIES:
                    result = results.get(policy)
                    row.append(
                        round(result.cycles_per_miss, 1) if result else None
                    )
                mitosis = results.get("mitosis")
                migrate = results.get("migrate")
                row.append(
                    round(mitosis.numa.local_fraction, 3) if mitosis else None
                )
                row.append(
                    migrate.policy_stats.migrations if migrate else None
                )
                rows.append(row)
    return ExperimentResult(
        experiment=(
            "NUMA page-table placement: latency-weighted walk cost "
            f"({access_pattern} misses, first-touch tables on node 0)"
        ),
        headers=[
            "workload/table", "nodes", "lines/miss",
            "none cyc/miss", "mitosis cyc/miss", "migrate cyc/miss",
            "mitosis local frac", "migrations",
        ],
        rows=rows,
        notes=(
            "lines/miss is the paper's location-blind §6.1 metric and is "
            "invariant across nodes and policies; cycles/miss weighs each "
            "line by the accessor-to-holder latency (90 local, 150 one "
            "hop, 210 two hops per 256 B line).  'none' leaves the table "
            "where it was first touched; 'mitosis' replicates it per node "
            "(reads all-local, write fan-out charged separately); "
            "'migrate' moves hot lines to their dominant accessor."
        ),
    )
