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

The sweep is ordered :func:`cells`, one per workload over every
(table, topology, policy); :func:`measure` turns one into a JSON-safe
record and :func:`merge` turns the records into the table, which
:func:`document` writes as the run's ``BENCH_numa.json``.  The runner
runs each cell as its own task; :func:`run` maps serially.  A cell
populates each table once and replays it under every (topology,
policy): neither replay engine changes the table, which they read
through its memory image or its leaf cells.  Every replay starts from a
fresh policy, so a cell's record depends only on the cell, the stateful
``migrate`` policy included.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.analysis.metrics import make_table
from repro.errors import ConfigurationError
from repro.experiments.common import (
    ExperimentResult,
    engine_replay,
    get_miss_stream,
    get_translation_map,
    get_workload,
)
from repro.numa.batch import replay_misses_numa_batch
from repro.numa.policy import POLICY_NAMES
from repro.numa.replay import replay_misses_numa
from repro.numa.topology import NumaTopology, get_topology

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


def cells(
    workloads: Optional[Sequence[str]] = None,
    tables: Sequence[str] = DEFAULT_TABLES,
    topologies: Sequence = DEFAULT_TOPOLOGIES,
    policies: Sequence[str] = DEFAULT_POLICIES,
    access_pattern: str = "block-affine",
    miss_limit: Optional[int] = DEFAULT_MISS_LIMIT,
    num_buckets: int = 4096,
) -> List[Dict[str, object]]:
    """The sweep's cells in order, one per workload, each over every
    (table, topology, policy).  A topology (preset name, JSON file or
    instance) is carried as its JSON document, so a cell names the
    machine it measures, not where it was read from."""
    if not policies or not set(policies) <= set(POLICY_NAMES):
        raise ConfigurationError(
            "replication policies must be a non-empty subset of "
            f"{POLICY_NAMES}, got {list(policies)}"
        )
    machines = [
        json.loads(get_topology(topology).to_json())
        for topology in topologies
    ]
    return [
        {
            "id": name,
            "workload": name,
            "tables": list(tables),
            "topologies": machines,
            "policies": list(policies),
            "access_pattern": access_pattern,
            "miss_limit": miss_limit,
            "num_buckets": num_buckets,
        }
        for name in workloads or DEFAULT_WORKLOADS
    ]


def measure(cell: Dict[str, object], trace_length: int) -> Dict[str, object]:
    """One cell's JSON-safe record: per (table, topology), the unrounded
    lines/miss, each policy's cycles/miss, the mitosis local fraction
    and the migration count."""
    workload = get_workload(cell["workload"], trace_length)
    stream = get_miss_stream(workload, "single")
    tmap = get_translation_map(workload, "single")
    configs = []
    for table_name in cell["tables"]:
        table = make_table(
            table_name, workload.layout, num_buckets=cell["num_buckets"]
        )
        tmap.populate(table, base_pages_only=True)
        for machine in cell["topologies"]:
            topology = NumaTopology.from_json(machine)
            results: dict = {}
            for policy in cell["policies"]:
                if topology.is_single_node() and results:
                    # One node: every policy is the all-local
                    # degenerate case; replay once and reuse.
                    results[policy] = next(iter(results.values()))
                    continue
                results[policy] = engine_replay(
                    replay_misses_numa_batch, replay_misses_numa, stream,
                    table,
                    topology=topology,
                    policy=policy,
                    access_pattern=cell["access_pattern"],
                    miss_limit=cell["miss_limit"],
                )
            mitosis = results.get("mitosis")
            migrate = results.get("migrate")
            configs.append({
                "table": table_name,
                "nodes": topology.num_nodes,
                "lines_per_miss": next(iter(results.values())).lines_per_miss,
                "cycles_per_miss": {
                    policy: result.cycles_per_miss
                    for policy, result in results.items()
                },
                "mitosis_local_fraction": (
                    mitosis.numa.local_fraction if mitosis else None
                ),
                "migrations": (
                    migrate.policy_stats.migrations if migrate else None
                ),
            })
    return {
        "workload": cell["workload"],
        "access_pattern": cell["access_pattern"],
        "configs": configs,
    }


def _row(record: Dict[str, object], config: Dict[str, object]) -> List:
    cycles = config["cycles_per_miss"]
    local = config["mitosis_local_fraction"]
    return [
        f"{record['workload']}/{config['table']}",
        config["nodes"],
        round(config["lines_per_miss"], 3),
        *(
            round(cycles[policy], 1) if policy in cycles else None
            for policy in DEFAULT_POLICIES
        ),
        round(local, 3) if local is not None else None,
        config["migrations"],
    ]


def merge(records: Sequence[Dict[str, object]]) -> ExperimentResult:
    """The sweep's records, in sweep order, as an :class:`ExperimentResult`."""
    return ExperimentResult(
        experiment=(
            "NUMA page-table placement: latency-weighted walk cost "
            f"({records[0]['access_pattern']} misses, first-touch tables "
            "on node 0)"
        ),
        headers=[
            "workload/table", "nodes", "lines/miss",
            "none cyc/miss", "mitosis cyc/miss", "migrate cyc/miss",
            "mitosis local frac", "migrations",
        ],
        rows=[_row(record, config) for record in records
              for config in record["configs"]],
        notes=(
            "lines/miss is the paper's location-blind §6.1 metric and is "
            "invariant across nodes and policies; cycles/miss weighs each "
            "line by the accessor-to-holder latency (90 local, 150 one "
            "hop, 210 two hops per 256 B line).  'none' leaves the table "
            "where it was first touched; 'mitosis' replicates it per node "
            "(reads all-local, write fan-out charged separately); "
            "'migrate' moves hot lines to their dominant accessor."
        ),
        records=list(records),
    )


def document(
    result: ExperimentResult, trace_length: int, cells: Sequence[Dict]
) -> Dict[str, object]:
    """The sweep's bench document (``BENCH_numa.json``): one config per
    (workload/table, nodes) row, keyed by the result's headers."""
    return {
        "benchmark": "numa",
        "trace_length": trace_length,
        "workloads": [cell["workload"] for cell in cells],
        "topologies": list(dict.fromkeys(
            machine["name"] for cell in cells for machine in cell["topologies"]
        )),
        "configs": [dict(zip(result.headers, row)) for row in result.rows],
    }


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
    sweep = cells(
        workloads, tables, topologies, policies, access_pattern,
        miss_limit, num_buckets,
    )
    return merge([measure(cell, trace_length) for cell in sweep])
