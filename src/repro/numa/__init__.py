"""NUMA memory-topology modelling for page-table walks.

The paper's access-time metric counts cache lines under a flat-memory
assumption: every line costs the same.  On multi-socket machines that
assumption breaks — a page-table walk that misses to a *remote* socket's
DRAM costs several times a local one, which is the observation behind
Mitosis (ASPLOS '20, transparently self-replicating page tables) and
numaPTE (migrating page-table pages toward their accessors).

This package re-asks the paper's central question — which page-table
organisation services a TLB miss cheapest? — under that modern condition:

- :mod:`repro.numa.topology` — the machine model: nodes, per-node frame
  capacity, and a cycles-per-line access-latency matrix, with 1/2/4/8
  socket presets and JSON-defined custom topologies.
- :mod:`repro.numa.placement` — where page-table cache lines live:
  first-touch (everything on the allocating node, the Linux default the
  Mitosis paper starts from) or interleaved.
- :mod:`repro.numa.policy` — what the OS does about remote walks:
  ``none``, ``mitosis`` (full per-node replicas; reads always local,
  writes fan out), or ``migrate`` (numaPTE-style migrate-on-threshold).
- :mod:`repro.numa.costing` — per-node access counts and the
  latency-weighted ``cycles_per_miss`` metric: the one NUMA cost model.
- :mod:`repro.numa.replay` — phase-2 replay over byte-exact memory
  images, attributing every line read to the node that holds it
  (:mod:`repro.numa.batch` is its exact batch twin; both resolve their
  machine, policy and series through one
  :func:`~repro.numa.replay.setup_replay`).
- :mod:`repro.numa.replication` — :class:`ReplicatedPageTable` (the
  object-model mitosis substrate) and :class:`NumaSMPSystem`, which fans
  PTE updates through the TLB-shootdown model so stale replicas die.

With the default single-node topology every path degenerates to the
paper's flat model: ``cache_lines`` stays byte-identical, and ``cycles``
is simply ``lines x local_latency``.
"""

from repro.numa.costing import NumaWalkStats, WalkCoster
from repro.numa.placement import (
    FirstTouchPlacement,
    InterleavedPlacement,
    TablePlacement,
)
from repro.numa.policy import (
    MigrateOnThresholdPolicy,
    MitosisPolicy,
    NoReplicationPolicy,
    ReplicationPolicy,
    make_policy,
)
from repro.numa.replay import NumaReplayResult, replay_misses_numa
from repro.numa.replication import NumaSMPSystem, ReplicatedPageTable
from repro.numa.topology import (
    PRESETS,
    SINGLE_NODE,
    NumaTopology,
    get_topology,
)

__all__ = [
    "FirstTouchPlacement",
    "InterleavedPlacement",
    "MigrateOnThresholdPolicy",
    "MitosisPolicy",
    "NoReplicationPolicy",
    "NumaReplayResult",
    "NumaSMPSystem",
    "NumaTopology",
    "NumaWalkStats",
    "PRESETS",
    "ReplicatedPageTable",
    "ReplicationPolicy",
    "SINGLE_NODE",
    "TablePlacement",
    "WalkCoster",
    "get_topology",
    "make_policy",
    "replay_misses_numa",
]
