"""NUMA batch replay parity: memoized walks vs the scalar byte-walker.

The batch NUMA replay resolves each distinct VPN's walk once and charges
every occurrence by multiplication; both stateless policies make that a
pure reweighting, so every total — the
:class:`~repro.numa.replay.NumaReplayResult`, both per-node stats maps,
the policy's serve counters, and the ``numa.walk_lines`` /
``numa.walk_cycles`` registry histograms — must equal the scalar
replay's exactly.  The stateful ``migrate`` policy is order-dependent
and must be *refused* (before any stats are touched), with the engine
seam falling back to the scalar replay.
"""

import pytest

from repro.analysis.metrics import make_table
from repro.experiments.common import (
    configure_engine,
    engine_replay,
    get_miss_stream,
    get_translation_map,
    get_workload,
)
from repro.mmu.batch_kernels import BatchUnsupportedError
from repro.numa.batch import replay_misses_numa_batch
from repro.numa.replay import replay_misses_numa
from repro.numa.topology import LOCAL_CYCLES, PRESETS, SINGLE_NODE
from repro.obs.metrics import (
    MetricsRegistry,
    get_registry,
    reset_registry,
    use_registry,
)

TRACE_LENGTH = 20_000
TABLES = ("linear-1lvl", "hashed", "clustered")
POLICIES = ("none", "mitosis")


@pytest.fixture(scope="module")
def workload():
    return get_workload("mp3d", TRACE_LENGTH)


@pytest.fixture(scope="module")
def stream(workload):
    return get_miss_stream(workload, "single")


def fresh_table(name, workload):
    table = make_table(name, workload.layout)
    get_translation_map(workload, "single").populate(
        table, base_pages_only=True
    )
    return table


def run_both(name, workload, stream, **kwargs):
    """(scalar result+snapshot, batch result+snapshot) for one config."""
    reset_registry()
    scalar = replay_misses_numa(stream, fresh_table(name, workload), **kwargs)
    scalar_registry = get_registry().snapshot()
    reset_registry()
    batch = replay_misses_numa_batch(
        stream, fresh_table(name, workload), **kwargs
    )
    batch_registry = get_registry().snapshot()
    reset_registry()
    return (scalar, scalar_registry), (batch, batch_registry)


def assert_numa_equal(scalar, batch):
    assert batch.misses == scalar.misses
    assert batch.cache_lines == scalar.cache_lines
    assert batch.faults == scalar.faults
    for field in (
        "walks", "lines", "local_lines", "remote_lines", "cycles",
    ):
        assert getattr(batch.numa, field) == getattr(scalar.numa, field), field
    assert dict(batch.numa.lines_by_node) == dict(scalar.numa.lines_by_node)
    assert dict(batch.numa.walks_by_node) == dict(scalar.numa.walks_by_node)
    assert dict(batch.policy_stats.served_by_node) == dict(
        scalar.policy_stats.served_by_node
    )
    assert batch.policy_stats.migrations == scalar.policy_stats.migrations
    assert (
        batch.policy_stats.coherence_writes
        == scalar.policy_stats.coherence_writes
    )


# ---------------------------------------------------------------------------
# Single node: the degenerate all-local machine
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", TABLES)
def test_single_node_cycles_are_lines_times_local(name, workload, stream):
    (scalar, _), (batch, _) = run_both(
        name, workload, stream, topology=SINGLE_NODE
    )
    assert_numa_equal(scalar, batch)
    assert batch.numa.cycles == batch.cache_lines * LOCAL_CYCLES


# ---------------------------------------------------------------------------
# Multi-node machines, both stateless policies, both access patterns
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("topology", ("4-node", "8-node"))
@pytest.mark.parametrize("policy", POLICIES)
def test_multi_node_parity(topology, policy, workload, stream):
    for name in TABLES:
        (scalar, scalar_reg), (batch, batch_reg) = run_both(
            name, workload, stream,
            topology=PRESETS[topology], policy=policy,
        )
        assert_numa_equal(scalar, batch)
        assert batch_reg == scalar_reg, (name, topology, policy)


@pytest.mark.parametrize("pattern", ("block-affine", "uniform"))
def test_access_pattern_parity(pattern, workload, stream):
    (scalar, scalar_reg), (batch, batch_reg) = run_both(
        "hashed", workload, stream,
        topology=PRESETS["4-node"], policy="mitosis", access_pattern=pattern,
    )
    assert_numa_equal(scalar, batch)
    assert batch_reg == scalar_reg


def test_miss_limit_parity(workload, stream):
    (scalar, _), (batch, _) = run_both(
        "clustered", workload, stream,
        topology=PRESETS["4-node"], miss_limit=1_000,
    )
    assert_numa_equal(scalar, batch)
    assert batch.misses == 1_000


# ---------------------------------------------------------------------------
# The stateful policy is refused, and the experiment falls back
# ---------------------------------------------------------------------------
def test_migrate_policy_is_refused(workload, stream):
    table = fresh_table("hashed", workload)
    registry = MetricsRegistry()
    with use_registry(registry), pytest.raises(BatchUnsupportedError):
        replay_misses_numa_batch(
            stream, table, topology=PRESETS["4-node"], policy="migrate"
        )
    # Refusal happens before any stats are touched, and before any
    # registry series exists.
    assert table.stats.lookups == 0 and table.stats.cache_lines == 0
    assert not [
        name
        for series in registry.state().values()
        for name, _, _ in series
        if name.startswith("numa.")
    ]


def test_experiment_dispatch_falls_back_for_migrate(workload, stream):
    """The engine seam the sweep replays through defers migrate to the
    scalar replay, counting one ``engine.fallback`` per refused replay
    under batch and none under scalar."""
    def replay():
        return engine_replay(
            replay_misses_numa_batch, replay_misses_numa, stream,
            fresh_table("hashed", workload),
            topology=PRESETS["4-node"], policy="migrate", miss_limit=2_000,
        )

    reset_registry()
    scalar = replay()
    assert get_registry().values("engine.fallback") == {}
    configure_engine("batch")
    try:
        batch = replay()
        replay()
    finally:
        configure_engine("scalar")
    assert_numa_equal(scalar, batch)
    assert batch.policy_name == "migrate"
    assert get_registry().values("engine.fallback") == {
        "engine.fallback{reason=MigrateOnThresholdPolicy is stateful,"
        "table=hashed}": 2
    }
