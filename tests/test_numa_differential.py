"""NUMA-off ⇒ zero drift: the single-node machine is the flat simulator.

The subsystem's backbone invariant: with the 1-node topology (or no
topology at all) every NUMA-aware path must reproduce the flat §6.1
numbers *exactly* — same ``cache_lines``, same figure rows, same stream
cache keys — and latency weighting degenerates to ``lines x 90``.
Multi-node machines may reweight walks but never change what they touch.
"""

import pytest

from repro.analysis.metrics import make_table
from repro.cache.stream_cache import stream_cache_key
from repro.experiments import fig11
from repro.experiments.common import (
    get_miss_stream,
    get_translation_map,
    get_workload,
    single_page_tlb,
)
from repro.mmu.simulate import replay_misses
from repro.numa.policy import POLICY_NAMES
from repro.numa.replay import replay_misses_numa
from repro.numa.topology import LOCAL_CYCLES, PRESETS, SINGLE_NODE

TRACE_LENGTH = 20_000
TABLES = ("linear-1lvl", "hashed", "clustered")


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


# ---------------------------------------------------------------------------
# Replay parity
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", TABLES)
def test_single_node_replay_matches_flat_exactly(name, workload, stream):
    flat = replay_misses(stream, fresh_table(name, workload))
    for topology in (None, SINGLE_NODE, "1-node"):
        numa = replay_misses_numa(
            stream, fresh_table(name, workload), topology=topology
        )
        assert numa.cache_lines == flat.cache_lines
        assert numa.faults == flat.faults
        assert numa.misses == flat.misses
        assert numa.numa.cycles == numa.cache_lines * LOCAL_CYCLES
        assert numa.lines_per_miss == flat.lines_per_miss


@pytest.mark.parametrize("name", TABLES)
def test_lines_are_location_blind_on_any_machine(name, workload, stream):
    """Placement reweights walks; it never changes what they touch."""
    flat = replay_misses(stream, fresh_table(name, workload))
    for policy in POLICY_NAMES:
        numa = replay_misses_numa(
            stream, fresh_table(name, workload),
            topology=PRESETS["4-node"], policy=policy,
        )
        assert numa.cache_lines == flat.cache_lines, (name, policy)


def test_single_node_policies_all_degenerate(workload, stream):
    costs = {
        policy: replay_misses_numa(
            stream, fresh_table("hashed", workload),
            topology=SINGLE_NODE, policy=policy,
        ).cycles_per_miss
        for policy in POLICY_NAMES
    }
    assert len(set(costs.values())) == 1


# ---------------------------------------------------------------------------
# Artefact stability: cache keys and figure rows
# ---------------------------------------------------------------------------
def test_stream_cache_key_unaffected_by_numa_activity(workload):
    tmap = get_translation_map(workload, "single")
    tlb = single_page_tlb()
    before = stream_cache_key(workload.trace, tlb, tmap, True)
    replay_misses_numa(
        get_miss_stream(workload, "single"),
        fresh_table("clustered", workload),
        topology=PRESETS["4-node"], policy="mitosis",
    )
    after = stream_cache_key(workload.trace, single_page_tlb(), tmap, True)
    assert after == before


@pytest.mark.slow
def test_fig11a_rows_identical_around_numa_replays(workload, stream):
    first = fig11.run_subfigure(
        "11a", trace_length=TRACE_LENGTH, workloads=("mp3d",)
    )
    for policy in POLICY_NAMES:
        replay_misses_numa(
            stream, fresh_table("hashed", workload),
            topology=PRESETS["8-node"], policy=policy,
        )
    second = fig11.run_subfigure(
        "11a", trace_length=TRACE_LENGTH, workloads=("mp3d",)
    )
    assert first.headers == second.headers
    assert first.rows == second.rows
