"""The deterministic fault-injection harness (`repro.resilience.faults`)."""

import errno

import pytest

from repro.errors import ConfigurationError, PageFaultError
from repro.resilience.faults import (
    BEHAVIOUR_ACTIONS,
    EXCEPTION_ACTIONS,
    PROCESS_ACTIONS,
    SITE_ACTIONS,
    SITES,
    FaultPlan,
    FaultRule,
    fault_point,
    inject,
)


class TestRuleValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultRule("runner.bogus", "raise-eio")

    def test_action_must_fit_the_site(self):
        with pytest.raises(ConfigurationError):
            FaultRule("cache.store_stream", "corrupt")
        with pytest.raises(ConfigurationError):
            FaultRule("numa.replica_divergence", "crash")

    def test_window_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            FaultRule("runner.experiment", "raise-eio", at=0)
        with pytest.raises(ConfigurationError):
            FaultRule("runner.experiment", "raise-eio", times=0)

    def test_every_site_has_actions(self):
        assert set(SITE_ACTIONS) == set(SITES)
        known = set(EXCEPTION_ACTIONS + PROCESS_ACTIONS + BEHAVIOUR_ACTIONS)
        for actions in SITE_ACTIONS.values():
            assert actions and set(actions) <= known


class TestPlanSerialisation:
    def test_json_round_trip(self):
        plan = FaultPlan(
            rules=(
                FaultRule("cache.load_stream", "raise-eio", at=2, times=3),
                FaultRule(
                    "runner.experiment", "crash",
                    match="table1", max_attempt=2,
                ),
            ),
            seed=42,
            hang_seconds=1.5,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_invalid_json_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_json('{"rules": [{"site": "nope"}]}')

    def test_random_plans_are_deterministic_per_seed(self):
        assert FaultPlan.random(7) == FaultPlan.random(7)
        assert FaultPlan.random(7) != FaultPlan.random(8)

    def test_random_respects_exclusions(self):
        for seed in range(100):
            plan = FaultPlan.random(
                seed, exclude_actions=PROCESS_ACTIONS
            )
            assert all(
                rule.action not in PROCESS_ACTIONS for rule in plan.rules
            )

    def test_random_rules_open_at_an_attempts_first_visit(self):
        for seed in range(100):
            assert all(rule.at == 1 for rule in FaultPlan.random(seed).rules)

    def test_random_with_nothing_left_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.random(
                0,
                sites=("numa.replica_divergence",),
                exclude_actions=("skip-replica",),
            )


class TestInjector:
    def test_inactive_fault_point_is_a_no_op(self):
        assert fault_point("runner.experiment") is None
        with inject(None) as injector:
            assert injector is None
            assert fault_point("runner.experiment") is None

    def test_fires_only_inside_the_visit_window(self):
        plan = FaultPlan(
            (FaultRule("cache.load_stream", "raise-eio", at=2, times=2),)
        )
        # Each attempt counts its own visits from the first.
        for attempt in (1, 2):
            with inject(plan, "k", attempt):
                assert fault_point("cache.load_stream") is None
                for _ in range(2):
                    with pytest.raises(OSError) as excinfo:
                        fault_point("cache.load_stream")
                    assert excinfo.value.errno == errno.EIO
                assert fault_point("cache.load_stream") is None

    def test_match_restricts_by_key_substring(self):
        plan = FaultPlan((
            FaultRule("runner.experiment", "raise-enospc", match="fig11"),
            FaultRule("cache.load_stream", "raise-eio", match="fig11"),
        ))
        with inject(plan, "table1"):
            assert fault_point("runner.experiment") is None
            assert fault_point("cache.load_stream") is None
        with inject(plan, "fig11d"):
            with pytest.raises(OSError) as excinfo:
                fault_point("runner.experiment")
            assert excinfo.value.errno == errno.ENOSPC
            with pytest.raises(OSError) as excinfo:
                fault_point("cache.load_stream")
            assert excinfo.value.errno == errno.EIO

    def test_max_attempt_lets_retries_outlive_the_fault(self):
        for site in ("runner.experiment", "cache.load_stream"):
            plan = FaultPlan(
                (FaultRule(site, "raise-eio", times=99, max_attempt=2),)
            )
            for attempt in (1, 2):
                with inject(plan, "k", attempt):
                    with pytest.raises(OSError):
                        fault_point(site)
            with inject(plan, "k", 3):
                assert fault_point(site) is None

    def test_behaviour_actions_are_returned_not_raised(self):
        plan = FaultPlan(
            (FaultRule("numa.replica_divergence", "skip-replica"),)
        )
        with inject(plan):
            assert (
                fault_point("numa.replica_divergence") == "skip-replica"
            )

    def test_inject_restores_the_previous_injector(self):
        outer = FaultPlan(
            (FaultRule("cache.load_stream", "raise-eio", times=99),)
        )
        with inject(outer):
            # An inner scope arms exactly its own plan, or nothing.
            for inner in (None, FaultPlan((), seed=5)):
                with inject(inner):
                    assert fault_point("cache.load_stream") is None
            with pytest.raises(OSError):
                fault_point("cache.load_stream")
        assert fault_point("cache.load_stream") is None

    def test_counts_into_the_metrics_registry(self):
        from repro.obs.metrics import MetricsRegistry, use_registry

        plan = FaultPlan((FaultRule("runner.experiment", "raise-eio"),))
        with inject(plan), use_registry(MetricsRegistry()) as registry:
            with pytest.raises(OSError):
                fault_point("runner.experiment")
        assert registry.counter(
            "faults.injected",
            site="runner.experiment", action="raise-eio",
        ) == 1


class TestCorruption:
    def test_corrupt_action_flips_one_byte(self, tmp_path):
        target = tmp_path / "artefact.bin"
        original = bytes(range(64))
        target.write_bytes(original)
        plan = FaultPlan(
            (FaultRule("cache.artifact_stored", "corrupt"),), seed=10
        )
        with inject(plan):
            fault_point("cache.artifact_stored", path=target)
        damaged = target.read_bytes()
        assert len(damaged) == len(original)
        diffs = [i for i in range(len(original)) if damaged[i] != original[i]]
        assert diffs == [10]  # seed picks the offset deterministically

    def test_corrupted_cache_artefact_is_evicted_not_believed(self, tmp_path):
        """End to end: bit rot after store → detected, evicted, recomputed."""
        from repro.cache.stream_cache import StreamCache, stream_cache_key
        from repro.mmu.simulate import collect_misses
        from repro.obs.metrics import MetricsRegistry, use_registry
        from repro.mmu.tlb import FullyAssociativeTLB
        from repro.os.translation_map import TranslationMap
        from repro.workloads.suite import load_workload

        workload = load_workload("mp3d", trace_length=2_000)
        tmap = TranslationMap.from_space(workload.union_space())
        stream = collect_misses(
            workload.trace, FullyAssociativeTLB(64), tmap
        )
        key = stream_cache_key(workload.trace, FullyAssociativeTLB(64), tmap)
        cache = StreamCache(tmp_path / "cache")
        plan = FaultPlan(
            (FaultRule("cache.artifact_stored", "corrupt"),), seed=1000
        )
        with inject(plan):
            cache.put(key, stream)  # artefact corrupted as it lands
        with use_registry(MetricsRegistry()) as registry:
            assert cache.get(key) is None  # detected and evicted, not trusted
        assert registry.counter("stream_cache.errors") == 1
        cache.put(key, stream)  # no plan armed: clean store
        recovered = cache.get(key)
        assert recovered is not None
        assert recovered.misses == stream.misses


class TestReplicaDivergence:
    def test_skip_replica_creates_divergence_coherent_catches(self):
        from repro.numa.replication import ReplicatedPageTable
        from repro.numa.topology import get_topology
        from repro.pagetables.hashed import HashedPageTable

        table = ReplicatedPageTable(
            lambda: HashedPageTable(), get_topology("2-node")
        )
        table.insert(0x10, 0x90)
        assert table.coherent(0x10)
        plan = FaultPlan(
            (FaultRule("numa.replica_divergence", "skip-replica"),)
        )
        with inject(plan):
            table.insert(0x20, 0x91)  # node 0's update is dropped
        assert not table.coherent(0x20)  # divergence is *detected*
        assert table.coherent(0x10)
        # replica 1 has the mapping, replica 0 faults
        assert table.replica(1).lookup(0x20).ppn == 0x91
        with pytest.raises(PageFaultError):
            table.replica(0).lookup(0x20)

    def test_fan_out_still_charged_for_the_lost_write(self):
        from repro.numa.replication import ReplicatedPageTable
        from repro.numa.topology import get_topology
        from repro.pagetables.hashed import HashedPageTable

        table = ReplicatedPageTable(
            lambda: HashedPageTable(), get_topology("2-node")
        )
        plan = FaultPlan(
            (FaultRule("numa.replica_divergence", "skip-replica"),)
        )
        with inject(plan):
            table.insert(0x20, 0x91)
        assert table.stats.updates == 1
        assert table.stats.replica_writes == 2  # issued, then lost


class TestRingOverflow:
    def test_overflow_action_forces_a_ring_drop(self):
        from repro.obs.trace import WalkTracer

        tracer = WalkTracer(capacity=1_000)
        plan = FaultPlan((FaultRule("trace.ring_overflow", "overflow", at=2),))
        with inject(plan):
            for seq in range(3):
                tracer.record(
                    "hashed", "walk", seq, "pte", 1, 1, False, 0
                )
        assert tracer.recorded == 3
        assert tracer.dropped == 1  # forced despite spare capacity
        assert len(tracer) == 2
        # totals live outside the ring: they still cover all 3 events
        assert tracer.total_lines == 3
        assert tracer.events()[0].vpn == 1  # the oldest (vpn 0) was dropped
