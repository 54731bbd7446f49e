"""Tenancy subsystem: units, the 1-tenant differential, determinism.

The two load-bearing guarantees:

- **Differential** — a 1-tenant, no-churn tenancy run is exactly a
  single-process ``replay()`` of the same miss stream: identical replay
  sums, identical table walk stats, identical attached
  registry/profile aggregates.  The scheduler machinery (slot slicing,
  TLB seeding, arena bookkeeping) must add zero walk cost.
- **Determinism** — ``repro experiment tenancy --run-dir DIR`` writes
  the same ``BENCH_tenancy.json`` for the same seed at any ``--jobs``,
  so the CI artifact can be diffed across runs.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.metrics import make_table
from repro.cli import main as cli_main
from repro.experiments import tenancy
from repro.experiments.common import configure_engine, replay
from repro.obs.metrics import get_registry
from repro.obs.profile import WalkProfile
from repro.obs.trace import WalkTracer, install_tracer, uninstall_tracer
from repro.os.physmem import FrameAllocator
from repro.tenancy import ChurnSchedule, SharedArena, Tenant
from repro.tenancy.tenant import (
    build_tenant_streams,
    slice_stream,
    subset_stream,
)


# ---------------------------------------------------------------------------
# Tenants
# ---------------------------------------------------------------------------
class TestTenant:
    def test_footprint_is_deterministic(self):
        a = Tenant(7, seed=3, footprint=32)
        b = Tenant(7, seed=3, footprint=32)
        assert np.array_equal(a.vpns, b.vpns)
        assert a.asid == b.asid == 8

    def test_regions_are_disjoint(self):
        tenants = [Tenant(tid, seed=1, footprint=64) for tid in range(20)]
        seen = set()
        for tenant in tenants:
            pages = set(tenant.vpns.tolist())
            assert len(pages) == 64
            assert not (pages & seen)
            seen |= pages

    def test_streams_draw_from_own_footprint(self):
        tenants = [Tenant(tid, seed=5, footprint=16) for tid in range(3)]
        streams = build_tenant_streams(tenants, 200, seed=5)
        for tenant in tenants:
            stream = streams[tenant.tenant_id]
            assert stream.misses == 200
            assert set(stream.vpns.tolist()) <= set(tenant.vpns.tolist())

    def test_streams_are_deterministic(self):
        tenants = [Tenant(tid, seed=9, footprint=16) for tid in range(2)]
        first = build_tenant_streams(tenants, 100, seed=9)
        second = build_tenant_streams(tenants, 100, seed=9)
        for tid in (0, 1):
            assert np.array_equal(first[tid].vpns, second[tid].vpns)

    def test_sub_streams_share_the_bundle(self):
        tenants = [Tenant(tid, seed=4, footprint=16) for tid in range(3)]
        streams = build_tenant_streams(tenants, 100, seed=4)
        bundle = streams[0].vpns.base
        assert bundle is not None and bundle.shape == (300,)
        for tid in (1, 2):
            assert streams[tid].vpns.base is bundle
        window = slice_stream(streams[1], 10, 40, name="window")
        assert np.shares_memory(window.vpns, bundle)
        assert np.array_equal(window.vpns, bundle[110:140])
        # A mask selection copies its VPNs (numpy's rule for boolean
        # indexing), but no sub-stream allocates its all-miss block mask.
        mask = streams[2].vpns == streams[2].vpns[0]
        hot = subset_stream(streams[2], mask, "hot")
        assert np.array_equal(hot.vpns, streams[2].vpns[mask])
        for stream in (streams[0], window, hot):
            assert stream.block_miss.strides == (0,)
            assert stream.block_miss.all()
            assert stream.misses == stream.tlb_block_misses == len(stream.vpns)


# ---------------------------------------------------------------------------
# Churn schedules
# ---------------------------------------------------------------------------
class TestChurnSchedule:
    def test_static_schedule_never_churns(self):
        schedule = ChurnSchedule(10, 4, churn_fraction=0.0, seed=1)
        assert schedule.arrivals[0] == tuple(range(10))
        assert all(not d for d in schedule.departures)
        assert all(not a for a in schedule.arrivals[1:])
        assert schedule.total_tenants == 10

    def test_population_is_constant_and_ids_fresh(self):
        schedule = ChurnSchedule(10, 6, churn_fraction=0.2, seed=3)
        active = set()
        ever = set()
        for slot in range(6):
            departing = set(schedule.departures[slot])
            assert departing <= active
            active -= departing
            arriving = set(schedule.arrivals[slot])
            assert not (arriving & ever), "tenant ids must never recycle"
            active |= arriving
            ever |= arriving
            assert len(active) == 10
        assert schedule.total_tenants == 10 + 5 * 2

    def test_same_seed_same_schedule(self):
        a = ChurnSchedule(30, 8, churn_fraction=0.1, seed=7)
        b = ChurnSchedule(30, 8, churn_fraction=0.1, seed=7)
        assert a.departures == b.departures
        assert a.arrivals == b.arrivals

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ChurnSchedule(0, 4)
        with pytest.raises(ValueError):
            ChurnSchedule(4, 0)
        with pytest.raises(ValueError):
            ChurnSchedule(4, 4, churn_fraction=1.0)


# ---------------------------------------------------------------------------
# The shared arena
# ---------------------------------------------------------------------------
def _arena(frames: int, watermark: float = 0.9):
    table = make_table("hashed", num_buckets=256)
    allocator = FrameAllocator(frames)
    return SharedArena(table, allocator, watermark=watermark), table, allocator


class TestSharedArena:
    def test_admit_and_depart_accounting(self):
        arena, table, allocator = _arena(256)
        a, b = Tenant(0, seed=2, footprint=16), Tenant(1, seed=2, footprint=16)
        assert arena.admit(a) == 16
        assert arena.admit(b) == 16
        assert arena.resident_pages(0) == 16
        assert allocator.allocated_frames() == 32
        assert arena.stats.pte_inserts == 32
        assert arena.stats.bytes_created > 0
        assert arena.depart(0) == 16
        assert arena.resident_pages(0) == 0
        assert allocator.allocated_frames() == 16
        assert arena.stats.pte_removes == 16
        with pytest.raises(ValueError):
            arena.depart(0)
        with pytest.raises(ValueError):
            arena.admit(b)

    def test_pressure_reclaims_largest_victim_and_refaults(self):
        # 3 x 16 pages into 40 frames: the third admission crosses the
        # 0.8 watermark and must reclaim from an earlier tenant.
        arena, table, allocator = _arena(40, watermark=0.8)
        evictions = []
        arena.on_evict = lambda tid, vpns: evictions.append((tid, len(vpns)))
        tenants = [Tenant(tid, seed=4, footprint=16) for tid in range(3)]
        for tenant in tenants:
            arena.admit(tenant)
        assert arena.stats.reclaims > 0
        assert evictions and all(tid != 2 for tid, _ in evictions), (
            "the tenant being admitted is protected from its own reclaim"
        )
        victim = evictions[0][0]
        parked = arena.evicted_for(victim)
        assert parked and parked == set(
            sorted(Tenant(victim, seed=4, footprint=16).vpns.tolist())[-len(parked):]
        ), "reclaim takes the upper-address half of the victim"
        refaulted = arena.refault(victim, list(parked)[:3])
        assert refaulted == len(set(list(parked)[:3]))
        assert arena.stats.refaulted_ptes == refaulted

    def test_reclaim_on_empty_arena_is_a_noop(self):
        arena, _, _ = _arena(8)
        assert arena.reclaim() == 0


# ---------------------------------------------------------------------------
# The 1-tenant differential
# ---------------------------------------------------------------------------
def _traced(fn):
    """Run ``fn`` under a fresh tracer; return its value, tracer, profile."""
    profile = WalkProfile()
    tracer = WalkTracer(capacity=100_000, profile=profile)
    install_tracer(tracer)
    try:
        value = fn()
    finally:
        uninstall_tracer(tracer)
    return value, tracer, profile


class TestOneTenantDifferential:
    TRACE_LENGTH = 4_000

    def test_equals_single_process_replay(self):
        pop_before = get_registry().histogram_handle(
            "tenancy.walk_cycles", table="hashed", tenants=1, churn="static"
        ).count
        (result, scheduler), tenancy_tracer, tenancy_profile = _traced(
            lambda: tenancy.run_config(
                "hashed", 1, 0.0, trace_length=self.TRACE_LENGTH
            )
        )
        # No churn, slack headroom: the lifecycle machinery must be idle.
        assert result.faults == 0
        assert result.refault_misses == 0
        assert result.reclaims == 0
        assert result.arrivals == 1 and result.departures == 0

        # Reference: the identical stream replayed in one piece against
        # an identically built and populated table.
        tenant = scheduler.tenants[0]
        stream = scheduler.streams[0]
        assert stream.misses == result.misses
        table = make_table(
            "hashed",
            num_buckets=tenancy.arena_buckets(tenancy.FOOTPRINT),
        )
        allocator = FrameAllocator(scheduler.arena.allocator.total_frames)
        frames = {
            vpn: allocator.allocate(vpn) for vpn in tenant.vpns.tolist()
        }
        table.insert_many(sorted(frames.items()))
        (replayed, _), ref_tracer, ref_profile = _traced(
            lambda: (replay(stream, table), None)
        )

        # Replay sums.
        assert replayed.misses == result.misses
        assert replayed.cache_lines == result.cache_lines
        assert replayed.probes == result.probes
        assert replayed.faults == result.faults

        # Table walk stats, field by field.
        assert scheduler.table.stats == table.stats

        # Tracer aggregates and the attached walk profile.
        assert tenancy_tracer.replay_lines == ref_tracer.replay_lines
        assert tenancy_tracer.total_probes == ref_tracer.total_probes
        assert tenancy_tracer.faults == ref_tracer.faults
        assert tenancy_profile.as_dict() == ref_profile.as_dict()

        # The process-wide registry saw every miss exactly once.
        pop_after = get_registry().histogram_handle(
            "tenancy.walk_cycles", table="hashed", tenants=1, churn="static"
        ).count
        assert pop_after - pop_before == result.misses
        assert result.population.count == result.misses


# ---------------------------------------------------------------------------
# Engine parity and sweep determinism
# ---------------------------------------------------------------------------
#: A small tenancy sweep under the bench's engine.
SMALL_SWEEP = ["experiment", "tenancy", "--trace-length", "3000",
               "--engine", "batch"]


class TestDeterminism:
    def test_scalar_and_batch_rows_match(self):
        numbers = {}
        for engine in ("scalar", "batch"):
            configure_engine(engine)
            try:
                result, _ = tenancy.run_config(
                    "clustered", 10, 0.1, trace_length=2_000
                )
            finally:
                configure_engine("scalar")
            population = result.population
            numbers[engine] = (
                [population.p50, population.p95, population.p99,
                 result.worst_tenant_p99, result.mean_cycles],
                {name: value for name, value in vars(result).items()
                 if isinstance(value, int)},
            )
        assert numbers["scalar"] == numbers["batch"]

    def test_run_is_repeatable(self):
        kwargs = dict(
            trace_length=2_000, tenants=(8,), tables=("hashed",),
            churn_modes=(0.1,),
        )
        assert tenancy.run(**kwargs).rows == tenancy.run(**kwargs).rows

    def test_bench_document_is_jobs_invariant(self, tmp_path):
        documents = {}
        for jobs in (1, 4):
            run_dir = tmp_path / f"jobs{jobs}"
            assert cli_main([*SMALL_SWEEP, "--tenants", "20", "--jobs",
                             str(jobs), "--run-dir", str(run_dir)]) == 0
            documents[jobs] = (run_dir / "BENCH_tenancy.json").read_bytes()
        assert documents[1] == documents[4]
        assert len(json.loads(documents[1])["rows"]) == len(
            tenancy.DEFAULT_TABLES
        ) * len(tenancy.DEFAULT_CHURN)

    def test_bench_resume_reuses_journal(self, tmp_path):
        run_dir = tmp_path / "bench-run"
        sweep = [*SMALL_SWEEP, "--tenants", "6"]
        assert cli_main([*sweep, "--run-dir", str(run_dir)]) == 0
        fresh = (run_dir / "BENCH_tenancy.json").read_bytes()
        journal = (run_dir / "journal.jsonl").read_text()
        assert cli_main([*sweep, "--resume", str(run_dir)]) == 0
        assert (run_dir / "journal.jsonl").read_text() == journal
        assert (run_dir / "BENCH_tenancy.json").read_bytes() == fresh
