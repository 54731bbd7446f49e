"""The metrics registry: counters, labels, merging, subsystem reporting."""

import json

import pytest

from repro.obs.metrics import (
    HistogramStats,
    MetricsRegistry,
    get_registry,
    reset_registry,
)


@pytest.fixture(autouse=True)
def _fresh_registry():
    reset_registry()
    yield
    reset_registry()


class TestCounters:
    def test_inc_and_read(self):
        registry = MetricsRegistry()
        assert registry.counter("x.events") == 0
        assert registry.inc("x.events") == 1
        assert registry.inc("x.events", 4) == 5
        assert registry.counter("x.events") == 5

    def test_labels_are_independent_series(self):
        registry = MetricsRegistry()
        registry.inc("evictions", reason="schema")
        registry.inc("evictions", 2, reason="shape")
        assert registry.counter("evictions", reason="schema") == 1
        assert registry.counter("evictions", reason="shape") == 2
        assert registry.counter("evictions") == 0  # unlabelled is distinct
        assert registry.values("evictions") == {
            "evictions{reason=schema}": 1,
            "evictions{reason=shape}": 2,
        }

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        registry.inc("m", a="1", b="2")
        registry.inc("m", b="2", a="1")
        assert registry.counter("m", b="2", a="1") == 2

    def test_merge_survives_hostile_label_values(self):
        # The regression the structured-state API exists for: rendered
        # keys like "m{reason=a=b,c}d}" are unparseable, so a merge
        # through snapshot() strings would corrupt or split the series.
        hostile = "a=b,c}d"
        worker = MetricsRegistry()
        worker.inc("cache.evictions", 5, reason=hostile)
        main = MetricsRegistry()
        main.merge_state(worker.state())
        assert main.counter("cache.evictions", reason=hostile) == 5
        # The whole round trip is JSON-safe and lossless.
        state = json.loads(json.dumps(main.state()))
        again = MetricsRegistry()
        again.merge_state(state)
        assert again.state() == main.state()

    def test_merge_state_covers_gauges_and_histograms(self):
        worker = MetricsRegistry()
        worker.set_gauge("ring.fill", 0.75, ring="walks")
        for value in (1.0, 8.0, 8.0):
            worker.observe("walk.cache_lines", value, table="hashed")
        main = MetricsRegistry()
        main.set_gauge("ring.fill", 0.25, ring="walks")
        main.observe("walk.cache_lines", 2.0, table="hashed")
        main.merge_state(worker.state())
        # Gauges: last writer wins (a level, not a flow).
        assert main.gauge("ring.fill", ring="walks") == 0.75
        merged = main.histogram("walk.cache_lines", table="hashed")
        assert merged.count == 4
        assert merged.total == 19.0
        assert merged.minimum == 1.0 and merged.maximum == 8.0
        assert sum(merged.buckets.values()) + merged.zeros == merged.count


class TestGaugesAndHistograms:
    def test_gauge_set_overwrites(self):
        registry = MetricsRegistry()
        registry.set_gauge("ring.fill", 0.25)
        registry.set_gauge("ring.fill", 0.5)
        assert registry.gauge("ring.fill") == 0.5
        assert registry.gauge("never.set") == 0.0

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        for value in (1.0, 3.0, 2.0):
            registry.observe("latency", value)
        h = registry.histogram("latency")
        assert h.count == 3
        assert h.total == 6.0
        assert h.mean == 2.0
        assert h.minimum == 1.0 and h.maximum == 3.0
        assert registry.histogram("empty").count == 0
        assert HistogramStats().as_dict()["min"] == 0.0

    def test_empty_histogram_never_leaks_sentinels(self):
        empty = HistogramStats()
        assert empty.minimum == 0.0
        assert empty.maximum == 0.0
        assert empty.mean == 0.0
        assert empty.percentile(0.99) == 0.0
        doc = empty.as_dict()
        assert doc["min"] == 0.0 and doc["max"] == 0.0
        assert json.loads(json.dumps(doc)) == doc  # no inf/-inf anywhere

    def test_log2_bucket_boundaries(self):
        # Bucket e covers (2^(e-1), 2^e]: exact powers of two close
        # their bucket, values <= 0 land in the zeros counter.
        assert HistogramStats.bucket_of(0) is None
        assert HistogramStats.bucket_of(-3.0) is None
        assert HistogramStats.bucket_of(1.0) == 0
        assert HistogramStats.bucket_of(1.5) == 1
        assert HistogramStats.bucket_of(2.0) == 1
        assert HistogramStats.bucket_of(2.1) == 2
        assert HistogramStats.bucket_of(16.0) == 4
        assert HistogramStats.bucket_of(16.000001) == 5

    def test_bucket_invariant_and_percentiles(self):
        h = HistogramStats()
        for value in (0.0, 1.0, 2.0, 2.0, 3.0, 100.0):
            h.observe(value)
        assert sum(h.buckets.values()) + h.zeros == h.count
        assert h.zeros == 1
        # Percentiles are bucket estimates clamped to [min, max].
        assert h.minimum <= h.p50 <= h.p95 <= h.p99 <= h.maximum
        assert h.p99 == 100.0  # rank 6 of 6 lands in the top bucket
        single = HistogramStats()
        single.observe(7.0)
        assert single.p50 == single.p99 == 7.0  # clamp → exact

    def test_histogram_merge_matches_combined_observations(self):
        left, right, combined = (
            HistogramStats(), HistogramStats(), HistogramStats()
        )
        for value in (1.0, 4.0, 0.0):
            left.observe(value)
            combined.observe(value)
        for value in (2.0, 64.0):
            right.observe(value)
            combined.observe(value)
        left.merge(right)
        assert left.as_dict() == combined.as_dict()
        # Merging a dict dump is equivalent to merging the object.
        from_doc = HistogramStats()
        from_doc.merge(combined.as_dict())
        assert from_doc.as_dict() == combined.as_dict()
        # Merging an empty histogram is a no-op.
        before = left.as_dict()
        left.merge(HistogramStats())
        assert left.as_dict() == before

    def test_int_observations_dump_like_their_merged_copy(self):
        # A worker's histogram reaches the parent through as_dict and
        # from_dict; fed ints, it must still dump the same JSON, or
        # metrics.json would read 1 at --jobs 1 and 1.0 at --jobs N.
        fed = HistogramStats()
        for value in (1, 3, 3, 0):
            fed.observe(value)
        fed.observe_many(2, 4)
        merged = HistogramStats()
        merged.merge(json.loads(json.dumps(fed.as_dict())))
        assert (json.dumps(fed.as_dict(), sort_keys=True)
                == json.dumps(merged.as_dict(), sort_keys=True))
        assert json.dumps(fed.as_dict()["min"]) == "0.0"


class TestRenderAndSnapshot:
    def test_snapshot_is_json_ready(self):
        registry = MetricsRegistry()
        registry.inc("a.b", 2, kind="x")
        registry.set_gauge("g", 1.5)
        registry.observe("h", 0.1)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["counters"] == {"a.b{kind=x}": 2}
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_render_empty_and_populated(self):
        registry = MetricsRegistry()
        assert registry.render() == "(no metrics recorded)"
        registry.inc("cache.hits", 12)
        text = registry.render()
        assert "Counters" in text and "cache.hits" in text and "12" in text

    def test_reset_registry_clears_process_registry(self):
        get_registry().inc("something")
        assert get_registry().counter("something") == 1
        reset_registry()
        assert get_registry().counter("something") == 0


class TestSubsystemReporting:
    def test_shootdown_rounds_land_in_registry(self):
        from repro.mmu.tlb import FullyAssociativeTLB
        from repro.os.shootdown import SMPSystem
        from repro.pagetables.hashed import HashedPageTable

        table = HashedPageTable(num_buckets=16)
        for vpn in range(8):
            table.insert(vpn, vpn + 0x100)
        system = SMPSystem(table, lambda: FullyAssociativeTLB(8), ncpus=3)
        for cpu in range(3):
            system.translate(cpu, 5)
        system.unmap_range(4, 4)
        registry = get_registry()
        assert registry.counter("shootdown.rounds") == 1
        assert registry.counter("shootdown.ipis_sent") == 2
        assert registry.counter("shootdown.entries_invalidated") == 3

    def test_replication_fanout_lands_in_registry(self):
        from repro.numa.replication import ReplicatedPageTable
        from repro.numa.topology import PRESETS
        from repro.pagetables.hashed import HashedPageTable

        replicated = ReplicatedPageTable(
            lambda: HashedPageTable(num_buckets=16), PRESETS["4-node"]
        )
        replicated.insert(1, 0x101)
        replicated.remove(1)
        registry = get_registry()
        assert registry.counter("replication.updates") == 2
        assert registry.counter("replication.replica_writes") == 8
        assert registry.counter("replication.coherence_writes") == 6
