"""The persistent miss-stream cache: round trips, corruption, invalidation."""

import errno
import json
import zipfile
from collections import Counter

import numpy as np
import pytest

from repro.cache import stream_cache as sc
from repro.cache.stream_cache import (
    SCHEMA_VERSION,
    CacheStats,
    StreamCache,
    StreamCacheError,
    load_stream,
    save_stream,
    stream_cache_key,
)
from repro.mmu.simulate import MissStream, collect_misses
from repro.mmu.subblock_tlb import CompleteSubblockTLB
from repro.mmu.tlb import FullyAssociativeTLB, SetAssociativeTLB
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.os.translation_map import TranslationMap
from repro.pagetables.pte import PTEKind
from repro.workloads.suite import load_workload


def synthetic_stream(misses: int = 32) -> MissStream:
    """A hand-built stream exercising every serialised field."""
    rng = np.random.default_rng(7)
    return MissStream(
        trace_name="synthetic",
        tlb_description="fa-tlb (64 entries)",
        vpns=rng.integers(0, 1 << 40, size=misses, dtype=np.int64),
        block_miss=rng.integers(0, 2, size=misses).astype(bool),
        accesses=10 * misses,
        misses=misses,
        tlb_block_misses=misses - 5,
        tlb_subblock_misses=5,
        misses_by_kind=Counter(
            {PTEKind.BASE: misses - 7, PTEKind.SUPERPAGE: 4,
             PTEKind.PARTIAL_SUBBLOCK: 3}
        ),
    )


def assert_streams_equal(a: MissStream, b: MissStream) -> None:
    assert np.array_equal(a.vpns, b.vpns)
    assert a.vpns.dtype == b.vpns.dtype
    assert np.array_equal(a.block_miss, b.block_miss)
    assert a.trace_name == b.trace_name
    assert a.tlb_description == b.tlb_description
    assert a.accesses == b.accesses
    assert a.misses == b.misses
    assert a.tlb_block_misses == b.tlb_block_misses
    assert a.tlb_subblock_misses == b.tlb_subblock_misses
    assert a.misses_by_kind == b.misses_by_kind
    assert all(
        isinstance(kind, PTEKind) for kind in b.misses_by_kind
    )


class TestRoundTrip:
    def test_save_load_preserves_every_field(self, tmp_path):
        stream = synthetic_stream()
        path = save_stream(stream, tmp_path / "s.npz")
        assert_streams_equal(stream, load_stream(path))

    def test_real_collect_misses_round_trip(self, tmp_path):
        workload = load_workload("mp3d", trace_length=4_000)
        tmap = TranslationMap.from_space(workload.union_space())
        stream = collect_misses(workload.trace, FullyAssociativeTLB(32), tmap)
        path = save_stream(stream, tmp_path / "real.npz")
        assert_streams_equal(stream, load_stream(path))

    def test_empty_stream_round_trip(self, tmp_path):
        stream = MissStream(
            trace_name="empty", tlb_description="fa",
            vpns=np.empty(0, dtype=np.int64),
            block_miss=np.empty(0, dtype=bool),
            accesses=0, misses=0, tlb_block_misses=0, tlb_subblock_misses=0,
        )
        path = save_stream(stream, tmp_path / "empty.npz")
        loaded = load_stream(path)
        assert loaded.misses == 0 and len(loaded.vpns) == 0
        assert loaded.miss_ratio == 0.0

    def test_cache_get_put(self, tmp_path):
        cache = StreamCache(tmp_path)
        stream = synthetic_stream()
        with use_registry(MetricsRegistry()) as registry:
            assert cache.get("ab" * 32) is None
            cache.put("ab" * 32, stream)
            assert_streams_equal(stream, cache.get("ab" * 32))
        assert CacheStats.of(registry) == CacheStats(
            hits=1, misses=1, stores=1, errors=0
        )
        assert cache.path_for("ab" * 32).exists()


class TestCorruption:
    def _stored(self, tmp_path):
        cache = StreamCache(tmp_path)
        key = "cd" * 32
        cache.put(key, synthetic_stream())
        return cache, key, cache.path_for(key)

    def test_truncated_file_falls_back_to_miss(self, tmp_path):
        cache, key, path = self._stored(tmp_path)
        path.write_bytes(path.read_bytes()[:40])
        with use_registry(MetricsRegistry()) as registry:
            assert cache.get(key) is None
        assert registry.counter("stream_cache.errors") == 1
        assert not path.exists()  # damaged artefact evicted

    def test_garbage_file_falls_back_to_miss(self, tmp_path):
        cache, key, path = self._stored(tmp_path)
        path.write_bytes(b"\x00" * 128)
        with use_registry(MetricsRegistry()) as registry:
            assert cache.get(key) is None
        assert registry.counter("stream_cache.errors") == 1

    def test_missing_array_is_rejected(self, tmp_path):
        path = tmp_path / "partial.npz"
        np.savez(path, vpns=np.arange(4, dtype=np.int64))
        with pytest.raises(StreamCacheError, match="lacks array"):
            load_stream(path)

    def test_shape_mismatch_is_rejected(self, tmp_path):
        stream = synthetic_stream()
        stream.block_miss = stream.block_miss[:-3]
        path = save_stream(stream, tmp_path / "bad.npz")
        with pytest.raises(StreamCacheError, match="shape mismatch"):
            load_stream(path)

    def test_miss_count_mismatch_is_rejected(self, tmp_path):
        stream = synthetic_stream()
        stream.misses += 1
        path = save_stream(stream, tmp_path / "bad.npz")
        with pytest.raises(StreamCacheError, match="misses"):
            load_stream(path)

    def test_stale_schema_is_invalidated(self, tmp_path, monkeypatch):
        stream = synthetic_stream()
        monkeypatch.setattr(sc, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
        path = save_stream(stream, tmp_path / "future.npz")
        monkeypatch.undo()
        with pytest.raises(StreamCacheError, match="schema"):
            load_stream(path)
        # Through the cache: a miss, not a crash; the artefact is evicted.
        cache = StreamCache(tmp_path)
        key = "ef" * 32
        monkeypatch.setattr(sc, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
        cache.put(key, stream)
        monkeypatch.undo()
        with use_registry(MetricsRegistry()) as registry:
            assert cache.get(key) is None
        assert registry.counter("stream_cache.errors") == 1
        assert not cache.path_for(key).exists()

    def test_artefact_is_a_real_npz(self, tmp_path):
        path = save_stream(synthetic_stream(), tmp_path / "s.npz")
        assert zipfile.is_zipfile(path)
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["meta"].tobytes()).decode())
        assert meta["schema"] == SCHEMA_VERSION


class TestEnvironmentErrorsPropagate:
    """Regression: ``load_stream`` used to catch bare ``Exception``, so a
    permissions problem, a full disk, or memory exhaustion read as a cache
    miss and triggered silent recomputation forever."""

    def _stored(self, tmp_path):
        cache = StreamCache(tmp_path)
        key = "ee" * 32
        cache.put(key, synthetic_stream())
        return cache, key, cache.path_for(key)

    @pytest.mark.parametrize(
        "raised, expected",
        [
            (PermissionError(errno.EACCES, "denied"), PermissionError),
            (OSError(errno.ENOSPC, "no space"), OSError),
            (OSError(errno.EIO, "bad sector"), OSError),
            (MemoryError("oom"), MemoryError),
        ],
    )
    def test_load_stream_propagates(self, tmp_path, monkeypatch,
                                    raised, expected):
        cache, key, path = self._stored(tmp_path)

        def exploding_load(*args, **kwargs):
            raise raised

        monkeypatch.setattr(sc.np, "load", exploding_load)
        with pytest.raises(expected):
            load_stream(path)
        # Through the cache too: no silent miss, artefact left in place.
        with pytest.raises(expected):
            cache.get(key)
        assert path.exists()

    def test_plain_oserror_from_npload_is_still_corruption(self, tmp_path):
        # np.load raises errno-less OSError for non-archive bytes; that is
        # a damaged artefact, not an environment problem.
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"not an archive at all")
        with pytest.raises(StreamCacheError):
            load_stream(path)

    def test_corruption_reasons_are_stable_slugs(self, tmp_path):
        cache, key, path = self._stored(tmp_path)
        path.write_bytes(b"\x00" * 64)
        try:
            load_stream(path)
        except StreamCacheError as exc:
            assert exc.reason == "unreadable"
        else:
            pytest.fail("expected StreamCacheError")
        stream = synthetic_stream()
        stream.misses += 1
        bad = save_stream(stream, tmp_path / "counts.npz")
        with pytest.raises(StreamCacheError) as excinfo:
            load_stream(bad)
        assert excinfo.value.reason == "count-mismatch"


class TestRegistryAccounting:
    @pytest.fixture(autouse=True)
    def _fresh_registry(self):
        from repro.obs.metrics import reset_registry

        reset_registry()
        yield
        reset_registry()

    def test_hit_miss_store_counters(self, tmp_path):
        from repro.obs.metrics import get_registry

        cache = StreamCache(tmp_path)
        key = "aa" * 32
        assert cache.get(key) is None
        cache.put(key, synthetic_stream())
        assert cache.get(key) is not None
        registry = get_registry()
        assert registry.counter("stream_cache.misses") == 1
        assert registry.counter("stream_cache.stores") == 1
        assert registry.counter("stream_cache.hits") == 1

    def test_evictions_are_counted_by_reason(self, tmp_path, monkeypatch):
        from repro.obs.metrics import get_registry

        cache = StreamCache(tmp_path)
        key = "bb" * 32
        cache.put(key, synthetic_stream())
        cache.path_for(key).write_bytes(b"\x00" * 64)
        assert cache.get(key) is None  # evicted
        monkeypatch.setattr(sc, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
        cache.put(key, synthetic_stream())
        monkeypatch.undo()
        assert cache.get(key) is None  # schema eviction
        registry = get_registry()
        assert registry.counter(
            "stream_cache.evictions", reason="unreadable"
        ) == 1
        assert registry.counter(
            "stream_cache.evictions", reason="schema"
        ) == 1
        assert registry.counter("stream_cache.errors") == 2


class TestKeys:
    @pytest.fixture(scope="class")
    def setup(self):
        workload = load_workload("mp3d", trace_length=3_000)
        tmap = TranslationMap.from_space(workload.union_space())
        return workload, tmap

    def test_key_is_stable_across_instances(self, setup):
        workload, tmap = setup
        a = stream_cache_key(workload.trace, FullyAssociativeTLB(64), tmap)
        b = stream_cache_key(workload.trace, FullyAssociativeTLB(64), tmap)
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_key_distinguishes_tlb_configs(self, setup):
        workload, tmap = setup
        keys = {
            stream_cache_key(workload.trace, tlb, tmap)
            for tlb in (
                FullyAssociativeTLB(64),
                FullyAssociativeTLB(56),
                SetAssociativeTLB(num_sets=16, ways=4),
                CompleteSubblockTLB(64, subblock_factor=16),
            )
        }
        assert len(keys) == 4

    def test_key_distinguishes_prefetch_flag(self, setup):
        workload, tmap = setup
        tlb = CompleteSubblockTLB(64)
        assert stream_cache_key(
            workload.trace, tlb, tmap, prefetch_subblocks=True
        ) != stream_cache_key(
            workload.trace, tlb, tmap, prefetch_subblocks=False
        )

    def test_key_distinguishes_trace_and_map(self, setup):
        workload, tmap = setup
        other = load_workload("compress", trace_length=3_000)
        other_map = TranslationMap.from_space(other.union_space())
        tlb = FullyAssociativeTLB(64)
        base = stream_cache_key(workload.trace, tlb, tmap)
        assert stream_cache_key(other.trace, tlb, tmap) != base
        assert stream_cache_key(workload.trace, tlb, other_map) != base

    def test_key_depends_on_schema_version(self, setup, monkeypatch):
        workload, tmap = setup
        tlb = FullyAssociativeTLB(64)
        before = stream_cache_key(workload.trace, tlb, tmap)
        monkeypatch.setattr(sc, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
        assert stream_cache_key(workload.trace, tlb, tmap) != before
