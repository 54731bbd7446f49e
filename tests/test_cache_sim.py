"""The real cache simulator and the §6.1 caching-hypothesis study."""

import pytest

from repro.errors import ConfigurationError
from repro.mmu.cache_sim import CacheSim
from repro.pagetables.memimage import MemoryImage
from repro.pagetables.hashed import HashedPageTable
from repro.core.clustered import ClusteredPageTable


class TestCacheSim:
    def test_cold_miss_then_hit(self):
        cache = CacheSim(size_bytes=4096, line_size=64, associativity=2)
        assert cache.access(0x100) == 1  # cold miss
        assert cache.access(0x100) == 0  # hit
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_access_spanning_lines(self):
        cache = CacheSim(size_bytes=4096, line_size=64, associativity=2)
        assert cache.access(60, nbytes=16) == 2  # straddles two lines

    def test_lru_within_set(self):
        # 2 sets x 1 way, 64B lines: lines 0 and 2 conflict (even lines).
        cache = CacheSim(size_bytes=128, line_size=64, associativity=1)
        cache.access(0)            # line 0
        cache.access(128)          # line 2 evicts line 0
        assert cache.access(0) == 1

    def test_capacity_bounds_residency(self):
        cache = CacheSim(size_bytes=1024, line_size=64, associativity=4)
        for address in range(0, 1 << 16, 64):
            cache.access(address)
        assert cache.resident_lines() <= 1024 // 64

    def test_pollute_evicts(self):
        cache = CacheSim(size_bytes=1024, line_size=64, associativity=4)
        cache.access(0x40)
        cache.pollute(1 << 14)  # 16 KB of unrelated traffic
        assert cache.access(0x40) == 1  # evicted

    def test_flush(self):
        cache = CacheSim(size_bytes=1024, line_size=64, associativity=4)
        cache.access(0)
        cache.flush()
        assert cache.resident_lines() == 0

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigurationError):
            CacheSim(size_bytes=1000, line_size=64, associativity=4)
        with pytest.raises(ConfigurationError):
            CacheSim(size_bytes=1024, line_size=48)

    def test_zero_byte_access_free(self):
        cache = CacheSim(size_bytes=1024, line_size=64, associativity=4)
        assert cache.access(0, nbytes=0) == 0
        assert cache.stats.accesses == 0


class TestWalkReads:
    def test_reads_match_walk_result(self, layout):
        table = HashedPageTable(layout, num_buckets=32)
        table.insert(0x123, 0x456)
        image = MemoryImage.of_hashed(table)
        result, reads = image.walk_reads(0x123)
        assert result == (0x456, table.lookup(0x123).attrs)
        assert len(reads) == 2  # tag+next, then the mapping word

    def test_fault_still_reports_reads(self, layout):
        table = HashedPageTable(layout, num_buckets=32)
        image = MemoryImage.of_hashed(table)
        result, reads = image.walk_reads(0x99)
        assert result is None
        assert len(reads) == 1  # the (empty) bucket head

    def test_clustered_far_slot_read_offset(self, layout):
        table = ClusteredPageTable(layout, num_buckets=32)
        for i in range(16):
            table.insert(0x100 + i, 0x400 + i)
        image = MemoryImage.of_clustered(table)
        _, reads = image.walk_reads(0x10F)
        mapping_read = reads[-1]
        assert mapping_read[0] % image.node_bytes == 16 + 8 * 15


class TestCachesimExperiment:
    def test_clustered_misses_less(self):
        from repro.experiments.cachesim import run

        for trace_length in (30_000, 40_000):
            result = run(workloads=("mp3d",), trace_length=trace_length)
            row = result.by_label()["mp3d"]
            headers = result.headers[1:]
            data = dict(zip(headers, row))
            # The §6.1 prediction: fewer real misses for the smaller table.
            assert data["clustered missed"] < data["hashed missed"]
            # And both missed counts sit below the touched counts.
            assert data["hashed missed"] < data["hashed touched"]
            assert data["clustered missed"] < data["clustered touched"]
