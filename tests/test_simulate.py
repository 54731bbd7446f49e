"""Two-phase simulation: equivalence with the integrated MMU.

The fast path's whole validity rests on the miss stream being independent
of the page table organisation; these tests verify that claim empirically
by running the same trace through both paths and comparing every metric.
"""

import numpy as np
import pytest

from repro.addr.layout import AddressLayout
from repro.addr.space import AddressSpace
from repro.analysis.metrics import make_table
from repro.core.clustered import ClusteredPageTable
from repro.errors import PageFaultError
from repro.mmu.mmu import MMU
from repro.mmu.simulate import collect_misses, replay_misses
from repro.mmu.subblock_tlb import CompleteSubblockTLB, PartialSubblockTLB
from repro.mmu.superpage_tlb import SuperpageTLB
from repro.mmu.tlb import FullyAssociativeTLB
from repro.os.promotion import DynamicPageSizePolicy
from repro.os.translation_map import TranslationMap
from repro.workloads.suite import load_workload
from repro.workloads.trace import Trace


@pytest.fixture(scope="module")
def workload():
    return load_workload("mp3d", trace_length=20_000)


@pytest.fixture(scope="module")
def tmap(workload):
    return TranslationMap.from_space(workload.union_space())


def test_collect_misses_counts_match_tlb(workload, tmap):
    stream = collect_misses(workload.trace, FullyAssociativeTLB(64), tmap)
    assert stream.misses == len(stream.vpns)
    assert stream.accesses == len(workload.trace)
    assert 0 < stream.misses < stream.accesses


def test_unmapped_reference_raises(layout):
    tmap = TranslationMap.from_space(
        __import__("repro.addr.space", fromlist=["AddressSpace"]).AddressSpace(layout)
    )
    trace = Trace(np.array([5], dtype=np.int64))
    with pytest.raises(PageFaultError):
        collect_misses(trace, FullyAssociativeTLB(4), tmap)


@pytest.mark.parametrize("table_name", ["hashed", "clustered", "linear-1lvl"])
def test_two_phase_equals_integrated_mmu(workload, tmap, table_name):
    """lines-per-miss must agree exactly between the two simulators."""
    # Two-phase path.
    stream = collect_misses(workload.trace, FullyAssociativeTLB(64), tmap)
    fast_table = make_table(table_name)
    tmap.populate(fast_table, base_pages_only=True)
    replay = replay_misses(stream, fast_table)

    # Integrated path.
    slow_table = make_table(table_name)
    tmap.populate(slow_table, base_pages_only=True)
    mmu = MMU(FullyAssociativeTLB(64), slow_table)
    mmu.run_trace(workload.trace)

    assert mmu.stats.tlb_misses == stream.misses
    assert mmu.stats.cache_lines == replay.cache_lines


def test_two_phase_superpage_tlb_equivalence(workload):
    tmap = TranslationMap.from_space(
        workload.union_space(), DynamicPageSizePolicy(enable_subblocks=False)
    )
    stream = collect_misses(
        workload.trace, SuperpageTLB(64, page_sizes=(1, 16)), tmap
    )
    fast = ClusteredPageTable(workload.layout)
    tmap.populate(fast)
    replay = replay_misses(stream, fast)

    slow = ClusteredPageTable(workload.layout)
    tmap.populate(slow)
    mmu = MMU(SuperpageTLB(64, page_sizes=(1, 16)), slow)
    mmu.run_trace(workload.trace)
    assert mmu.stats.tlb_misses == stream.misses
    assert mmu.stats.cache_lines == replay.cache_lines


def test_two_phase_partial_subblock_equivalence(workload):
    tmap = TranslationMap.from_space(
        workload.union_space(), DynamicPageSizePolicy()
    )
    stream = collect_misses(
        workload.trace, PartialSubblockTLB(64, subblock_factor=16), tmap
    )
    fast = ClusteredPageTable(workload.layout)
    tmap.populate(fast)
    replay = replay_misses(stream, fast)

    slow = ClusteredPageTable(workload.layout)
    tmap.populate(slow)
    mmu = MMU(PartialSubblockTLB(64, subblock_factor=16), slow)
    mmu.run_trace(workload.trace)
    assert mmu.stats.tlb_misses == stream.misses
    assert mmu.stats.cache_lines == replay.cache_lines


def test_two_phase_complete_subblock_equivalence(workload, tmap):
    stream = collect_misses(
        workload.trace, CompleteSubblockTLB(64, subblock_factor=16), tmap
    )
    fast = ClusteredPageTable(workload.layout)
    tmap.populate(fast, base_pages_only=True)
    replay = replay_misses(stream, fast, complete_subblock=True)

    slow = ClusteredPageTable(workload.layout)
    tmap.populate(slow, base_pages_only=True)
    mmu = MMU(CompleteSubblockTLB(64, subblock_factor=16), slow)
    mmu.run_trace(workload.trace)
    assert mmu.stats.tlb_misses == stream.misses
    assert mmu.stats.cache_lines == replay.cache_lines


def _no_prefetch_runs(trace, tmap, layout):
    """The same trace through the MMU and the two-phase path, without
    complete-subblock prefetch; returns (mmu, tlb, stream, replay)."""
    slow = ClusteredPageTable(layout)
    tmap.populate(slow, base_pages_only=True)
    mmu = MMU(
        CompleteSubblockTLB(64, subblock_factor=16), slow,
        prefetch_subblocks=False,
    )
    mmu.run_trace(trace)

    tlb = CompleteSubblockTLB(64, subblock_factor=16)
    stream = collect_misses(trace, tlb, tmap, prefetch_subblocks=False)
    fast = ClusteredPageTable(layout)
    tmap.populate(fast, base_pages_only=True)
    return mmu, tlb, stream, replay_misses(stream, fast)


def test_two_phase_complete_subblock_without_prefetch_merges(layout):
    """A subblock miss merges into the resident entry, as the MMU does."""
    space = AddressSpace(layout)
    for vpn in (0x100, 0x101, 0x102):
        space.map(vpn, 0x800 + vpn)
    tmap = TranslationMap.from_space(space)
    trace = Trace([0x100, 0x101, 0x100, 0x102, 0x101, 0x100])
    mmu, tlb, stream, replay = _no_prefetch_runs(trace, tmap, layout)
    assert mmu.stats.tlb_misses == stream.misses == 3
    assert stream.tlb_subblock_misses == mmu.tlb.stats.subblock_misses == 2
    assert stream.vpns.tolist() == [0x100, 0x101, 0x102]
    assert stream.block_miss.tolist() == [True, False, False]
    assert tlb.stats == mmu.tlb.stats
    assert tlb.entries() == mmu.tlb.entries()
    assert replay.cache_lines == mmu.stats.cache_lines


def test_two_phase_complete_subblock_without_prefetch_equivalence(
    workload, tmap
):
    mmu, tlb, stream, replay = _no_prefetch_runs(
        workload.trace, tmap, workload.layout
    )
    assert mmu.stats.tlb_misses == stream.misses
    assert stream.misses_by_kind == mmu.stats.misses_by_kind
    assert tlb.stats == mmu.tlb.stats
    assert tlb.entries() == mmu.tlb.entries()
    assert replay.cache_lines == mmu.stats.cache_lines


def test_context_switches_flush(workload, tmap):
    # A trace with switch points must miss more than the same trace
    # without them.
    plain = Trace(workload.trace.vpns, name="plain")
    switchy = Trace(
        workload.trace.vpns, name="switchy",
        switch_points=list(range(1000, len(plain), 1000)),
    )
    base = collect_misses(plain, FullyAssociativeTLB(64), tmap)
    flushed = collect_misses(switchy, FullyAssociativeTLB(64), tmap)
    assert flushed.misses > base.misses


def test_replay_counts_kinds(workload):
    tmap = TranslationMap.from_space(
        workload.union_space(), DynamicPageSizePolicy()
    )
    stream = collect_misses(
        workload.trace, PartialSubblockTLB(64, subblock_factor=16), tmap
    )
    table = ClusteredPageTable(workload.layout)
    tmap.populate(table)
    replay = replay_misses(stream, table)
    assert sum(replay.by_kind.values()) == replay.misses
    assert replay.faults == 0


def test_complete_subblock_replay_survives_faulting_lookup(layout):
    """Regression: the complete-subblock branch let PageFaultError escape.

    A subblock miss (``block_miss[i]`` False) whose VPN the page table no
    longer maps must be counted in ``faults`` — same contract as the
    non-block replay path — not crash the replay.
    """
    import numpy as np

    from repro.core.clustered import ClusteredPageTable
    from repro.mmu.simulate import MissStream

    table = ClusteredPageTable(layout)
    mapped = 0x100
    table.insert(mapped, 0x40)
    unmapped = 0x900  # different block, never inserted
    stream = MissStream(
        trace_name="synthetic", tlb_description="complete-subblock",
        vpns=np.array([mapped, unmapped], dtype=np.int64),
        block_miss=np.array([False, False]),
        accesses=10, misses=2, tlb_block_misses=0, tlb_subblock_misses=2,
    )
    replay = replay_misses(stream, table, complete_subblock=True)
    assert replay.faults == 1
    assert replay.misses == 2
    assert sum(replay.by_kind.values()) == 1  # only the successful walk

    # Identical fault accounting on the non-block path.
    assert replay_misses(stream, table, complete_subblock=False).faults == 1


def test_block_miss_on_unmapped_vpn_is_a_fault_not_a_walk(layout):
    """Regression: a block miss whose missed VPN the block fetch left
    unmapped was charged lines/probes/by_kind as if it resolved.

    The block fetch itself still runs (and its cost lands in the table's
    WalkStats), but the *replay* must count the miss as a fault and
    charge it nothing — exactly like the single-PTE walk path does.
    """
    import numpy as np

    from repro.core.clustered import ClusteredPageTable
    from repro.mmu.simulate import MissStream

    table = ClusteredPageTable(layout)
    table.insert(0x100, 0x40)  # boff 0 of the block holding 0x100
    hole = 0x105  # same block, never inserted
    stream = MissStream(
        trace_name="synthetic", tlb_description="complete-subblock",
        vpns=np.array([0x100, hole], dtype=np.int64),
        block_miss=np.array([True, True]),
        accesses=10, misses=2, tlb_block_misses=2, tlb_subblock_misses=0,
    )
    replay = replay_misses(stream, table, complete_subblock=True)
    assert replay.faults == 1
    assert sum(replay.by_kind.values()) == 1  # only the mapped miss
    # Both block fetches walked the table; only one resolved its VPN.
    assert table.stats.lookups == 2
