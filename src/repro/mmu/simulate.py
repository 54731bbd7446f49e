"""Decoupled two-phase TLB/page-table simulation.

The paper's access-time metric normalises cache-line counts by "the number
of TLB misses incurred by a 64-entry TLB, which is independent of the page
table type" (§6.1).  That independence is an algorithmic gift: the TLB
*miss stream* depends only on the reference trace, the TLB configuration,
and the logical PTE contents — not on how a page table organises them.  So
the experiments run in two phases:

1. :func:`collect_misses` — run the trace through a TLB once, filling
   entries from the :class:`~repro.os.translation_map.TranslationMap`
   oracle, recording every miss.  For the paper's LRU TLBs this is an
   array pass over LRU stack distances (:mod:`repro.mmu.lru_filter`);
   :func:`collect_misses_scalar`, one reference at a time, is its oracle
   and serves every other TLB.
2. :func:`replay_misses` — walk each page table organisation once per
   recorded miss, accumulating its cache-line costs.

Phase 1 is paid once per TLB configuration and phase 2 once per page
table.  The integrated :class:`~repro.mmu.mmu.MMU` produces identical
numbers and is used to cross-validate this fast path in the test suite.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.errors import PageFaultError
from repro.mmu.fill import block_entry, build_entry
from repro.mmu.lru_filter import FilterRefused, filter_misses
from repro.mmu.subblock_tlb import CompleteSubblockTLB
from repro.mmu.tlb import BaseTLB
from repro.obs.metrics import get_registry
from repro.os.translation_map import TranslationMap
from repro.pagetables.pte import PTEKind
from repro.workloads.trace import Trace


@dataclass
class MissStream:
    """Every TLB miss of one (trace, TLB) run, in order.

    ``block_miss[i]`` is True when miss *i* allocated a new tag (relevant
    for complete-subblock TLBs, whose subblock misses are serviced by a
    single-PTE walk instead of a block prefetch).
    """

    trace_name: str
    tlb_description: str
    vpns: np.ndarray
    block_miss: np.ndarray
    accesses: int
    misses: int
    tlb_block_misses: int
    tlb_subblock_misses: int
    misses_by_kind: Counter = field(default_factory=Counter)

    @property
    def miss_ratio(self) -> float:
        """Misses per reference."""
        return self.misses / self.accesses if self.accesses else 0.0

    @classmethod
    def all_misses(
        cls, vpns: np.ndarray, trace_name: str, tlb_description: str
    ) -> "MissStream":
        """A stream with no TLB phase (synthetic tenant streams, probe
        streams): every reference is a base-page miss.  ``vpns`` is kept
        as given, and the all-true ``block_miss`` allocates nothing."""
        n = int(vpns.shape[0])
        return cls(
            trace_name=trace_name,
            tlb_description=tlb_description,
            vpns=vpns,
            block_miss=np.broadcast_to(np.True_, vpns.shape),
            accesses=n,
            misses=n,
            tlb_block_misses=n,
            tlb_subblock_misses=0,
            misses_by_kind=Counter({PTEKind.BASE: n}),
        )


def collect_misses(
    trace: Trace,
    tlb: BaseTLB,
    tmap: TranslationMap,
    prefetch_subblocks: bool = True,
) -> MissStream:
    """Phase 1: run a trace through a TLB, filling from the logical PTEs.

    References to unmapped pages raise: traces are generated from mapped
    pages, so a fault here means the trace and map disagree.

    When the TLB is a pure LRU over fill tags (an empty fully-
    associative, superpage, partial-subblock or prefetching complete-
    subblock TLB, under the conditions of
    :func:`~repro.mmu.lru_filter.filter_misses`), the stream is computed
    in array passes.  Every other input runs :func:`collect_misses_scalar`
    and is counted in the ``phase1.fallback`` metric by TLB and reason.
    Both paths give the same stream, TLB statistics and final TLB
    contents.
    """
    try:
        vpns, by_kind = filter_misses(trace, tlb, tmap, prefetch_subblocks)
    except FilterRefused as refused:
        get_registry().inc(
            "phase1.fallback", tlb=tlb.name, reason=refused.reason
        )
        return collect_misses_scalar(trace, tlb, tmap, prefetch_subblocks)
    return _miss_stream(
        trace, tlb, vpns, np.ones(len(vpns), dtype=bool), by_kind
    )


def collect_misses_scalar(
    trace: Trace,
    tlb: BaseTLB,
    tmap: TranslationMap,
    prefetch_subblocks: bool = True,
) -> MissStream:
    """Phase 1 one reference at a time: the oracle for every fast path.

    Services misses as :class:`~repro.mmu.mmu.MMU` does.  A complete-
    subblock TLB whose tag is resident takes a subblock miss and merges
    the page into the entry; otherwise the miss fills a new entry, a
    prefetched block (§4.4) when ``prefetch_subblocks`` is set.
    """
    from repro.mmu.asid import ASIDTaggedTLB

    vpns_out: List[int] = []
    block_out: List[bool] = []
    by_kind: Counter = Counter()
    complete = isinstance(tlb, CompleteSubblockTLB)
    asid_tagged = isinstance(tlb, ASIDTaggedTLB)
    layout = tmap.layout

    for owner, flush_first, segment in trace.segments_with_owner():
        if asid_tagged:
            # ASID-tagged hardware switches address spaces without
            # flushing — the §7 multiprogramming comparison.
            tlb.switch_to(owner)
        elif flush_first:
            tlb.flush()
        for raw in segment:
            vpn = int(raw)
            if tlb.lookup(vpn) is not None:
                continue
            pte = tmap.query(vpn)
            if pte is None:
                raise PageFaultError(vpn, f"trace references unmapped VPN {vpn:#x}")
            vpns_out.append(vpn)
            by_kind[pte.kind] += 1
            ppn = pte.ppn_for(vpn)
            if complete and tlb.current_entry(vpn) is not None:
                block_out.append(False)
                tlb.merge_fill(vpn, ppn, pte.attrs)
                continue
            block_out.append(True)
            if complete and prefetch_subblocks:
                vpbn = layout.vpbn(vpn)
                tlb.fill(
                    block_entry(
                        tlb, layout.vpn_of_block(vpbn),
                        tmap.block_mappings(vpbn),
                    )
                )
            else:
                tlb.fill(build_entry(tlb, pte, vpn, ppn))

    return _miss_stream(
        trace, tlb, np.asarray(vpns_out, dtype=np.int64),
        np.asarray(block_out, dtype=bool), by_kind,
    )


def _miss_stream(
    trace: Trace,
    tlb: BaseTLB,
    vpns: np.ndarray,
    block_miss: np.ndarray,
    by_kind: Counter,
) -> MissStream:
    return MissStream(
        trace_name=trace.name,
        tlb_description=tlb.describe(),
        vpns=vpns,
        block_miss=block_miss,
        accesses=tlb.stats.accesses,
        misses=tlb.stats.misses,
        tlb_block_misses=tlb.stats.block_misses,
        tlb_subblock_misses=tlb.stats.subblock_misses,
        misses_by_kind=by_kind,
    )


@dataclass
class ReplayResult:
    """Phase 2 outcome: one page table's cost over a miss stream."""

    table_description: str
    misses: int
    cache_lines: int
    probes: int
    faults: int
    by_kind: Counter = field(default_factory=Counter)

    @property
    def lines_per_miss(self) -> float:
        """Average cache lines per TLB miss — the Figure 11 metric."""
        return self.cache_lines / self.misses if self.misses else 0.0


def replay_misses(
    stream: MissStream,
    table,
    complete_subblock: bool = False,
) -> ReplayResult:
    """Phase 2: charge one page table for every miss in the stream.

    ``complete_subblock`` replays block misses as §4.4 prefetching block
    walks (``lookup_block``) and subblock misses as single-PTE walks.

    A miss whose walk ends in a page fault is counted in ``faults`` and
    charged no cache lines, identically in both replay modes.
    """
    lines = 0
    probes = 0
    faults = 0
    by_kind: Counter = Counter()
    layout = table.layout
    if complete_subblock:
        for vpn, is_block in zip(stream.vpns.tolist(), stream.block_miss.tolist()):
            if is_block:
                block = table.lookup_block(layout.vpbn(vpn))
                if block.mappings[layout.boff(vpn)] is None:
                    # The missed page has no mapping: a fault, charged no
                    # cache lines — identical to the walk path below.  The
                    # table's own WalkStats still record the walk's cost.
                    faults += 1
                    continue
                lines += block.cache_lines
                probes += block.probes
                by_kind[PTEKind.BASE] += 1
            else:
                try:
                    result = table.lookup(vpn)
                except PageFaultError:
                    faults += 1
                    continue
                lines += result.cache_lines
                probes += result.probes
                by_kind[result.kind] += 1
    else:
        for vpn in stream.vpns.tolist():
            try:
                result = table.lookup(vpn)
            except PageFaultError:
                faults += 1
                continue
            lines += result.cache_lines
            probes += result.probes
            by_kind[result.kind] += 1
    return ReplayResult(
        table_description=table.describe(),
        misses=int(stream.vpns.shape[0]),
        cache_lines=lines,
        probes=probes,
        faults=faults,
        by_kind=by_kind,
    )
