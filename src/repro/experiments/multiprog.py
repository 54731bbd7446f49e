"""Multiprogramming study: flush-on-switch vs ASID-tagged TLBs (§7).

Section 7 flags a limitation: "Multiprogramming can increase the number
of TLB misses and make TLB miss handling more significant [Agar88]."  The
paper's trap-driven setup flushed on context switches; 64-bit processors
tag entries with ASIDs instead.  This experiment quantifies the gap on
the two multiprogrammed workloads (compress, gcc) across scheduling
quantum lengths: flushing converts every switch into a burst of
compulsory misses; ASID tagging leaves only capacity competition.

Both phases run through the engine seam: phase 1 misses come from
:func:`~repro.experiments.common.collect_misses_cached` (persistent
stream cache) and phase 2 walk costs from
:func:`~repro.experiments.common.replay` (batch engine when selected),
so the study composes with ``--engine`` / ``--cache-dir`` like every
other experiment.  The walk column converts the extra flush misses into
page-table cache-line traffic: every flushed entry that misses again
pays a fresh walk, so the flush/ASID miss gap is also a walk-traffic
gap.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.metrics import make_table
from repro.experiments.common import (
    ExperimentResult,
    collect_misses_cached,
    get_workload,
    replay,
)
from repro.mmu.asid import ASIDTaggedTLB
from repro.mmu.simulate import MissStream
from repro.mmu.tlb import FullyAssociativeTLB
from repro.os.translation_map import TranslationMap
from repro.workloads.trace import Trace

MULTIPROG_WORKLOADS = ("compress", "gcc")

#: Table organisation used for the phase-2 walk-cost column (the
#: paper's recommended organisation; the flush/ASID *ratio* is not
#: sensitive to this choice, only the absolute line counts are).
WALK_TABLE = "clustered"


def _walk_lines_per_k(stream: MissStream, tmap: TranslationMap) -> float:
    """Page-table cache lines per 1k references for one miss stream."""
    table = make_table(WALK_TABLE)
    tmap.populate(table)
    replayed = replay(stream, table)
    return 1000.0 * replayed.cache_lines / stream.accesses


def _requantise(trace: Trace, quantum: int) -> Trace:
    """Re-slice a multiprocess trace's existing segments to a quantum.

    The suite's traces interleave per-process streams; to sweep quantum
    lengths we re-interleave the per-owner sub-streams.
    """
    per_owner: dict = {}
    for owner, _, segment in trace.segments_with_owner():
        per_owner.setdefault(owner, []).append(segment)
    import numpy as np

    parts = [
        Trace(np.concatenate(chunks), name=f"p{owner}",
              subblock_factor=trace.subblock_factor)
        for owner, chunks in sorted(per_owner.items())
    ]
    return Trace.interleave(parts, quantum=quantum, name=trace.name)


def run(
    workloads: Optional[Sequence[str]] = None,
    trace_length: int = 200_000,
    quantum: int = 5_000,
    tlb_sizes: Sequence[int] = (64, 256, 1024),
) -> ExperimentResult:
    """Misses per 1k references: flushing vs ASID tagging per TLB size.

    At the paper's 64 entries both processes' working sets exceed TLB
    reach, so capacity eviction hides the flush penalty; larger (second-
    level-sized) TLBs expose it — which is exactly why ASIDs matter more
    as TLBs grow.
    """
    rows: List[List] = []
    for name in workloads or MULTIPROG_WORKLOADS:
        workload = get_workload(name, trace_length)
        tmap = TranslationMap.from_space(workload.union_space())
        trace = _requantise(workload.trace, quantum)
        for entries in tlb_sizes:
            flush = collect_misses_cached(
                trace, FullyAssociativeTLB(entries), tmap
            )
            asid = collect_misses_cached(
                trace, ASIDTaggedTLB(FullyAssociativeTLB(entries)), tmap
            )
            flush_lines = _walk_lines_per_k(flush, tmap)
            asid_lines = _walk_lines_per_k(asid, tmap)
            rows.append(
                [
                    f"{name}/{entries}e",
                    len(trace.switch_points),
                    round(1000.0 * flush.miss_ratio, 2),
                    round(1000.0 * asid.miss_ratio, 2),
                    round(flush.misses / asid.misses, 2)
                    if asid.misses else None,
                    round(flush_lines, 2),
                    round(asid_lines, 2),
                ]
            )
    return ExperimentResult(
        experiment=(
            f"Multiprogramming (quantum {quantum}): flush-on-switch vs "
            "ASID-tagged TLB"
        ),
        headers=[
            "workload/TLB", "switches", "flush misses/1k",
            "ASID misses/1k", "flush/ASID", "flush lines/1k",
            "ASID lines/1k",
        ],
        rows=rows,
        notes=(
            "The §7 multiprogramming penalty under flushing grows with "
            "TLB size: once a process's working set fits, every flushed "
            "entry is a future compulsory miss that ASID tagging avoids.  "
            f"The lines/1k columns replay both miss streams against a "
            f"{WALK_TABLE} table: flush-on-switch pays its extra misses "
            "again in page-table cache-line traffic."
        ),
    )
