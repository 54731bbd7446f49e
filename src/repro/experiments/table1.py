"""Table 1: workload characteristics.

Reproduces the structure of the paper's Table 1 from the synthetic
workloads: TLB misses under the base 64-entry fully-associative
single-page-size TLB, the estimated share of time spent in TLB miss
handling at the paper's 40-cycle penalty, and the hashed-page-table
memory footprint.

Absolute miss *counts* are scaled down with the traces (ours are ~10^5
references, the originals 10^10); the comparable quantities are the miss
*ratio*, the miss-handling share, and the page-table KB, plus the paper's
measured values re-printed alongside for EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.common import (
    ExperimentResult,
    TRACED_WORKLOADS,
    get_miss_stream,
    get_workload,
)
from repro.workloads.suite import PAPER_WORKLOADS

#: Cycles charged per TLB miss (§6.2's Table 1 assumption).
MISS_PENALTY_CYCLES = 40
#: Cycles charged per (page-granular) trace reference outside miss
#: handling.  Our trace references sample roughly one per few memory
#: accesses of the original programs; this constant only scales the
#: miss-handling share, not any cross-workload comparison.
CYCLES_PER_REFERENCE = 30

#: Hashed PTE bytes, for footprint computation.
_HASHED_PTE_BYTES = 24


def run(
    workloads: Optional[Sequence[str]] = None,
    trace_length: int = 200_000,
) -> ExperimentResult:
    """Regenerate Table 1 over the synthetic suite."""
    rows: List[List] = []
    for name in workloads or TRACED_WORKLOADS:
        workload = get_workload(name, trace_length)
        stream = get_miss_stream(workload, "single")
        misses = stream.misses
        refs = stream.accesses
        handler_cycles = misses * MISS_PENALTY_CYCLES
        total_cycles = refs * CYCLES_PER_REFERENCE + handler_cycles
        pct = 100.0 * handler_cycles / total_cycles
        hashed_kb = workload.total_mapped_pages() * _HASHED_PTE_BYTES / 1024.0
        paper = PAPER_WORKLOADS[name].table1
        rows.append(
            [
                name,
                refs,
                misses,
                round(1000.0 * stream.miss_ratio, 2),
                round(pct, 1),
                paper[3],
                round(hashed_kb, 1),
                paper[4],
            ]
        )
    # Kernel: size-only row, as in the paper.
    kernel = get_workload("kernel", trace_length)
    rows.append(
        [
            "kernel", None, None, None, None, None,
            round(kernel.total_mapped_pages() * _HASHED_PTE_BYTES / 1024.0, 1),
            PAPER_WORKLOADS["kernel"].table1[4],
        ]
    )
    return ExperimentResult(
        experiment="Table 1: workload characteristics",
        headers=[
            "workload", "refs", "TLB misses", "misses/1k refs",
            "%time TLB (sim)", "%time TLB (paper)",
            "hashed PT KB (sim)", "hashed PT KB (paper)",
        ],
        rows=rows,
        notes=(
            "Miss counts are for scaled-down synthetic traces; compare the "
            "miss-handling share and page-table KB columns against the "
            "paper, not absolute counts."
        ),
    )
