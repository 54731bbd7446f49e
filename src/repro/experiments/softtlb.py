"""Software-TLB front-end study (§7).

Section 7: software TLBs "reduce the TLB miss penalty to a single memory
access on a hit but increase the TLB miss penalty on a miss", and their
use "makes it practical to use a slower forward-mapped page table".  This
experiment fronts each backing page table with a TSB-style software TLB
and measures the effective cache lines per hardware-TLB miss, showing the
forward-mapped table's 7-access walks collapsing to ~1 once the swTLB
absorbs most misses.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.metrics import make_table
from repro.experiments.common import (
    ExperimentResult,
    TRACED_WORKLOADS,
    get_miss_stream,
    get_translation_map,
    get_workload,
    replay,
)
from repro.pagetables.software_tlb import SoftwareTLBTable

BACKINGS = ("forward-mapped", "hashed", "clustered")


def run(
    workloads: Optional[Sequence[str]] = None,
    trace_length: int = 200_000,
    num_sets: int = 512,
    associativity: int = 2,
) -> ExperimentResult:
    """Lines per miss with and without a software-TLB front end."""
    rows: List[List] = []
    for name in workloads or TRACED_WORKLOADS:
        workload = get_workload(name, trace_length)
        tmap = get_translation_map(workload, "single")
        stream = get_miss_stream(workload, "single")
        row: List = [name]
        for backing_name in BACKINGS:
            bare = make_table(backing_name)
            tmap.populate(bare, base_pages_only=True)
            bare_lines = replay(stream, bare).lines_per_miss

            backing = make_table(backing_name)
            fronted = SoftwareTLBTable(
                workload.layout, num_sets=num_sets,
                associativity=associativity, backing=backing,
            )
            tmap.populate(fronted, base_pages_only=True)
            fronted_lines = replay(stream, fronted).lines_per_miss
            row.extend([round(bare_lines, 3), round(fronted_lines, 3)])
        rows.append(row)
    headers = ["workload"]
    for backing_name in BACKINGS:
        headers.extend([backing_name, f"+swTLB"])
    return ExperimentResult(
        experiment=(
            f"Software-TLB front end ({num_sets}x{associativity} slots): "
            "cache lines per hardware TLB miss"
        ),
        headers=headers,
        rows=rows,
        notes=(
            "§7: the swTLB serves most misses in one access, making even "
            "the 7-access forward-mapped walk tolerable; tables that were "
            "already ~1 line gain nothing and pay the extra array access "
            "on swTLB misses."
        ),
    )
