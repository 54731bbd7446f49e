"""Promotion-scan cost: finding promotable blocks per page table (§5).

Section 5's third advantage: "clustered page tables simplify incremental
creation of partial-subblock and superpage PTEs by storing mappings for
consecutive base pages together.  If the operating system notices that
all base page mappings in a node are valid, it could decide to promote
them to a superpage.  Gathering this information in other page tables is
less efficient."

This experiment measures that gathering cost directly: for every
populated page block of a workload snapshot, check promotability
(population + placement + attribute homogeneity) by reading the page
table, and count the cache lines the scan touches:

- clustered: one node per block (``lookup_block`` is a single walk);
- linear: the block's sixteen PTEs are adjacent (cheap, plus nested cost);
- hashed: sixteen independent probes per block — the expensive case.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.metrics import make_table
from repro.experiments.common import ExperimentResult, get_workload
from repro.os.translation_map import TranslationMap

SERIES = ("clustered", "linear-1lvl", "hashed")
SCAN_WORKLOADS = ("coral", "mp3d", "gcc")


def scan_cost(table, layout, vpbns) -> tuple:
    """Scan every block for promotability; returns (lines, promotable)."""
    table.stats.reset()
    promotable = 0
    s = layout.subblock_factor
    for vpbn in vpbns:
        block = table.lookup_block(vpbn)
        if block.valid_mask != (1 << s) - 1:
            continue
        base_ppn = block.mappings[0].ppn
        attrs = block.mappings[0].attrs
        if base_ppn % s:
            continue
        if all(
            block.mappings[i].ppn == base_ppn + i
            and block.mappings[i].attrs == attrs
            for i in range(s)
        ):
            promotable += 1
    return table.stats.cache_lines, promotable


def run(
    workloads: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Cache lines per scanned block, per page table organisation."""
    rows: List[List] = []
    for name in workloads or SCAN_WORKLOADS:
        workload = get_workload(name)
        space = workload.union_space()
        tmap = TranslationMap.from_space(space)
        layout = space.layout
        vpbns = sorted({layout.vpbn(vpn) for vpn in space})
        row: List = [name, len(vpbns)]
        promotable_counts = set()
        for series in SERIES:
            table = make_table(series)
            tmap.populate(table, base_pages_only=True)
            lines, promotable = scan_cost(table, layout, vpbns)
            promotable_counts.add(promotable)
            row.append(round(lines / len(vpbns), 2))
        assert len(promotable_counts) == 1  # all tables agree, of course
        row.append(promotable_counts.pop())
        rows.append(row)
    return ExperimentResult(
        experiment="Promotion scan: cache lines per page block checked (§5)",
        headers=["workload", "blocks", *SERIES, "promotable blocks"],
        rows=rows,
        notes=(
            "The OS checks each block for full, properly-placed, "
            "attribute-homogeneous population.  Clustered reads one node "
            "per block; hashed pays ~16 probes — §5's 'gathering this "
            "information in other page tables is less efficient'."
        ),
    )
