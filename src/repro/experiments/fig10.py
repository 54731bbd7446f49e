"""Figure 10: page-table size with superpage and partial-subblock PTEs.

Zeroes in on the organisations that beat the hashed page table and adds
the wide-PTE variants: clustered tables shrink by up to ~75 % with
superpage PTEs and ~80 % with partial-subblock PTEs; hashed tables also
improve with superpages (via the multiple-page-table configuration) but
stay above the clustered variants.  Linear and forward-mapped tables get
*no* size benefit because they replicate wide PTEs at every base site
(§4.2), so their series equal their Figure 9 values.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.metrics import make_table
from repro.experiments.common import (
    ExperimentResult,
    SIZE_WORKLOADS,
    get_workload,
)
from repro.os.promotion import DynamicPageSizePolicy
from repro.os.translation_map import TranslationMap
from repro.workloads.suite import Workload

#: Figure 10 series: (label, table name, policy, base_pages_only).
_SUPERPAGE_POLICY = DynamicPageSizePolicy(enable_subblocks=False)
_SUBBLOCK_POLICY = DynamicPageSizePolicy()

SERIES = (
    ("linear-1lvl", "linear-1lvl", None, True),
    ("hashed", "hashed", None, True),
    ("hashed+superpage", "hashed-multi", _SUPERPAGE_POLICY, False),
    ("clustered", "clustered", None, True),
    ("clustered+superpage", "clustered", _SUPERPAGE_POLICY, False),
    ("clustered+subblock", "clustered", _SUBBLOCK_POLICY, False),
)


def _series_size(workload: Workload, table_name: str, policy, base_only: bool,
                 num_buckets: int) -> int:
    total = 0
    for space in workload.spaces:
        tmap = TranslationMap.from_space(space, policy)
        table = make_table(table_name, num_buckets=num_buckets)
        tmap.populate(table, base_pages_only=base_only)
        total += table.size_bytes()
    return total


def run(
    workloads: Optional[Sequence[str]] = None,
    num_buckets: int = 4096,
) -> ExperimentResult:
    """Regenerate Figure 10's normalised sizes."""
    rows: List[List] = []
    labels = [label for label, *_ in SERIES]
    for name in workloads or SIZE_WORKLOADS:
        workload = get_workload(name)
        sizes: Dict[str, int] = {}
        for label, table_name, policy, base_only in SERIES:
            sizes[label] = _series_size(
                workload, table_name, policy, base_only, num_buckets
            )
        denom = sizes["hashed"]
        rows.append(
            [name, *(round(sizes[label] / denom, 3) for label in labels)]
        )
    return ExperimentResult(
        experiment=(
            "Figure 10: page table size with superpage/partial-subblock "
            "PTEs (normalised to hashed)"
        ),
        headers=["workload", *labels],
        rows=rows,
        notes=(
            "Expect clustered+subblock to be the smallest series (up to "
            "~80% below the base clustered table for dense, properly "
            "placed workloads), clustered+superpage close behind, and "
            "hashed+superpage improved but above the clustered variants."
        ),
    )
