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

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import table_sizes
from repro.experiments.common import (
    ExperimentResult,
    SIZE_WORKLOADS,
    get_workload,
)
from repro.os.promotion import DynamicPageSizePolicy

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


def run(
    workloads: Optional[Sequence[str]] = None,
    num_buckets: int = 4096,
) -> ExperimentResult:
    """Regenerate Figure 10's normalised sizes."""
    rows: List[List] = []
    labels = [label for label, *_ in SERIES]
    # Series sized from the same translation maps: one group per
    # (policy, base_pages_only), so each space's map is built per group.
    groups: Dict[tuple, List[Tuple[str, str]]] = {}
    for label, table_name, policy, base_only in SERIES:
        groups.setdefault((policy, base_only), []).append((label, table_name))
    for name in workloads or SIZE_WORKLOADS:
        spaces = get_workload(name).spaces
        sizes: Dict[str, int] = {}
        for (policy, base_only), group in groups.items():
            totals = table_sizes(
                spaces, [table_name for _, table_name in group], policy,
                num_buckets=num_buckets, base_pages_only=base_only,
            )
            sizes.update((label, totals[table]) for label, table in group)
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
