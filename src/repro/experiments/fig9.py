"""Figure 9: page-table size for single-page-size systems.

For every workload, build each page table from the same base-page
snapshot and report its size normalised to the hashed page table.  The
paper's claims to check:

- clustered (subblock factor 16) uses the least memory for *every*
  workload;
- 6-level linear tables blow up for sparse address spaces (gcc,
  compress — the paper truncates at 5.0);
- 1-level linear is competitive only for dense address spaces
  (coral, ML, kernel).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.metrics import normalised_sizes, table_sizes
from repro.experiments.common import (
    ExperimentResult,
    SIZE_WORKLOADS,
    get_workload,
)

#: Figure 9's series, in plot order.
SERIES = ("linear-6lvl", "linear-1lvl", "forward-mapped", "hashed", "clustered")


def run(
    workloads: Optional[Sequence[str]] = None,
    num_buckets: int = 4096,
) -> ExperimentResult:
    """Regenerate Figure 9's normalised sizes."""
    rows: List[List] = []
    for name in workloads or SIZE_WORKLOADS:
        workload = get_workload(name)
        sizes = table_sizes(
            workload.spaces, names=SERIES, num_buckets=num_buckets,
            base_pages_only=True,
        )
        norm = normalised_sizes(sizes, "hashed")
        rows.append([name, *(round(norm[series], 3) for series in SERIES)])
    return ExperimentResult(
        experiment="Figure 9: page table size (normalised to hashed)",
        headers=["workload", *SERIES],
        rows=rows,
        notes=(
            "Single-page-size snapshot; multiprogrammed workloads sum "
            "per-process tables (§6.1).  Expect clustered to be the "
            "minimum in every row and linear to exceed 1.0 (the paper "
            "truncates at 5.0) for sparse workloads."
        ),
    )
