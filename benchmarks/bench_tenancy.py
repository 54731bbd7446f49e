"""Benchmark the multi-tenant sweep and emit ``BENCH_tenancy.json``.

Runs the :mod:`repro.experiments.tenancy` sweep — one runner cell per
(tenants, churn) pair, over every table, up to the 10k-tenant point —
under the batch engine through ``benchmarks/sweep.py``, and writes each
(table, tenants, churn) configuration of the cell records: walk-cycle
p50/p95/p99, the worst tenant's p99, lines/miss, and the lifecycle
counters.  ``headers``/``rows`` let ``repro report`` render the
percentile table in a run report's bench-artefacts section.

Usage::

    PYTHONPATH=src python benchmarks/bench_tenancy.py \\
        [--fast] [--out FILE] [--jobs N] [--run-dir DIR | --resume DIR]
"""

from __future__ import annotations

import os
import sys
from typing import Dict, Optional, Sequence

# Self-locating: runnable as `python benchmarks/bench_tenancy.py` from
# the repository root without the root on sys.path.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks import sweep
from benchmarks.conftest import BENCH_TRACE_LENGTH
from repro.experiments import tenancy

#: Default output file (the CI artifact name).
DEFAULT_OUT = "BENCH_tenancy.json"

#: The full sweep reaches the 10k-tenant point; --fast stops at 100.
FULL_TENANTS = tenancy.SWEEP_TENANTS
FAST_TENANTS = (100,)

#: The record's cycle figures, rounded to three places in the document.
_CYCLES = (
    "p50_cycles", "p95_cycles", "p99_cycles", "worst_tenant_p99",
    "mean_cycles",
)


def config_document(
    record: Dict[str, object], table: Dict[str, object]
) -> Dict[str, object]:
    """One (table, tenants, churn) configuration of a cell record: the
    table's numbers, with lines/miss in place of the raw line count."""
    document = {
        name: round(value, 3) if name in _CYCLES else value
        for name, value in table.items()
        if name not in ("faults", "cache_lines")
    }
    document.update(
        config=tenancy.config_label(record, table),
        tenants=record["tenants"],
        churn=record["churn"],
        lines_per_miss=round(tenancy.lines_per_miss(table), 4),
    )
    return document


def collect(
    trace_length: int,
    tenants: Sequence[int],
    jobs: int = 1,
    run_dir: Optional[str] = None,
    resume: bool = False,
) -> dict:
    """The whole sweep as one JSON-ready document (plus stdout timing)."""
    tables = tenancy.DEFAULT_TABLES
    churn = tenancy.DEFAULT_CHURN
    result = sweep.run_cells(
        "tenancy", tenancy.cells(tenants=tenants, tables=tables),
        trace_length, jobs, run_dir, resume,
    )
    configs = [
        config_document(record, table)
        for record in result.records
        for table in record["tables"]
    ]
    return {
        "benchmark": "tenancy",
        "trace_length": trace_length,
        "tables": list(tables),
        "tenants": list(tenants),
        "churn": [tenancy.churn_tag(f) for f in churn],
        "slots": tenancy.SLOTS,
        "footprint": tenancy.FOOTPRINT,
        "seed": tenancy.SEED,
        "headers": [
            "config", "p50 cyc", "p95 cyc", "p99 cyc",
            "worst-tenant p99", "mean cyc", "lines/miss",
            "refault misses", "evicted PTEs",
        ],
        "rows": [
            [config[name] for name in (
                "config", *_CYCLES, "lines_per_miss", "refault_misses",
                "evicted_ptes",
            )]
            for config in configs
        ],
        "configs": configs,
    }


def main(argv=None) -> int:
    return sweep.main(
        argv, collect,
        fast=dict(trace_length=20_000, tenants=FAST_TENANTS),
        full=dict(trace_length=BENCH_TRACE_LENGTH, tenants=FULL_TENANTS),
        default_out=DEFAULT_OUT,
        description="Multi-tenant consolidation benchmark -> "
        "BENCH_tenancy.json",
        fast_help="100-tenant subset at a short trace for CI smoke lanes",
    )


if __name__ == "__main__":
    sys.exit(main())
