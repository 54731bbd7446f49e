"""Benchmark the modern workload sweep and emit ``BENCH_modern.json``.

Runs the :mod:`repro.experiments.modern` sweep — one runner cell per
(workload, footprint) pair, over every table — under the batch engine
through ``benchmarks/sweep.py``, and writes the cell records: mapped
pages, table size relative to hashed, lines per miss, and miss
intensity.  ``headers``/``rows`` let ``repro report`` render the sweep
in a run report's bench-artefacts section.

Usage::

    PYTHONPATH=src python benchmarks/bench_modern.py \\
        [--fast] [--out FILE] [--jobs N] [--run-dir DIR | --resume DIR]
"""

from __future__ import annotations

import os
import sys
from typing import Optional, Sequence

# Self-locating: runnable as `python benchmarks/bench_modern.py` from
# the repository root without the root on sys.path.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks import sweep
from benchmarks.conftest import BENCH_TRACE_LENGTH
from repro.experiments import modern

#: Default output file (the CI artifact name).
DEFAULT_OUT = "BENCH_modern.json"

#: The full sweep covers the experiment's default footprints; --fast
#: uses small footprints at a short trace for CI smoke lanes.
FULL_FOOTPRINTS = modern.DEFAULT_FOOTPRINTS
FAST_FOOTPRINTS = (4, 8)


def collect(
    trace_length: int,
    footprints: Sequence[float],
    jobs: int = 1,
    run_dir: Optional[str] = None,
    resume: bool = False,
) -> dict:
    """The whole sweep as one JSON-ready document (plus stdout timing)."""
    workloads = modern.DEFAULT_WORKLOADS
    result = sweep.run_cells(
        "modern",
        modern.cells(workloads, footprints, modern.DEFAULT_TABLES),
        trace_length, jobs, run_dir, resume,
    )
    return {
        "benchmark": "modern",
        "trace_length": trace_length,
        "workloads": list(workloads),
        "footprints": list(footprints),
        "tables": list(modern.DEFAULT_TABLES),
        "seed": modern.SEED,
        "headers": [
            "config", "mapped pages", "size vs hashed", "lines/miss",
            "misses/1k",
        ],
        "rows": result.rows,
        "configs": result.records,
    }


def main(argv=None) -> int:
    return sweep.main(
        argv, collect,
        fast=dict(trace_length=20_000, footprints=FAST_FOOTPRINTS),
        full=dict(trace_length=BENCH_TRACE_LENGTH, footprints=FULL_FOOTPRINTS),
        default_out=DEFAULT_OUT,
        description="Production workload sweep benchmark -> BENCH_modern.json",
        fast_help="small footprints at a short trace for CI smoke lanes",
    )


if __name__ == "__main__":
    sys.exit(main())
