"""Benchmark the NUMA page-table sweep and emit ``BENCH_numa.json``.

Runs the :mod:`repro.experiments.numa` sweep — one runner cell per
workload, over every table, topology and policy — under the batch
engine through ``benchmarks/sweep.py``, and writes, per
(workload/table, nodes) configuration, the headline numbers: flat
lines/miss, latency-weighted cycles/miss per policy, the mitosis
local-access fraction, and the migration count.

Usage::

    PYTHONPATH=src python benchmarks/bench_numa.py \\
        [--fast] [--out FILE] [--jobs N] [--run-dir DIR | --resume DIR]
"""

from __future__ import annotations

import os
import sys
from typing import Optional, Sequence

# Self-locating: runnable as `python benchmarks/bench_numa.py` from the
# repository root without the root on sys.path.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks import sweep
from benchmarks.conftest import BENCH_TRACE_LENGTH, BENCH_WORKLOADS
from repro.experiments import numa

#: Default output file (the CI artifact name).
DEFAULT_OUT = "BENCH_numa.json"


def collect(
    trace_length: int,
    workloads: Sequence[str],
    topologies: Sequence[str],
    miss_limit: Optional[int],
    jobs: int = 1,
    run_dir: Optional[str] = None,
    resume: bool = False,
) -> dict:
    """The whole sweep as one JSON-ready document (plus stdout timing)."""
    result = sweep.run_cells(
        "numa",
        numa.cells(workloads, topologies=topologies, miss_limit=miss_limit),
        trace_length, jobs, run_dir, resume,
    )
    configs = [dict(zip(result.headers, row)) for row in result.rows]
    for config in configs:
        # The headline invariant: replication must never lose to
        # first-touch on a multi-node machine.
        mitosis, none = config["mitosis cyc/miss"], config["none cyc/miss"]
        assert config["nodes"] == 1 or mitosis <= none, config
    return {
        "benchmark": "numa",
        "trace_length": trace_length,
        "workloads": list(workloads),
        "topologies": list(topologies),
        "configs": configs,
    }


def main(argv=None) -> int:
    return sweep.main(
        argv, collect,
        fast=dict(
            trace_length=20_000, workloads=("mp3d", "gcc"),
            topologies=("1-node", "4-node"), miss_limit=5_000,
        ),
        full=dict(
            trace_length=BENCH_TRACE_LENGTH, workloads=BENCH_WORKLOADS,
            topologies=numa.DEFAULT_TOPOLOGIES,
            miss_limit=numa.DEFAULT_MISS_LIMIT,
        ),
        default_out=DEFAULT_OUT,
        description="NUMA placement sweep benchmark -> BENCH_numa.json",
        fast_help="2-workload, 2-topology subset for CI smoke lanes",
    )


if __name__ == "__main__":
    sys.exit(main())
