"""Benchmark the batch replay engine and emit ``BENCH_batch.json``.

Replays the Figure 11 miss streams through both phase-2 engines — the
scalar reference loop and the vectorized batch engine — on the same
populated tables, recording per (workload, TLB, table) configuration the
wall time of each engine and the resulting speedup.  Before timing, each
configuration's results are checked for exact equality (total cache
lines, probes, faults, per-kind counts, and the table's WalkStats), so
the benchmark doubles as a coarse differential test: a speedup bought by
diverging from the oracle fails here, not in CI artifact diffs.

The CI ``batch`` lane uploads the JSON and feeds it to
``bench_gate.py --family batch=``, which fails the lane when the aggregate
speedup (total scalar time over total batch time) drops below the floor
(default 10x).  The aggregate is gated rather than the per-config
minimum because the batch engine's fixed cost — compiling the table
into kernel arrays — is O(table size), not O(misses): tiny miss
streams (gcc at short traces) legitimately sit near 2-8x while the
streams that dominate wall time sit at 30-130x.

Usage::

    PYTHONPATH=src python benchmarks/bench_batch.py [--fast] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Sequence, Tuple

from repro.analysis.metrics import make_table
from repro.experiments import common
from repro.mmu.batch import replay_misses_batch
from repro.mmu.simulate import replay_misses

#: Default output file (the CI artifact name).
DEFAULT_OUT = "BENCH_batch.json"

#: Workloads of the full sweep, one per density class.
WORKLOADS = ("coral", "mp3d", "gcc")

#: Figure 11 page-table series with batch kernels.
TABLES = ("linear-1lvl", "forward-mapped", "hashed", "clustered")

#: (TLB kind, complete-subblock replay?) — the walk mode and the §4.4
#: block-fetch mode, the two code paths the engines must agree on.
MODES: Tuple[Tuple[str, bool], ...] = (
    ("single", False),
    ("complete-subblock", True),
)

#: Timing repetitions; the minimum is reported (robust to scheduler noise).
REPEATS = 3


def _fresh_table(name: str, workload, tlb_kind: str):
    """One populated table (replays mutate WalkStats)."""
    table = make_table(name, workload.layout)
    common.get_translation_map(workload, tlb_kind).populate(
        table, base_pages_only=True
    )
    return table


def _time(fn, repeats: int = REPEATS) -> Tuple[float, object]:
    """(best seconds, last result) over ``repeats`` calls."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _check_equal(config: str, scalar, batch, scalar_stats, batch_stats) -> None:
    """Exact-equality oracle; raises on any divergence."""
    for field in ("misses", "cache_lines", "probes", "faults"):
        left, right = getattr(scalar, field), getattr(batch, field)
        assert left == right, f"{config}: {field} {left} != {right}"
    assert dict(scalar.by_kind) == dict(batch.by_kind), (
        f"{config}: by_kind {dict(scalar.by_kind)} != {dict(batch.by_kind)}"
    )
    for field in ("lookups", "faults", "cache_lines", "probes"):
        left = getattr(scalar_stats, field)
        right = getattr(batch_stats, field)
        assert left == right, f"{config}: stats.{field} {left} != {right}"


def collect(
    trace_length: int = 200_000,
    workloads: Sequence[str] = WORKLOADS,
    tables: Sequence[str] = TABLES,
) -> dict:
    """Per-config scalar/batch timings as one JSON-ready document."""
    started = time.perf_counter()
    configs: List[dict] = []
    for name in workloads:
        workload = common.get_workload(name, trace_length)
        for tlb_kind, complete in MODES:
            stream = common.get_miss_stream(workload, tlb_kind)
            for table_name in tables:
                config = f"{name}/{tlb_kind}/{table_name}"
                scalar_table = _fresh_table(table_name, workload, tlb_kind)
                batch_table = _fresh_table(table_name, workload, tlb_kind)
                scalar_seconds, scalar_result = _time(
                    lambda: replay_misses(
                        stream, scalar_table, complete_subblock=complete
                    )
                )
                batch_seconds, batch_result = _time(
                    lambda: replay_misses_batch(
                        stream, batch_table, complete_subblock=complete
                    )
                )
                # Repeated replays accumulate stats linearly, so the
                # REPEATS-fold totals must still match exactly.
                _check_equal(
                    config, scalar_result, batch_result,
                    scalar_table.stats, batch_table.stats,
                )
                configs.append({
                    "workload": name,
                    "tlb": tlb_kind,
                    "table": table_name,
                    "misses": scalar_result.misses,
                    "scalar_ms": round(scalar_seconds * 1e3, 3),
                    "batch_ms": round(batch_seconds * 1e3, 3),
                    "speedup": round(scalar_seconds / batch_seconds, 2),
                })
    scalar_total = sum(record["scalar_ms"] for record in configs)
    batch_total = sum(record["batch_ms"] for record in configs)
    return {
        "benchmark": "batch",
        "trace_length": trace_length,
        "workloads": list(workloads),
        "tables": list(tables),
        "wall_seconds": round(time.perf_counter() - started, 3),
        "scalar_ms": round(scalar_total, 3),
        "batch_ms": round(batch_total, 3),
        "aggregate_speedup": round(scalar_total / batch_total, 2),
        "configs": configs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Batch-engine speedup benchmark -> BENCH_batch.json"
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="2-workload subset at shorter traces for CI smoke lanes",
    )
    parser.add_argument(
        "--out", metavar="FILE", default=DEFAULT_OUT,
        help=f"output JSON path (default {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)
    if args.fast:
        document = collect(trace_length=100_000, workloads=("mp3d", "gcc"))
    else:
        document = collect()
    from repro.util.atomic_io import atomic_write_text

    atomic_write_text(
        args.out, json.dumps(document, indent=2, sort_keys=True) + "\n"
    )
    slowest = min(record["speedup"] for record in document["configs"])
    print(f"[{len(document['configs'])} configs in "
          f"{document['wall_seconds']}s, aggregate speedup "
          f"{document['aggregate_speedup']}x (min config {slowest}x) "
          f"-> {args.out}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
