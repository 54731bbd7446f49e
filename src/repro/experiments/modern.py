"""Modern workload sweep: fig9/fig11 claims on production footprints.

ROADMAP item 2's capstone: take the paper's two headline claims —

- **Figure 9** (size): a clustered table costs about what a hashed
  table does, while forward-mapped tables blow up on sparse 64-bit
  address spaces; and
- **Figure 11** (access time): a clustered table services a TLB miss in
  about one cache line, where forward-mapped tables pay a walk,

and re-ask them on the four production workload models
(:mod:`repro.workloads.modern`) across a footprint sweep, from
megabytes toward the terabyte regime the modern TLB studies in
PAPERS.md target.  Each cell of {table} x {workload} x {footprint}
reports the mapped footprint, the table's size relative to hashed (the
Figure 9 y-axis), and cache lines per miss under the single-page-size
TLB (the Figure 11a y-axis), plus the raw miss intensity for context.

Hash-bucket counts scale with the footprint (§6.1's ~4 entries/bucket
sizing, as the tenancy sweep does), so the sweep compares table
*organisations*, not a fixed hash size that degrades as footprints
grow.  Replays go through :func:`repro.experiments.common.replay`, so
``--engine batch`` and the persistent stream cache apply unchanged.

The sweep is ordered :func:`cells`; :func:`measure` turns one into a
JSON-safe record and :func:`merge` turns the records into the table,
which :func:`document` writes as the run's ``BENCH_modern.json``.
The runner runs each cell as its own task; :func:`run` maps serially.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import make_table, normalised_sizes, table_sizes
from repro.errors import ConfigurationError
from repro.experiments.common import (
    ExperimentResult,
    TLB_ENTRIES,
    get_miss_stream,
    get_translation_map,
    get_workload,
    replay,
)
from repro.workloads.modern import MODERN_WORKLOADS

#: Table organisations compared: the paper's two contenders plus the
#: shallow forward-mapped tree a 64-bit OS might pick instead.
DEFAULT_TABLES = ("hashed", "clustered", "forward-3lvl")

#: Footprints (MB) of the default sweep; the knob accepts anything from
#: megabytes to terabytes.
DEFAULT_FOOTPRINTS = (16, 64, 256)

#: The four production models, in registry order.
DEFAULT_WORKLOADS = tuple(MODERN_WORKLOADS)

#: Workload seed (matches the suite default).
SEED = 1234


def sweep_buckets(mapped_pages: int) -> int:
    """Hash-bucket count for one footprint (§6.1: ~4 entries/bucket,
    floored at the paper's 4096-bucket per-process configuration)."""
    return max(4096, 1 << math.ceil(math.log2(max(1, mapped_pages // 4))))


def select_workloads(workloads: Optional[Sequence[str]]) -> Tuple[str, ...]:
    """The modern workloads to sweep.

    The runner forwards its global ``--workloads`` subset (usually paper
    names); anything that is not a modern model is ignored, and an empty
    intersection falls back to the full modern set.
    """
    if not workloads:
        return DEFAULT_WORKLOADS
    selected = tuple(name for name in workloads if name in MODERN_WORKLOADS)
    return selected or DEFAULT_WORKLOADS


def run_config(
    workload_name: str,
    footprint_mb: float,
    tables: Sequence[str] = DEFAULT_TABLES,
    trace_length: int = 200_000,
    seed: int = SEED,
) -> List[List]:
    """All table rows of one (workload, footprint) cell."""
    workload = get_workload(
        workload_name, trace_length, seed, footprint_mb=footprint_mb
    )
    mapped = workload.total_mapped_pages()
    buckets = sweep_buckets(mapped)

    # Figure 9 axis: per-process table sizes, normalised to hashed.
    size_names = tuple(dict.fromkeys(tuple(tables) + ("hashed",)))
    sizes = normalised_sizes(
        table_sizes(
            workload.spaces, names=size_names, num_buckets=buckets,
            base_pages_only=True,
        ),
        "hashed",
    )

    # Figure 11a axis: lines per miss under the single-page-size TLB.
    tmap = get_translation_map(workload, "single")
    stream = get_miss_stream(workload, "single", TLB_ENTRIES)
    misses_per_kref = (
        1000.0 * stream.miss_ratio if stream.accesses else 0.0
    )

    rows: List[List] = []
    for table_name in tables:
        table = make_table(table_name, num_buckets=buckets)
        result = replay(stream, table, tmap=tmap, base_pages_only=True)
        lines = result.cache_lines / stream.misses if stream.misses else 0.0
        rows.append(
            [
                f"{workload_name}/{footprint_mb:g}MB/{table_name}",
                mapped,
                round(sizes[table_name], 3),
                round(lines, 3),
                round(misses_per_kref, 2),
            ]
        )
    return rows


def cells(
    workloads: Optional[Sequence[str]] = None,
    footprints: Optional[Sequence[float]] = None,
    tables: Optional[Sequence[str]] = None,
) -> List[Dict[str, object]]:
    """The sweep's cells in order, one per (workload, footprint) pair; a
    cell's tables share one workload build and miss stream."""
    footprint_list = tuple(footprints or DEFAULT_FOOTPRINTS)
    table_names = list(tables or DEFAULT_TABLES)
    bad = [mb for mb in footprint_list if not 0 < mb < math.inf]
    if bad:
        raise ConfigurationError(
            f"footprints must be positive, finite MB values, got {bad}"
        )
    for name in table_names:
        make_table(name)  # an unknown name raises ConfigurationError
    return [
        {
            "id": f"{name}/{footprint_mb:g}MB",
            "workload": name,
            "footprint_mb": footprint_mb,
            "tables": table_names,
        }
        for name in select_workloads(workloads)
        for footprint_mb in footprint_list
    ]


def measure(cell: Dict[str, object], trace_length: int) -> Dict[str, object]:
    """One cell's JSON-safe record: the run_config numbers, per table."""
    rows = run_config(
        cell["workload"], cell["footprint_mb"], cell["tables"], trace_length
    )
    return {
        "config": cell["id"],
        "workload": cell["workload"],
        "footprint_mb": cell["footprint_mb"],
        "mapped_pages": rows[0][1],
        "misses_per_kref": rows[0][4],
        "tables": [
            {"table": name, "size_vs_hashed": row[2], "lines_per_miss": row[3]}
            for name, row in zip(cell["tables"], rows)
        ],
    }


def merge(records: Sequence[Dict[str, object]]) -> ExperimentResult:
    """The sweep's records, in sweep order, as an :class:`ExperimentResult`."""
    rows = [
        [
            f"{record['config']}/{table['table']}",
            record["mapped_pages"],
            table["size_vs_hashed"],
            table["lines_per_miss"],
            record["misses_per_kref"],
        ]
        for record in records
        for table in record["tables"]
    ]
    return ExperimentResult(
        experiment=(
            "Modern workloads: table size and lines/miss across footprints"
        ),
        headers=[
            "workload/footprint/table", "mapped pages", "size vs hashed",
            "lines/miss", "misses/1k",
        ],
        rows=rows,
        notes=(
            "Figure 9's size claim and Figure 11a's access-time claim "
            "re-asked on production address spaces (see workloads/"
            "modern.py).  'size vs hashed' is each organisation's total "
            "per-process table bytes normalised to the hashed table at "
            "the same footprint; 'lines/miss' replays the single-page-"
            "size 64-entry TLB miss stream (base PTEs only).  Hash "
            "buckets scale with footprint (~4 entries/bucket, 4096 "
            "floor), so organisations are compared at matched load "
            "factors."
        ),
        records=list(records),
    )


def document(
    result: ExperimentResult, trace_length: int, cells: Sequence[Dict]
) -> Dict[str, object]:
    """The sweep's bench document (``BENCH_modern.json``): the result's
    rows for ``repro report``, and its records as the configs."""
    return {
        "benchmark": "modern",
        "trace_length": trace_length,
        "workloads": list(dict.fromkeys(cell["workload"] for cell in cells)),
        "footprints": list(dict.fromkeys(
            cell["footprint_mb"] for cell in cells
        )),
        "tables": list(dict.fromkeys(
            name for cell in cells for name in cell["tables"]
        )),
        "seed": SEED,
        "headers": [
            "config", "mapped pages", "size vs hashed", "lines/miss",
            "misses/1k",
        ],
        "rows": result.rows,
        "configs": result.records,
    }


def run(
    trace_length: int = 200_000,
    workloads: Optional[Sequence[str]] = None,
    footprints: Optional[Sequence[float]] = None,
    tables: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """The modern sweep as an :class:`ExperimentResult`."""
    sweep = cells(workloads, footprints, tables)
    return merge([measure(cell, trace_length) for cell in sweep])


def parse_footprints(text: str) -> Tuple[float, ...]:
    """``"16,64,256"`` → numeric footprints in MB."""
    footprints = []
    for part in text.split(","):
        value = float(part.strip())
        footprints.append(int(value) if value.is_integer() else value)
    return tuple(footprints)
