"""Multi-tenant consolidation sweep: per-tenant tail latency at scale.

ROADMAP item 3's production-scale question: does the clustered table's
one-line-per-miss claim survive thousands of sparse 64-bit address
spaces sharing one arena?  Each configuration builds a shared page
table ({hashed, clustered, forward-3lvl}) behind a
:class:`~repro.tenancy.arena.SharedArena`, admits {100 | 1k | 10k}
tenants, and drives a :class:`~repro.tenancy.scheduler.TenantScheduler`
through eight slots with or without lifecycle churn (10%/slot tenant
replacement under tight physical memory, which triggers watermark
reclaim → evicted-PTE refaults).

Headline metric: **walk-cycle percentiles** (p50/p95/p99 across every
tenant's misses, plus the worst single tenant's p99).  The mean is
reported but is explicitly not the headline — reclaim and refault
penalties concentrate in tail tenants, exactly what a consolidation
operator cares about and what a mean hides.

The hash-bucket count scales with the arena population (§6.1's ~4
entries/bucket sizing), so the sweep measures organisational structure,
not a misconfigured hash size.

The sweep is ordered :func:`cells`; :func:`measure` turns one into a
JSON-safe record and :func:`merge` turns the records into the table,
which :func:`document` writes as the run's ``BENCH_tenancy.json``.
The runner runs each cell as its own task; :func:`run` maps serially.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import make_table
from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentResult
from repro.os.physmem import FrameAllocator
from repro.tenancy.arena import SharedArena
from repro.tenancy.churn import ChurnSchedule
from repro.tenancy.scheduler import TenancyResult, TenantScheduler

#: Shared-table organisations compared (the paper's two contenders plus
#: the shallow forward-mapped tree a 64-bit OS might pick instead).
DEFAULT_TABLES = ("hashed", "clustered", "forward-3lvl")

#: Tenant populations of the runner-default sweep; the full bench
#: sweep (``--tenants 100,1000,10000``) adds the 10k point.
DEFAULT_TENANTS = (100, 1000)

#: Churn modes: static population vs 10%-per-slot tenant replacement.
DEFAULT_CHURN = (0.0, 0.1)
CHURN_FRACTION = 0.1

#: Slots per run (churn boundaries; one kernel compile per slot under
#: the batch engine).
SLOTS = 8

#: Pages per tenant, scattered sparsely in its private VPN region.
FOOTPRINT = 48

#: Physical headroom over the peak mapped footprint.  Static runs get
#: slack (no reclaim); churn runs are provisioned tight, so admissions
#: push the allocator over the watermark and reclaim/refault churn is
#: part of the measured workload.
HEADROOM_STATIC = 1.25
HEADROOM_CHURN = 1.02

#: Arena reclaim watermark (fraction of frames allocated).
WATERMARK = 0.9

#: Run seed: tenant footprints, workloads, and churn draws.
SEED = 7


def churn_tag(churn_fraction: float) -> str:
    return "churn" if churn_fraction else "static"


def misses_per_slot(trace_length: int, tenants: int) -> int:
    """Per-tenant slot slice length, scaled so one configuration costs
    about one trace-length of replayed misses regardless of tenancy."""
    return max(4, trace_length // (SLOTS * tenants))


def arena_buckets(peak_pages: int) -> int:
    """Hash-bucket count for an arena of ``peak_pages`` mapped pages.

    §6.1 sizes hash tables at a handful of entries per bucket; 4096
    buckets (the paper's per-process configuration) is the floor.
    """
    return max(4096, 1 << math.ceil(math.log2(max(1, peak_pages // 4))))


def run_config(
    table_name: str,
    tenants: int,
    churn_fraction: float,
    trace_length: int,
    seed: int = SEED,
    footprint: int = FOOTPRINT,
    slots: int = SLOTS,
) -> Tuple[TenancyResult, TenantScheduler]:
    """One (table, tenants, churn) cell; returns (result, scheduler).

    The scheduler is returned alongside the result so differential
    tests can inspect the shared table and arena afterwards.
    """
    schedule = ChurnSchedule(
        tenants, slots, churn_fraction=churn_fraction, seed=seed
    )
    peak_pages = schedule.peak_active * footprint
    headroom = HEADROOM_CHURN if churn_fraction else HEADROOM_STATIC
    table = make_table(table_name, num_buckets=arena_buckets(peak_pages))
    allocator = FrameAllocator(int(math.ceil(peak_pages * headroom)))
    labels = {
        "table": table_name,
        "tenants": tenants,
        "churn": churn_tag(churn_fraction),
    }
    arena = SharedArena(
        table, allocator, watermark=WATERMARK, labels=labels
    )
    scheduler = TenantScheduler(
        arena,
        schedule,
        misses_per_slot=misses_per_slot(trace_length, tenants),
        footprint=footprint,
        seed=seed,
        labels=labels,
    )
    return scheduler.run(), scheduler


def _numbers(result: TenancyResult) -> Dict[str, object]:
    """One run's unrounded percentiles and counters, as records keep them."""
    counts = (
        "misses", "faults", "cache_lines", "refault_misses", "arrivals",
        "departures", "reclaims", "evicted_ptes", "shootdown_entries",
    )
    return {
        "p50_cycles": result.population.p50,
        "p95_cycles": result.population.p95,
        "p99_cycles": result.population.p99,
        "worst_tenant_p99": result.worst_tenant_p99,
        "mean_cycles": result.mean_cycles,
        **{name: getattr(result, name) for name in counts},
    }


def config_label(record: Dict[str, object], table: Dict[str, object]) -> str:
    """``table/tenants/churn``: one table's row label within a record."""
    return f"{table['table']}/{record['tenants']}t/{record['churn']}"


def lines_per_miss(table: Dict[str, object]) -> float:
    """Cache lines per resolved (non-faulting) miss of one table."""
    resolved = table["misses"] - table["faults"]
    return table["cache_lines"] / resolved if resolved else 0.0


#: A table's cycle figures, in row order.
_CYCLES = (
    "p50_cycles", "p95_cycles", "p99_cycles", "worst_tenant_p99",
    "mean_cycles",
)


def _row(record: Dict[str, object], table: Dict[str, object]) -> List:
    return [
        config_label(record, table),
        *(round(table[name], 1) for name in _CYCLES),
        round(lines_per_miss(table), 3),
        round(1000.0 * table["refault_misses"] / table["misses"], 2),
        table["evicted_ptes"],
    ]


def cells(
    workloads: Optional[Sequence[str]] = None,
    tenants: Optional[Sequence[int]] = None,
    tables: Optional[Sequence[str]] = None,
    churn_modes: Optional[Sequence[float]] = None,
) -> List[Dict[str, object]]:
    """The sweep's cells in order, one per (tenants, churn) pair; a cell's
    tables replay one cached tenant bundle.  ``workloads`` is ignored
    (tenant workloads are synthetic Zipf draws)."""
    tenant_counts = tuple(tenants or DEFAULT_TENANTS)
    table_names = list(tables or DEFAULT_TABLES)
    bad = [n for n in tenant_counts if not isinstance(n, int) or n < 1]
    if bad:
        raise ConfigurationError(
            f"tenant populations must be positive integers, got {bad}"
        )
    for name in table_names:
        make_table(name)  # an unknown name raises ConfigurationError
    return [
        {
            "id": f"{count}t/{churn_tag(churn_fraction)}",
            "tenants": count,
            "churn": churn_fraction,
            "tables": table_names,
        }
        for count in tenant_counts
        for churn_fraction in (
            DEFAULT_CHURN if churn_modes is None else churn_modes
        )
    ]


def measure(cell: Dict[str, object], trace_length: int) -> Dict[str, object]:
    """One cell's JSON-safe record: each table's unrounded numbers."""
    count, churn_fraction = cell["tenants"], cell["churn"]
    tables = []
    for table_name in cell["tables"]:
        result, scheduler = run_config(
            table_name, count, churn_fraction, trace_length
        )
        stats = scheduler.arena.stats
        tables.append({
            "table": table_name,
            **_numbers(result),
            "refaulted_ptes": stats.refaulted_ptes,
            "pte_inserts": stats.pte_inserts,
            "pte_removes": stats.pte_removes,
            "table_bytes_created": stats.bytes_created,
        })
    return {
        "tenants": count,
        "churn": churn_tag(churn_fraction),
        "tables": tables,
    }


def merge(records: Sequence[Dict[str, object]]) -> ExperimentResult:
    """The sweep's records, in sweep order, as an :class:`ExperimentResult`."""
    return ExperimentResult(
        experiment=(
            "Tenancy: per-tenant walk-cycle percentiles over one shared "
            "arena"
        ),
        headers=[
            "table/tenants/churn", "p50 cyc", "p95 cyc", "p99 cyc",
            "worst-tenant p99", "mean cyc", "lines/miss", "refaults/1k",
            "evicted PTEs",
        ],
        rows=[_row(record, table) for record in records
              for table in record["tables"]],
        notes=(
            "Walk cycles = cache lines x 90 (the NUMA model's local "
            "latency); refaulting misses additionally pay the 720-cycle "
            "page-in penalty.  Percentiles are over every tenant's "
            "misses; 'worst-tenant p99' is the single worst tenant.  The "
            "mean is reported for reference only — reclaim/refault "
            "penalties concentrate in tail tenants, which the mean "
            "hides.  Churn rows run 10%/slot tenant replacement under "
            "tight physical memory (headroom 1.02x vs 1.25x static), so "
            "watermark reclaim and refaults are part of the measured "
            "workload."
        ),
        records=list(records),
    )


def _config(
    record: Dict[str, object], table: Dict[str, object]
) -> Dict[str, object]:
    """One (table, tenants, churn) configuration of a cell record: the
    table's numbers (cycles to three places), with lines/miss in place
    of the raw line count."""
    config = {
        name: round(value, 3) if name in _CYCLES else value
        for name, value in table.items()
        if name not in ("faults", "cache_lines")
    }
    config.update(
        config=config_label(record, table),
        tenants=record["tenants"],
        churn=record["churn"],
        lines_per_miss=round(lines_per_miss(table), 4),
    )
    return config


def document(
    result: ExperimentResult, trace_length: int, cells: Sequence[Dict]
) -> Dict[str, object]:
    """The sweep's bench document (``BENCH_tenancy.json``): each (table,
    tenants, churn) configuration of the records, plus the percentile
    table ``repro report`` renders from ``headers``/``rows``."""
    configs = [
        _config(record, table)
        for record in result.records
        for table in record["tables"]
    ]
    return {
        "benchmark": "tenancy",
        "trace_length": trace_length,
        "tables": list(dict.fromkeys(
            name for cell in cells for name in cell["tables"]
        )),
        "tenants": list(dict.fromkeys(cell["tenants"] for cell in cells)),
        "churn": list(dict.fromkeys(
            churn_tag(cell["churn"]) for cell in cells
        )),
        "slots": SLOTS,
        "footprint": FOOTPRINT,
        "seed": SEED,
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


def run(
    trace_length: int = 200_000,
    workloads: Optional[Sequence[str]] = None,
    tenants: Optional[Sequence[int]] = None,
    tables: Optional[Sequence[str]] = None,
    churn_modes: Optional[Sequence[float]] = None,
) -> ExperimentResult:
    """The tenancy sweep as an :class:`ExperimentResult`."""
    sweep = cells(workloads, tenants, tables, churn_modes)
    return merge([measure(cell, trace_length) for cell in sweep])


def parse_churn(text: str) -> Tuple[float, ...]:
    """``static,churn`` → the matching churn fractions."""
    modes = []
    for part in text.split(","):
        part = part.strip()
        if part == "static":
            modes.append(0.0)
        elif part == "churn":
            modes.append(CHURN_FRACTION)
        else:
            raise ValueError(
                f"unknown churn mode {part!r}; known: static, churn"
            )
    return tuple(modes)
