"""Calibration audit: do the synthetic workloads still match Table 1?

The suite's credibility rests on calibration (DESIGN.md §2).  This module
turns the calibration targets into a checkable report so any change to
the generators that drifts a workload away from the paper is caught by
`tests/test_workloads.py` and visible via ``repro validate``:

- **footprint** — mapped pages vs the hashed-page-table KB of Table 1;
- **miss intensity** — simulated TLB miss ratio vs the ratio implied by
  Table 1's %-time-in-miss-handling column (at the paper's 40-cycle
  penalty and this library's reference-cost constant);
- **density class** — the qualitative dense/bursty/sparse label vs the
  measured *region-level* density (pages mapped per populated 512-page
  region).  The paper's "sparse" means address-space scatter — what makes
  linear tables blow up in Figure 9 — not per-block emptiness: compress's
  blocks are quite full while its regions are nearly empty.  Every label
  is checked: dense above :data:`DENSE_REGION_DENSITY`, sparse below
  :data:`SPARSE_REGION_DENSITY`, and bursty inside
  :data:`BURSTY_REGION_DENSITY_BAND` — so no workload escapes the audit
  by sitting in the dense/sparse overlap.

The modern production models (:mod:`repro.workloads.modern`) are audited
with the same machinery: their footprint target is the planned page
count the family encodes into the ``table1`` hashed-KB slot, and their
miss-intensity target is the family's own ``miss_band`` (misses per 1000
references, footprint-saturated) instead of a Table 1 column.  Audits of
modern workloads run at the family's calibration (default) footprint
unless ``footprint_mb`` says otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.common import ExperimentResult
from repro.workloads.suite import PAPER_WORKLOADS, Workload, load_workload

#: Tolerated relative footprint error vs the Table 1 target.
FOOTPRINT_TOLERANCE = 0.15
#: Tolerated ratio band for miss intensity vs the Table 1-implied target.
MISS_RATIO_BAND = (0.5, 2.0)
#: Region-level (512-page) density thresholds for the density classes:
#: dense spaces fill most of each touched 2 MB region, sparse ones
#: scatter few pages per region.
DENSE_REGION_DENSITY = 0.35
SPARSE_REGION_DENSITY = 0.25
#: Bursty spaces sit between scatter and full: above the sparse line,
#: but with enough holes that they never look fully dense.
BURSTY_REGION_DENSITY_BAND = (SPARSE_REGION_DENSITY, 0.90)

#: Mirrors repro.experiments.table1's time model.
MISS_PENALTY_CYCLES = 40
CYCLES_PER_REFERENCE = 30


@dataclass
class CalibrationCheck:
    """One workload's audit outcome."""

    name: str
    footprint_ratio: float
    miss_ratio: Optional[float]
    target_miss_ratio: Optional[float]
    region_density: float
    density_class: str
    ok: bool
    problems: List[str]


def implied_miss_ratio(percent_time: int) -> Optional[float]:
    """Invert Table 1's %-time column into a per-reference miss ratio."""
    if percent_time <= 0:
        return None
    fraction = percent_time / 100.0
    return (fraction * CYCLES_PER_REFERENCE) / (
        MISS_PENALTY_CYCLES * (1.0 - fraction)
    )


def check_workload(
    name: str,
    trace_length: int = 100_000,
    workload: Optional[Workload] = None,
    footprint_mb: Optional[float] = None,
) -> CalibrationCheck:
    """Audit one workload against its calibration targets.

    Paper workloads audit against Table 1; modern workloads
    (:mod:`repro.workloads.modern`) against their family's planned
    footprint and miss band, at ``footprint_mb`` (default: the family's
    calibration footprint).
    """
    spec = PAPER_WORKLOADS.get(name)
    family = None
    if spec is None:
        from repro.workloads.modern import MODERN_WORKLOADS

        family = MODERN_WORKLOADS[name]
        spec = family.spec_for(footprint_mb)
    if workload is None:
        workload = load_workload(
            name, trace_length=trace_length,
            footprint_mb=footprint_mb if family is not None else None,
        )
    problems: List[str] = []

    target_pages = spec.table1[4] * 1024 / 24.0
    footprint_ratio = workload.total_mapped_pages() / target_pages
    if abs(footprint_ratio - 1.0) > FOOTPRINT_TOLERANCE:
        problems.append(
            f"footprint off by {100 * (footprint_ratio - 1):+.0f}%"
        )

    measured_mr: Optional[float] = None
    target_mr = (
        implied_miss_ratio(spec.table1[3]) if family is None else None
    )
    if workload.trace is not None and (
        target_mr is not None or family is not None
    ):
        from repro.mmu.simulate import collect_misses
        from repro.mmu.tlb import FullyAssociativeTLB
        from repro.os.translation_map import TranslationMap

        tmap = TranslationMap.from_space(workload.union_space())
        stream = collect_misses(
            workload.trace, FullyAssociativeTLB(64), tmap
        )
        measured_mr = stream.miss_ratio
        if family is not None:
            per_kref = 1000.0 * measured_mr
            low, high = family.miss_band
            if not low <= per_kref <= high:
                problems.append(
                    f"miss intensity {per_kref:.0f}/1k outside the "
                    f"calibration band [{low:g}, {high:g}]"
                )
        else:
            ratio = measured_mr / target_mr
            if not MISS_RATIO_BAND[0] <= ratio <= MISS_RATIO_BAND[1]:
                problems.append(
                    f"miss intensity {ratio:.2f}x the Table 1 target"
                )

    densities = [space.density(512) for space in workload.spaces]
    region_density = sum(densities) / len(densities)
    if spec.density == "dense" and region_density < DENSE_REGION_DENSITY:
        problems.append(
            f"labelled dense but region density is {region_density:.2f}"
        )
    if spec.density == "sparse" and region_density >= SPARSE_REGION_DENSITY:
        problems.append(
            f"labelled sparse but region density is {region_density:.2f}"
        )
    if spec.density == "bursty" and not (
        BURSTY_REGION_DENSITY_BAND[0]
        <= region_density
        < BURSTY_REGION_DENSITY_BAND[1]
    ):
        problems.append(
            f"labelled bursty but region density is {region_density:.2f}"
        )

    return CalibrationCheck(
        name=name,
        footprint_ratio=footprint_ratio,
        miss_ratio=measured_mr,
        target_miss_ratio=target_mr,
        region_density=region_density,
        density_class=spec.density,
        ok=not problems,
        problems=problems,
    )


def audit(
    names: Optional[Sequence[str]] = None,
    trace_length: int = 100_000,
) -> Dict[str, CalibrationCheck]:
    """Audit every (or the named) workload, paper and modern alike."""
    if names is None:
        from repro.workloads.modern import MODERN_WORKLOADS

        names = list(PAPER_WORKLOADS) + list(MODERN_WORKLOADS)
    return {
        name: check_workload(name, trace_length)
        for name in names
    }


def report(checks: Dict[str, CalibrationCheck]) -> ExperimentResult:
    """Render an audit as a result table."""
    rows: List[List] = []
    for check in checks.values():
        rows.append(
            [
                check.name,
                round(check.footprint_ratio, 3),
                round(1000 * check.miss_ratio, 2)
                if check.miss_ratio is not None else None,
                round(1000 * check.target_miss_ratio, 2)
                if check.target_miss_ratio is not None else None,
                round(check.region_density, 2),
                check.density_class,
                "ok" if check.ok else "; ".join(check.problems),
            ]
        )
    return ExperimentResult(
        experiment="Workload calibration audit vs Table 1",
        headers=[
            "workload", "footprint ratio", "misses/1k (sim)",
            "misses/1k (target)", "region density", "class", "verdict",
        ],
        rows=rows,
        notes="Targets derive from Table 1 per DESIGN.md §2 (modern "
        "workloads: from their family's planned footprint and miss "
        f"band, DESIGN.md §5h); tolerances: "
        f"±{int(100 * FOOTPRINT_TOLERANCE)}% footprint, "
        f"{MISS_RATIO_BAND[0]}-{MISS_RATIO_BAND[1]}x miss intensity.",
    )
