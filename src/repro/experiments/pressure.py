"""Memory-pressure study: placement decay under low headroom (§7).

Section 7's caveat on all the superpage results: "When physical memory
demand is high, the operating system may not be able to use superpages or
partial-subblocking as effectively as our simulations show."  This
experiment quantifies that: rebuild a workload's address space through
the reservation allocator at decreasing physical-memory headroom, and
report how proper placement, the policy's wide-PTE fraction (fss), and
the clustered table's wide-PTE size advantage decay together.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.addr.layout import DEFAULT_LAYOUT
from repro.core.clustered import ClusteredPageTable
from repro.experiments.common import ExperimentResult
from repro.os.physmem import ReservationAllocator
from repro.os.promotion import DynamicPageSizePolicy
from repro.os.translation_map import TranslationMap
from repro.workloads.suite import PAPER_WORKLOADS, load_workload
from repro.workloads.synthetic import build_address_space


def run(
    workload_name: str = "coral",
    scenarios: Sequence = (
        (2.0, 0.0), (1.5, 0.1), (1.5, 0.3), (1.25, 0.3), (1.1, 0.5),
    ),
    seed: int = 1234,
) -> ExperimentResult:
    """Placement rate, fss, and wide-PTE size under memory pressure.

    Each scenario is ``(headroom, fragmentation)``: headroom is total
    frames over the workload's page demand, and fragmentation is the
    fraction of frames pinned by scattered background pages *before* the
    workload faults in — one pinned page per aligned block, the worst
    case for reservation.  (2.0, 0.0) reproduces the suite's default
    unloaded machine.
    """
    spec = PAPER_WORKLOADS[workload_name]
    if spec.processes != 1:
        raise ValueError(
            "pressure study uses single-process workloads for a clean "
            "frames/demand ratio"
        )
    layout = DEFAULT_LAYOUT
    regions = spec.region_builder(seed)
    estimate = sum(max(1, round(r.npages * r.fill)) for r in regions)
    s = layout.subblock_factor
    # The stochastic fills make the estimate inexact; learn the true
    # demand with one unconstrained build (deterministic given the seed).
    probe = build_address_space(
        regions, layout,
        ReservationAllocator((estimate * 3) // s * s, layout), seed=seed,
    )
    demand = len(probe)

    rows: List[List] = []
    for headroom, fragmentation in scenarios:
        frames = max(s, -(-int(demand * headroom) // s) * s)
        allocator = ReservationAllocator(frames, layout)
        # Background pages pin one frame in as many distinct aligned
        # blocks as the fragmentation fraction demands, destroying that
        # many reservations before the workload arrives.
        pinned_blocks = int((frames // s) * fragmentation)
        background_vpn = 0x8_0000_0000  # far from any workload region
        for i in range(pinned_blocks):
            allocator.allocate(background_vpn + i * s)
        space = build_address_space(
            regions, layout, allocator, seed=seed, name=workload_name
        )
        tmap = TranslationMap.from_space(space, DynamicPageSizePolicy())
        base_table = ClusteredPageTable(layout)
        wide_table = ClusteredPageTable(layout)
        TranslationMap.from_space(space).populate(
            base_table, base_pages_only=True
        )
        tmap.populate(wide_table)
        rows.append(
            [
                f"{headroom:.2f}x/{int(100 * fragmentation)}%frag",
                frames,
                round(allocator.stats.placement_rate, 3),
                round(tmap.wide_fraction(), 3),
                round(wide_table.size_bytes() / base_table.size_bytes(), 3),
            ]
        )
    return ExperimentResult(
        experiment=(
            f"Memory pressure ({workload_name}): placement and wide-PTE "
            "effectiveness vs headroom and fragmentation (§7)"
        ),
        headers=[
            "headroom/frag", "frames", "placement rate", "fss",
            "wide/base table size",
        ],
        rows=rows,
        notes=(
            "As free aligned blocks run out, reservations get stolen, "
            "placement fails, the policy falls back to base PTEs, and the "
            "Figure 10 savings evaporate — §7's warning, quantified."
        ),
    )
