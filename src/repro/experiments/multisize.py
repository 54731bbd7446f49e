"""Multi-size study: two clustered tables vs five hashed tables (§7).

Section 7 claims that two clustered page tables suffice for every page
size between 4 KB and 1 MB, where conventional designs need one table per
page size (five for the MIPS R4000's sizes up to 1 MB).  This experiment
builds a synthetic address space mixing objects of all five sizes,
stores it in both configurations, and measures page-table memory plus the
average walk cost over a probe mix proportional to each size's pages.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

import numpy as np

from repro.addr.layout import AddressLayout, DEFAULT_LAYOUT
from repro.core.multisize import (
    MultiSizeClusteredPageTables,
    R4000_PAGE_SIZES,
    conventional_multisize,
)
from repro.experiments.common import ExperimentResult, replay
from repro.mmu.simulate import MissStream

#: Object mix: (page size in base pages, object count).  Weighted toward
#: small sizes, as real address spaces are.  Size-1 entries are *runs* of
#: 6-16 consecutive base pages (the paper's "bursty" occupancy, §3), not
#: isolated pages.
DEFAULT_MIX: Tuple[Tuple[int, int], ...] = (
    (1, 60), (4, 80), (16, 40), (64, 10), (256, 3),
)


def build_tables(
    layout: AddressLayout = DEFAULT_LAYOUT,
    mix: Sequence[Tuple[int, int]] = DEFAULT_MIX,
    seed: int = 17,
):
    """Create both configurations holding an identical multi-size space.

    Returns ``(two_clustered, five_hashed, probe_vpns)``.
    """
    rng = random.Random(seed)
    clustered = MultiSizeClusteredPageTables(layout)
    hashed = conventional_multisize(layout)
    probe_vpns: List[int] = []
    used: set = set()
    next_frame = 0
    for npages, count in mix:
        for _ in range(count):
            # Aligned, non-overlapping placement anywhere in the VA.
            while True:
                base = rng.randrange(0, 1 << 40) * 256
                base = base - base % npages
                span = range(base // 256, base // 256 + max(1, npages // 256) + 1)
                if not any(block in used for block in span):
                    used.update(span)
                    break
            frame = next_frame - next_frame % npages + npages
            next_frame = frame + npages
            if npages == 1:
                # A bursty run of base pages within one region.
                run = rng.randint(6, 16)
                for i in range(run):
                    clustered.insert(base + i, frame + i)
                    hashed.insert(base + i, frame + i)
                next_frame = frame + run
                probe_vpns.extend(
                    base + rng.randrange(run) for _ in range(4)
                )
                continue
            clustered.insert_superpage(base, npages, frame)
            hashed.insert_superpage(base, npages, frame)
            probe_vpns.extend(
                base + rng.randrange(npages) for _ in range(max(1, npages // 4))
            )
    return clustered, hashed, probe_vpns


def run(
    mix: Sequence[Tuple[int, int]] = DEFAULT_MIX,
    probe_rounds: int = 8,
    seed: int = 17,
) -> ExperimentResult:
    """Compare the §7 configurations on size and walk cost."""
    clustered, hashed, probe_vpns = build_tables(mix=mix, seed=seed)
    rng = np.random.default_rng(seed)
    vpns = np.repeat(np.asarray(probe_vpns, dtype=np.int64), probe_rounds)
    probes = MissStream.all_misses(
        rng.permutation(vpns), "multi-size-mix",
        "probes by page population (no TLB phase)",
    )
    rows = [
        [
            "two-clustered (§7)",
            2,
            clustered.size_bytes(),
            round(replay(probes, clustered).lines_per_miss, 3),
        ],
        [
            "five-hashed (per size)",
            len(R4000_PAGE_SIZES),
            hashed.size_bytes(),
            round(replay(probes, hashed).lines_per_miss, 3),
        ],
    ]
    return ExperimentResult(
        experiment="Multi-size page tables: 4KB-1MB objects (§7)",
        headers=["configuration", "tables", "bytes", "lines/lookup"],
        rows=rows,
        notes=(
            "Identical mappings in both configurations; probes drawn "
            "proportionally to each size's page population.  Expect the "
            "two-clustered configuration to need fewer tables, less "
            "memory, and fewer lines per walk (hashed pays one probe per "
            "table searched before the owning one)."
        ),
    )
