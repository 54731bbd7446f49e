"""Single-address-space systems study (§7).

Section 7: the paper's techniques "are equally applicable to single
address space systems, e.g., Opal [Chas94] or MONADS [Rose85] ... Hashed
and clustered page tables are especially suited to single address space
and segmented systems as they tend to have a very sparse but 'bursty'
address space."

This experiment builds that address space: many protection domains place
medium-sized objects anywhere in one shared 64-bit space (sparse at every
tree granularity, bursty at page-block granularity), then sizes every
page table over it across object-count scales.  Expect tree-structured
tables to degrade with scatter while hashed stays flat and clustered
stays flat *and* ~2.5× smaller.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.addr.layout import AddressLayout, DEFAULT_LAYOUT
from repro.addr.space import AddressSpace
from repro.analysis.metrics import normalised_sizes, table_sizes
from repro.experiments.common import ExperimentResult

SERIES = ("linear-6lvl", "linear-1lvl", "forward-mapped", "hashed", "clustered")


def build_global_space(
    objects: int,
    layout: AddressLayout = DEFAULT_LAYOUT,
    min_pages: int = 2,
    max_pages: int = 24,
    seed: int = 23,
    name: str = "sasos",
) -> AddressSpace:
    """One shared 64-bit space: scattered, bursty, medium-sized objects."""
    rng = random.Random(seed)
    space = AddressSpace(layout, name)
    frame = 0
    placed = 0
    while placed < objects:
        npages = rng.randint(min_pages, max_pages)
        base = rng.randrange(0, layout.max_vpn - max_pages - 1)
        if any(space.is_mapped(base + i) for i in range(npages)):
            continue
        for i in range(npages):
            space.map(base + i, frame)
            frame += 1
        placed += 1
    return space


def run(
    object_counts: Sequence[int] = (100, 400, 1600),
    seed: int = 23,
) -> ExperimentResult:
    """Normalised page-table sizes over the shared sparse space."""
    rows: List[List] = []
    for objects in object_counts:
        space = build_global_space(objects, seed=seed)
        sizes = table_sizes([space], names=SERIES)
        norm = normalised_sizes(sizes, "hashed")
        rows.append(
            [
                f"{objects} objects",
                len(space),
                round(space.mean_block_population(), 1),
                *(round(norm[series], 3) for series in SERIES),
            ]
        )
    return ExperimentResult(
        experiment=(
            "Single address space (§7): scattered bursty objects, sizes "
            "vs hashed"
        ),
        headers=["scale", "pages", "pages/block", *SERIES],
        rows=rows,
        notes=(
            "Tree tables pay a 4KB node per touched region at every level "
            "and blow up with scatter; hashed stays 1.0 by construction; "
            "clustered stays flat and smaller because objects are bursty "
            "within page blocks."
        ),
    )
