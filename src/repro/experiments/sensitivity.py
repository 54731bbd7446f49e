"""Sensitivity studies the paper discusses but does not plot in full.

Three sweeps, each an ablation of a design choice DESIGN.md calls out:

- **Cache line size** (§6.3 closing): a 144-byte clustered node spans
  multiple 64/128-byte lines, adding ~0.625 / ~0.125 lines per miss for
  subblock factor 16 — eliminated by wide PTEs or smaller factors.
- **Subblock factor** (§3): the memory/chain-length/line-span trade-off
  for s ∈ {2, 4, 8, 16, 32}.
- **Hash bucket count** (§7): load factor α vs empty-bucket memory for
  hashed and clustered tables.

Three more cover TLB geometry, hash quality and shared versus
per-process tables.  Every walk a sweep measures is a
:func:`~repro.experiments.common.replay` of a miss stream: the uniform
probes of the cache-line and bucket sweeps form a stream with no TLB
phase (:meth:`~repro.mmu.simulate.MissStream.all_misses`), and the
private tables replay each process's share of the shared TLB stream.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.addr.layout import AddressLayout
from repro.analysis.metrics import table_sizes
from repro.core.clustered import ClusteredPageTable
from repro.experiments.common import (
    ExperimentResult,
    collect_misses_cached,
    get_workload,
    replay,
    uniform_probes,
)
from repro.mmu.cache_model import CacheModel
from repro.mmu.simulate import MissStream
from repro.mmu.tlb import FullyAssociativeTLB, SetAssociativeTLB
from repro.os.translation_map import TranslationMap
from repro.pagetables.hashed import HashedPageTable, multiplicative_hash
from repro.workloads.suite import PROCESS_VA_STRIDE, load_workload


def cache_line_sweep(
    workload_name: str = "coral",
    line_sizes: Sequence[int] = (64, 128, 256),
    subblock_factors: Sequence[int] = (4, 8, 16),
    probe_count: int = 20_000,
    seed: int = 11,
) -> ExperimentResult:
    """Average lines per lookup for clustered tables across line sizes.

    Probes are uniform over mapped pages, so the per-node line-span effect
    is isolated from chain-length effects.  Expect, for subblock factor 16
    under a near-uniform block-offset mix, roughly +0.6 lines at 64-byte
    lines and +0.1 at 128-byte lines relative to 256-byte lines — the
    §6.3 numbers.
    """
    rows: List[List] = []
    rng = np.random.default_rng(seed)
    for s in subblock_factors:
        layout = AddressLayout(subblock_factor=s)
        workload = load_workload(workload_name, layout=layout, with_trace=False)
        space = workload.union_space()
        tmap = TranslationMap.from_space(space)
        stream = uniform_probes(space, rng, probe_count)
        row: List = [f"s={s}"]
        for line in line_sizes:
            table = ClusteredPageTable(layout, CacheModel(line))
            tmap.populate(table, base_pages_only=True)
            row.append(round(replay(stream, table).lines_per_miss, 3))
        rows.append(row)
    return ExperimentResult(
        experiment=(
            f"Sensitivity: cache line size vs clustered node span "
            f"({workload_name})"
        ),
        headers=["subblock factor", *(f"{line}B lines" for line in line_sizes)],
        rows=rows,
        notes="Uniform random probes over mapped pages; base-page clustered "
        "nodes only (wide PTEs eliminate the span penalty, §6.3).",
    )


def subblock_factor_sweep(
    workload_name: str = "gcc",
    factors: Sequence[int] = (2, 4, 8, 16, 32),
) -> ExperimentResult:
    """Clustered page-table size and node population across factors.

    Larger factors amortise overhead when blocks are full but waste slots
    when they are not (§3's trade-off); sparse workloads favour smaller
    factors or the variable-factor table.
    """
    rows: List[List] = []
    for s in factors:
        layout = AddressLayout(subblock_factor=s)
        workload = load_workload(workload_name, layout=layout, with_trace=False)
        total_pages = workload.total_mapped_pages()
        sizes = table_sizes(
            workload.spaces, ("clustered", "hashed"), layout=layout
        )
        populations = [
            space.mean_block_population() for space in workload.spaces
        ]
        rows.append(
            [
                f"s={s}",
                total_pages,
                sizes["clustered"],
                round(sizes["clustered"] / sizes["hashed"], 3),
                round(sum(populations) / len(populations), 2),
            ]
        )
    return ExperimentResult(
        experiment=f"Sensitivity: subblock factor ({workload_name})",
        headers=[
            "factor", "mapped pages", "clustered B", "vs hashed",
            "mean block population",
        ],
        rows=rows,
        notes="The break-even population for subblock factor 16 is six "
        "mapped pages per block (§3).",
    )


def bucket_count_sweep(
    workload_name: str = "ML",
    bucket_counts: Sequence[int] = (1024, 2048, 4096, 8192, 16384),
    probe_count: int = 20_000,
    seed: int = 13,
) -> ExperimentResult:
    """Load factor vs lookup lines for hashed and clustered tables (§7)."""
    rows: List[List] = []
    rng = np.random.default_rng(seed)
    workload = get_workload(workload_name)
    space = workload.union_space()
    tmap = TranslationMap.from_space(space)
    stream = uniform_probes(space, rng, probe_count)
    for buckets in bucket_counts:
        row: List = [str(buckets)]
        for table in (
            HashedPageTable(space.layout, num_buckets=buckets),
            ClusteredPageTable(space.layout, num_buckets=buckets),
        ):
            tmap.populate(table, base_pages_only=True)
            row.append(round(table.load_factor(), 3))
            row.append(round(replay(stream, table).lines_per_miss, 3))
        rows.append(row)
    return ExperimentResult(
        experiment=f"Sensitivity: hash bucket count ({workload_name})",
        headers=[
            "buckets", "hashed α", "hashed lines", "clustered α",
            "clustered lines",
        ],
        rows=rows,
        notes="Clustered tables keep α (and thus chains) a subblock-factor "
        "lower at equal bucket counts (§3).",
    )


def tlb_geometry_sweep(
    workload_name: str = "gcc",
    trace_length: int = 100_000,
    geometries: Sequence = (
        ("FA-32", None, 32),
        ("FA-64", None, 64),
        ("FA-128", None, 128),
        ("SA-16x4", (16, 4), 64),
        ("SA-32x2", (32, 2), 64),
        ("SA-64x1", (64, 1), 64),
    ),
) -> ExperimentResult:
    """TLB size and associativity vs miss ratio (§6.1 base-case context).

    The paper fixes a 64-entry fully-associative TLB; this sweep shows
    how sensitive the miss counts are to that choice — set-associative
    designs of equal capacity miss more through conflicts, and capacity
    dominates once the working set exceeds reach.
    """
    workload = load_workload(workload_name, trace_length=trace_length)
    tmap = TranslationMap.from_space(workload.union_space())
    rows: List[List] = []
    for label, sets_ways, entries in geometries:
        if sets_ways is None:
            tlb = FullyAssociativeTLB(entries)
        else:
            tlb = SetAssociativeTLB(num_sets=sets_ways[0], ways=sets_ways[1])
        stream = collect_misses_cached(workload.trace, tlb, tmap)
        rows.append(
            [label, entries, stream.misses,
             round(1000.0 * stream.miss_ratio, 2)]
        )
    return ExperimentResult(
        experiment=f"Sensitivity: TLB geometry ({workload_name})",
        headers=["TLB", "entries", "misses", "misses/1k refs"],
        rows=rows,
        notes="Equal-capacity set-associative TLBs add conflict misses "
        "over the paper's fully-associative base case.",
    )


def hash_quality_sweep(
    workload_name: str = "ML",
    num_buckets: int = 1024,
) -> ExperimentResult:
    """Chain-length distribution per hash function (§7's unpredictability).

    §7: "A disadvantage of hashed and clustered page tables is the
    unpredictability of the hash table distribution".  This sweep builds
    the same workload's hashed and clustered tables under three hash
    functions and reports mean and worst chain lengths — the worst chain
    bounds the worst-case TLB miss.
    """
    def modulo_hash(tag: int, buckets: int) -> int:
        return tag % buckets

    def xor_fold_hash(tag: int, buckets: int) -> int:
        folded = tag ^ (tag >> 13) ^ (tag >> 29)
        return folded % buckets

    hash_functions = (
        ("fibonacci", multiplicative_hash),
        ("modulo", modulo_hash),
        ("xor-fold", xor_fold_hash),
    )
    workload = load_workload(workload_name, with_trace=False)
    tmap = TranslationMap.from_space(workload.union_space())
    rows: List[List] = []
    for label, hash_fn in hash_functions:
        hashed = HashedPageTable(
            workload.layout, num_buckets=num_buckets, hash_fn=hash_fn
        )
        clustered = ClusteredPageTable(
            workload.layout, num_buckets=num_buckets, hash_fn=hash_fn
        )
        tmap.populate(hashed, base_pages_only=True)
        tmap.populate(clustered, base_pages_only=True)
        h_chains = hashed.chain_lengths()
        c_chains = clustered.chain_lengths()
        rows.append(
            [
                label,
                round(sum(h_chains) / len(h_chains), 2),
                max(h_chains),
                round(sum(c_chains) / len(c_chains), 2),
                max(c_chains),
            ]
        )
    return ExperimentResult(
        experiment=(
            f"Sensitivity: hash function quality ({workload_name}, "
            f"{num_buckets} buckets)"
        ),
        headers=[
            "hash", "hashed mean chain", "hashed max chain",
            "clustered mean chain", "clustered max chain",
        ],
        rows=rows,
        notes=(
            "§7's unpredictability concern: a weak hash inflates the "
            "worst chain (the worst-case miss); clustering keeps chains "
            "a subblock-factor shorter under any hash."
        ),
    )


def shared_vs_private_tables(
    workload_name: str = "gcc",
    trace_length: int = 100_000,
    num_buckets: int = 4096,
) -> ExperimentResult:
    """Per-process page tables vs one shared table (§7's last suggestion).

    §7: "One solution [to hash unpredictability] is to use a per-process
    or per-process group page table instead of a single shared page
    table."  Multiprogrammed workloads (disjoint VA slices) let both be
    measured: shared tables pay higher load factors and cross-process
    chain interference; private tables pay one bucket array per process.
    """
    workload = load_workload(workload_name, trace_length=trace_length)
    union_map = TranslationMap.from_space(workload.union_space())
    stream = collect_misses_cached(
        workload.trace, FullyAssociativeTLB(64), union_map
    )
    # Each miss walks its owner's private table, whose contents (disjoint
    # VAs) it would find identically: one sub-stream per owner.
    owners = stream.vpns // PROCESS_VA_STRIDE
    owned = [
        MissStream.all_misses(
            stream.vpns[owners == owner], f"{stream.trace_name}/p{owner}",
            stream.tlb_description,
        )
        for owner in range(len(workload.spaces))
    ]

    rows: List[List] = []
    for label, factory in (
        ("hashed", lambda: HashedPageTable(
            workload.layout, num_buckets=num_buckets,
            count_bucket_array=True)),
        ("clustered", lambda: ClusteredPageTable(
            workload.layout, num_buckets=num_buckets,
            count_bucket_array=True)),
    ):
        # Shared: one table holds every process's PTEs.
        shared = factory()
        union_map.populate(shared, base_pages_only=True)
        shared_lines = replay(stream, shared).lines_per_miss

        # Private: one table per process, each replaying its owner's misses.
        private_lines_total = 0
        private_bytes = 0
        for space, misses in zip(workload.spaces, owned):
            table = factory()
            TranslationMap.from_space(space).populate(
                table, base_pages_only=True
            )
            private_bytes += table.size_bytes()
            private_lines_total += replay(misses, table).cache_lines
        private_lines = private_lines_total / max(1, stream.misses)
        rows.append(
            [
                label,
                round(shared_lines, 3),
                shared.size_bytes(),
                round(private_lines, 3),
                private_bytes,
            ]
        )
    return ExperimentResult(
        experiment=(
            f"Sensitivity: shared vs per-process page tables "
            f"({workload_name})"
        ),
        headers=[
            "table", "shared lines/miss", "shared bytes",
            "private lines/miss", "private bytes",
        ],
        rows=rows,
        notes=(
            "Private tables isolate each process's hash distribution at "
            "the cost of one bucket array per process (§7); sizes here "
            "include bucket arrays to expose that trade-off."
        ),
    )
