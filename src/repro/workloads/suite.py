"""The paper's ten workloads (plus the kernel), synthesised (§6.2, Table 1).

Each workload is calibrated on two axes:

- **Footprint** — the mapped-page count implied by Table 1's hashed-page-
  table memory column (hashed PTEs are 24 bytes, so coral's 119 KB means
  ≈ 5077 mapped pages), and
- **Shape** — the qualitative address-space structure and reference
  pattern the paper describes: coral/ML/kernel dense, gcc/compress sparse
  and multiprogrammed, the scientific codes dominated by large arrays
  swept or strided.

Absolute execution times and miss counts are *not* reproduced (our traces
are scaled down ~100×); the quantities the figures consume — density,
burstiness, per-PTE-format miss mix, relative miss rates — are.

Multiprogrammed workloads place each constituent process in a disjoint
slice of the 64-bit VA so one trace (with context-switch flush points) can
drive a shared TLB; page-table sizes are summed over per-process tables,
as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.addr.layout import AddressLayout, DEFAULT_LAYOUT, MB
from repro.addr.space import AddressSpace
from repro.errors import ConfigurationError
from repro.os.physmem import ReservationAllocator
from repro.workloads.synthetic import (
    RegionSpec,
    build_address_space,
    phased_trace,
    pointer_chase_trace,
    stride_trace,
    sweep_trace,
    working_set_trace,
)
from repro.workloads.trace import Trace

#: VA slice (in pages) given to each process of a multiprogrammed workload.
PROCESS_VA_STRIDE = 1 << 24  # 64 GB of virtual space per process

#: Default reference-trace length per workload.
DEFAULT_TRACE_LENGTH = 300_000


@dataclass(frozen=True)
class WorkloadSpec:
    """Static description of one paper workload.

    ``table1`` records the paper's measured characteristics for
    EXPERIMENTS.md comparisons: (total seconds, user seconds, user TLB
    misses in thousands, % user time in miss handling, hashed page table
    KB).
    """

    name: str
    description: str
    processes: int
    density: str  # "dense" | "bursty" | "sparse" (reporting only)
    table1: Tuple[float, float, int, int, int]
    region_builder: Callable[[int], List[RegionSpec]]
    trace_builder: Callable[["Workload", int, int], Trace]


@dataclass
class Workload:
    """A realised workload: per-process address spaces plus a trace."""

    spec: WorkloadSpec
    layout: AddressLayout
    spaces: List[AddressSpace]
    trace: Optional[Trace] = None

    @property
    def name(self) -> str:
        """Workload name (Table 1 row label)."""
        return self.spec.name

    def total_mapped_pages(self) -> int:
        """Mapped pages summed over constituent processes."""
        return sum(len(space) for space in self.spaces)

    def union_space(self) -> AddressSpace:
        """All processes' mappings in one space (VAs are disjoint).

        Used for access-time simulation against a single shared page
        table; size experiments use per-process tables instead.
        """
        union = AddressSpace(self.layout, f"{self.name}-union")
        for space in self.spaces:
            for vpn, mapping in space.items():
                union.map(vpn, mapping.ppn, mapping.attrs)
        return union


def _offset(regions: Sequence[RegionSpec], pages: int) -> List[RegionSpec]:
    return [
        RegionSpec(r.name, r.base_vpn + pages, r.npages, r.fill, r.clustered_fill)
        for r in regions
    ]


# ---------------------------------------------------------------------------
# Region recipes.  Base VPNs imitate a SPARC/Solaris-style layout: text low,
# heap above it, mmaps in the middle, stack high.
# ---------------------------------------------------------------------------
_TEXT = 0x00100
_HEAP = 0x08000
_MMAP = 0x40000
_STACK = 0xFF000


def _coral_regions(seed: int) -> List[RegionSpec]:
    # Deductive DB running a nested-loop join: two big, dense relations
    # plus index structures.  Dense address space (Fig 9 discussion).
    return [
        RegionSpec("text", _TEXT, 72),
        RegionSpec("data", _TEXT + 96, 96),
        RegionSpec("relation-outer", _HEAP, 2288),
        RegionSpec("relation-inner", _HEAP + 2560, 2288),
        RegionSpec("index", _MMAP, 320, fill=0.95),
        RegionSpec("stack", _STACK, 16),
    ]


def _nasa7_regions(seed: int) -> List[RegionSpec]:
    # Seven small numeric kernels over a couple of dense matrices.
    return [
        RegionSpec("text", _TEXT, 48),
        RegionSpec("matrix-a", _HEAP, 416),
        RegionSpec("matrix-b", _HEAP + 512, 416),
        RegionSpec("stack", _STACK, 16),
    ]


def _compress_proc_regions(seed: int) -> List[RegionSpec]:
    # One compress process: small text, dense hash tables, an I/O buffer,
    # plus a few scattered tiny mmaps (sparse overall).
    return [
        RegionSpec("text", _TEXT, 24),
        RegionSpec("tables", _HEAP, 96),
        RegionSpec("iobuf", _MMAP, 40, fill=0.8),
        RegionSpec("libs", _MMAP + 4096, 8, fill=0.75, clustered_fill=False),
        RegionSpec("libs2", _MMAP + 12288, 8, fill=0.75, clustered_fill=False),
        RegionSpec("stack", _STACK, 8),
    ]


def _fftpde_regions(seed: int) -> List[RegionSpec]:
    # 64x64x64 complex grid: three big dense arrays.
    return [
        RegionSpec("text", _TEXT, 24),
        RegionSpec("grid-a", _HEAP, 1240),
        RegionSpec("grid-b", _HEAP + 1536, 1240),
        RegionSpec("grid-c", _HEAP + 3072, 1240),
        RegionSpec("stack", _STACK, 12),
    ]


def _wave5_regions(seed: int) -> List[RegionSpec]:
    return [
        RegionSpec("text", _TEXT, 96),
        RegionSpec("particles", _HEAP, 1792),
        RegionSpec("fields", _HEAP + 2048, 1696),
        RegionSpec("stack", _STACK, 12),
    ]


def _mp3d_regions(seed: int) -> List[RegionSpec]:
    return [
        RegionSpec("text", _TEXT, 32),
        RegionSpec("particles", _HEAP, 1104),
        RegionSpec("cells", _HEAP + 1280, 88),
        RegionSpec("stack", _STACK, 12),
    ]


def _spice_regions(seed: int) -> List[RegionSpec]:
    # Circuit simulation: moderately bursty sparse-matrix storage.
    return [
        RegionSpec("text", _TEXT, 208),
        RegionSpec("matrix", _HEAP, 760, fill=0.82),
        RegionSpec("models", _MMAP, 128, fill=0.75),
        RegionSpec("stack", _STACK, 12),
    ]


def _pthor_regions(seed: int) -> List[RegionSpec]:
    # Logic simulator: many medium element arrays, bursty.
    regions = [RegionSpec("text", _TEXT, 88)]
    base = _HEAP
    for i in range(21):
        regions.append(
            RegionSpec(f"elements-{i}", base, 192, fill=0.95)
        )
        base += 224
    regions.append(RegionSpec("stack", _STACK, 12))
    return regions


def _ml_regions(seed: int) -> List[RegionSpec]:
    # SML/NJ GC stress: two large semispaces plus runtime.
    return [
        RegionSpec("text", _TEXT, 152),
        RegionSpec("from-space", _HEAP, 3840),
        RegionSpec("to-space", _HEAP + 4096, 3840),
        RegionSpec("runtime", _MMAP, 448, fill=0.9),
        RegionSpec("stack", _STACK, 16),
    ]


def _gcc_proc_regions(process: int) -> List[RegionSpec]:
    if process == 0:
        # cc1: the big process; moderately bursty heap.
        return [
            RegionSpec("text", _TEXT, 304),
            RegionSpec("heap", _HEAP, 760, fill=0.88),
            RegionSpec("obstacks", _MMAP, 272, fill=0.85),
            RegionSpec("stack", _STACK, 16),
        ]
    # make / sh / script: small, sparse helpers with scattered mmaps.
    regions = [
        RegionSpec("text", _TEXT, 24, fill=0.8),
        RegionSpec("heap", _HEAP, 40, fill=0.55, clustered_fill=False),
        RegionSpec("stack", _STACK, 6),
    ]
    base = _MMAP + process * 512
    for i in range(4):
        regions.append(
            RegionSpec(
                f"lib-{i}", base + i * 4096, 6, fill=0.5, clustered_fill=False
            )
        )
    return regions


def _kernel_regions(seed: int) -> List[RegionSpec]:
    # Kernel address space: large dense text/data plus many vmalloc-style
    # medium regions.  Dense per the Fig 9 discussion.
    regions = [
        RegionSpec("ktext", _TEXT, 512),
        RegionSpec("kdata", _HEAP, 3264),
    ]
    base = _MMAP
    for i in range(120):
        regions.append(RegionSpec(f"kmap-{i}", base, 36, fill=0.97))
        base += 64
    return regions


# ---------------------------------------------------------------------------
# Trace recipes
# ---------------------------------------------------------------------------
def _stride_style(stride: int, repeat: int = 1):
    def build(workload: Workload, length: int, seed: int) -> Trace:
        return stride_trace(
            workload.spaces[0], length, stride_pages=stride,
            name=workload.name, repeat=repeat,
        )

    return build


def _working_set_style(ws: int, churn: float = 0.002, locality: float = 1.2):
    def build(workload: Workload, length: int, seed: int) -> Trace:
        return working_set_trace(
            workload.spaces[0], length, working_set_pages=ws, churn=churn,
            locality=locality, seed=seed, name=workload.name,
        )

    return build


def _mp3d_style(workload: Workload, length: int, seed: int) -> Trace:
    # Random particle access, ~10 field references per particle page.
    return pointer_chase_trace(
        workload.spaces[0], length, hot_fraction=0.9, seed=seed,
        name=workload.name, repeat=10,
    )


def _ml_style(workload: Workload, length: int, seed: int) -> Trace:
    # Mutator working-set phases interleaved with full-heap GC sweeps;
    # the collector touches every object on a page (~32 refs/page), the
    # mutator allocates within a hot nursery.
    space = workload.spaces[0]
    phase_len = length // 4
    mutator = working_set_trace(
        space, phase_len, working_set_pages=90, churn=0.002,
        locality=1.4, seed=seed, name="mutator",
    )
    collector = sweep_trace(space, phase_len, name="gc", repeat=48)
    mutator2 = working_set_trace(
        space, phase_len, working_set_pages=90, churn=0.002,
        locality=1.4, seed=seed + 1, name="mutator2",
    )
    collector2 = sweep_trace(space, length - 3 * phase_len, name="gc2", repeat=48)
    return phased_trace(
        [mutator, collector, mutator2, collector2], name=workload.name
    )


def _coral_style(workload: Workload, length: int, seed: int) -> Trace:
    # Nested-loop join: repeated full sweeps of the inner relation with a
    # slow walk of the outer — sweep-dominated with very poor TLB reuse.
    space = workload.spaces[0]
    inner = sweep_trace(
        space, (3 * length) // 4, name="inner", segment_names=["relation-inner"]
    )
    outer = working_set_trace(
        space, length - len(inner), working_set_pages=900, churn=0.001,
        seed=seed, name="outer",
    )
    mixed = Trace.interleave([inner, outer], quantum=2048, name=workload.name)
    # Single process: the phase interleaving must not flush the TLB.
    return Trace(mixed.vpns, name=workload.name,
                 subblock_factor=mixed.subblock_factor)


def _multiproc_style(per_proc_style, quantum: int = 25_000):
    def build(workload: Workload, length: int, seed: int) -> Trace:
        per = max(1, length // len(workload.spaces))
        traces = []
        for i, space in enumerate(workload.spaces):
            single = Workload(workload.spec, workload.layout, [space])
            traces.append(per_proc_style(single, per, seed + i))
        return Trace.interleave(traces, quantum=quantum, name=workload.name)

    return build


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------
def _spec(
    name: str,
    description: str,
    density: str,
    table1: Tuple[float, float, int, int, int],
    region_builder: Callable[[int], List[RegionSpec]],
    trace_builder,
    processes: int = 1,
) -> WorkloadSpec:
    return WorkloadSpec(
        name=name, description=description, processes=processes,
        density=density, table1=table1, region_builder=region_builder,
        trace_builder=trace_builder,
    )


PAPER_WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in [
        _spec(
            "coral", "deductive database, nested loop join", "dense",
            (177, 172, 85_974, 50, 119), _coral_regions, _coral_style,
        ),
        _spec(
            "nasa7", "NASA numeric kernels (SPEC92)", "dense",
            (387, 385, 152_357, 40, 21), _nasa7_regions, _stride_style(7, repeat=2),
        ),
        _spec(
            "compress", "SPEC92 compress, two processes", "sparse",
            (104, 82, 21_347, 26, 8), _compress_proc_regions,
            _multiproc_style(_working_set_style(290, churn=0.01, locality=0.8)),
            processes=2,
        ),
        _spec(
            "fftpde", "NAS 3-D FFT PDE, 64^3 grid", "dense",
            (55, 53, 11_280, 21, 88), _fftpde_regions, _stride_style(16, repeat=5),
        ),
        _spec(
            "wave5", "SPEC92 plasma simulation", "dense",
            (110, 107, 14_511, 14, 86), _wave5_regions, _stride_style(5, repeat=8),
        ),
        _spec(
            "mp3d", "SPLASH rarefied-flow simulation", "dense",
            (36, 36, 4_050, 11, 29), _mp3d_regions, _mp3d_style,
        ),
        _spec(
            "spice", "SPEC92 circuit simulator", "bursty",
            (620, 617, 41_922, 7, 22), _spice_regions,
            _working_set_style(150, churn=0.003, locality=1.5),
        ),
        _spec(
            "pthor", "SPLASH logic simulator", "bursty",
            (48, 35, 2_580, 7, 92), _pthor_regions,
            _working_set_style(260, churn=0.004, locality=1.5),
        ),
        _spec(
            "ML", "SML/NJ garbage-collector stress", "dense",
            (950, 919, 38_423, 4, 194), _ml_regions, _ml_style,
        ),
        _spec(
            "gcc", "SPEC92 gcc with make/sh/script helpers", "sparse",
            (159, 133, 2_440, 2, 34), _gcc_proc_regions,
            _multiproc_style(_working_set_style(150, churn=0.004, locality=1.5)),
            processes=5,
        ),
        _spec(
            "kernel", "kernel address space (size snapshot only)", "dense",
            (0, 0, 0, 0, 186), _kernel_regions, None,
        ),
    ]
}


def load_workload(
    name: str,
    layout: AddressLayout = DEFAULT_LAYOUT,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    seed: int = 1234,
    with_trace: bool = True,
    footprint_mb: Optional[float] = None,
) -> Workload:
    """Build one calibrated workload: address space(s) and trace.

    ``kernel`` has no trace (it only appears in the size figures); pass
    ``with_trace=False`` to skip trace generation for any workload.

    ``name`` may be a paper workload (Table 1) or a modern production
    model from :mod:`repro.workloads.modern`; ``footprint_mb`` selects
    the footprint of a modern family member (the paper workloads are
    pinned to their Table 1 footprints, so it is rejected for them).
    """
    spec = PAPER_WORKLOADS.get(name)
    if spec is not None and footprint_mb is not None:
        raise ConfigurationError(
            f"workload {name!r} is calibrated to its Table 1 footprint; "
            "footprint_mb applies only to modern workloads"
        )
    if spec is None:
        from repro.workloads.modern import MODERN_WORKLOADS

        family = MODERN_WORKLOADS.get(name)
        if family is None:
            raise ConfigurationError(
                f"unknown workload {name!r}; known: "
                f"{sorted(PAPER_WORKLOADS) + sorted(MODERN_WORKLOADS)}"
            )
        spec = family.spec_for(footprint_mb)
    spaces: List[AddressSpace] = []
    for process in range(spec.processes):
        if spec.processes > 1:
            regions = spec.region_builder(process)
            regions = _offset(regions, process * PROCESS_VA_STRIDE)
        else:
            regions = spec.region_builder(seed)
        demand = sum(max(1, int(round(r.npages * r.fill))) for r in regions)
        s = layout.subblock_factor
        allocator = ReservationAllocator(
            max(s, ((demand * 2) // s + 2) * s), layout
        )
        spaces.append(
            build_address_space(
                regions, layout, allocator, seed=seed + process * 7,
                name=f"{name}-p{process}",
            )
        )
    workload = Workload(spec=spec, layout=layout, spaces=spaces)
    if with_trace and spec.trace_builder is not None:
        workload.trace = spec.trace_builder(workload, trace_length, seed)
    return workload

