"""Shared experiment infrastructure: caching, TLB factories, normalisation.

Workload construction and phase-1 TLB simulation are costly, and several
figures need the same artefacts.  This module memoises workloads,
translation maps (one per page-size policy) and miss streams behind
small keyed caches so ``runner.run_all`` pays for each (workload, TLB
configuration) pair once.  Page tables are not memoised: a replay given
its table's map (:func:`replay` with ``tmap``) builds no object table
under the batch engine, whose kernel comes straight from the map's PTE
columns.  A persistent on-disk layer
(:mod:`repro.cache.stream_cache`, enabled via
:func:`configure_stream_cache`) extends that across processes and runs:
parallel workers share artefacts, and repeat invocations skip phase 1
entirely.

Phase 2 has one door: every walk an experiment measures is a
:func:`replay` or :func:`replay_many` of a miss stream (a TLB's, or a
probe stream with no TLB phase from
:meth:`~repro.mmu.simulate.MissStream.all_misses`), and both run the
active engine through :func:`engine_replay`, which counts each replay
in ``engine.replays`` and each batch refusal in ``engine.fallback``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.addr.space import AddressSpace
from repro.analysis.report import render_table
from repro.cache.stream_cache import StreamCache, stream_cache_key
from repro.obs.metrics import get_registry
from repro.obs.spans import record_span
from repro.mmu.simulate import MissStream, collect_misses
from repro.workloads.trace import Trace
from repro.mmu.subblock_tlb import CompleteSubblockTLB, PartialSubblockTLB
from repro.mmu.superpage_tlb import SuperpageTLB
from repro.mmu.tlb import BaseTLB, FullyAssociativeTLB
from repro.os.promotion import DynamicPageSizePolicy
from repro.os.translation_map import TranslationMap
from repro.workloads.suite import Workload, load_workload

#: The paper's base TLB size, and the linear-table variant that reserves
#: eight entries for nested translations (§6.1).
TLB_ENTRIES = 64
RESERVED_ENTRIES = 8
LINEAR_TLB_ENTRIES = TLB_ENTRIES - RESERVED_ENTRIES

#: Workloads with reference traces (kernel is size-only).
TRACED_WORKLOADS = (
    "coral", "nasa7", "compress", "fftpde", "wave5", "mp3d", "spice",
    "pthor", "ML", "gcc",
)
#: Workloads appearing in the size figures.
SIZE_WORKLOADS = TRACED_WORKLOADS + ("kernel",)


@dataclass
class ExperimentResult:
    """A reproduced table or figure, ready for rendering and assertions."""

    experiment: str
    headers: List[str]
    rows: List[List]
    notes: str = ""
    #: A celled experiment's cell records, in sweep order (the rows are
    #: derived from them); ``None`` for every other experiment.
    records: Optional[List[Dict[str, object]]] = None

    def render(self, precision: int = 2) -> str:
        """Paper-style text rendering."""
        text = render_table(self.headers, self.rows, title=self.experiment,
                            precision=precision)
        if self.notes:
            text += f"\n\n{self.notes}"
        return text

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe form (exports, journal entries); no records."""
        return {
            "experiment": self.experiment,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "ExperimentResult":
        """Rebuild an :meth:`as_dict` form; renders byte-identically."""
        return cls(
            experiment=str(doc["experiment"]),
            headers=list(doc["headers"]),
            rows=[list(row) for row in doc["rows"]],
            notes=str(doc.get("notes", "")),
        )

    def by_label(self) -> Dict[str, List]:
        """Rows keyed by their first column."""
        return {row[0]: row[1:] for row in self.rows}

    def column(self, header: str) -> Dict[str, object]:
        """One column keyed by row label."""
        index = self.headers.index(header)
        return {row[0]: row[index] for row in self.rows}


# ---------------------------------------------------------------------------
# TLB factories (fresh instance per simulation run)
# ---------------------------------------------------------------------------
def single_page_tlb(entries: int = TLB_ENTRIES) -> FullyAssociativeTLB:
    """Figure 11a hardware: single-page-size, fully associative."""
    return FullyAssociativeTLB(entries)


def superpage_tlb(entries: int = TLB_ENTRIES) -> SuperpageTLB:
    """Figure 11b hardware: 4 KB + 64 KB page sizes."""
    return SuperpageTLB(entries, page_sizes=(1, 16))


def partial_subblock_tlb(entries: int = TLB_ENTRIES) -> PartialSubblockTLB:
    """Figure 11c hardware: subblock factor 16, single PPN per entry."""
    return PartialSubblockTLB(entries, subblock_factor=16)


def complete_subblock_tlb(entries: int = TLB_ENTRIES) -> CompleteSubblockTLB:
    """Figure 11d hardware: subblock factor 16, PPN per subblock."""
    return CompleteSubblockTLB(entries, subblock_factor=16)


TLB_FACTORIES: Dict[str, Callable[[int], BaseTLB]] = {
    "single": single_page_tlb,
    "superpage": superpage_tlb,
    "partial-subblock": partial_subblock_tlb,
    "complete-subblock": complete_subblock_tlb,
}


# ---------------------------------------------------------------------------
# Policies per figure
# ---------------------------------------------------------------------------
def policy_for(tlb_kind: str) -> Optional[DynamicPageSizePolicy]:
    """Page-size policy matching each TLB architecture.

    Single-page-size and complete-subblock systems need no page-table
    support (base PTEs only); superpage TLBs get superpage PTEs; partial-
    subblock TLBs get both wide formats.
    """
    if tlb_kind in ("single", "complete-subblock"):
        return None
    if tlb_kind == "superpage":
        return DynamicPageSizePolicy(enable_subblocks=False)
    return DynamicPageSizePolicy()


# ---------------------------------------------------------------------------
# Replay engine selection (process-wide)
# ---------------------------------------------------------------------------
#: Recognised phase-2 replay engines.
ENGINES = ("scalar", "batch")

#: The active engine; experiments replay through :func:`replay` so one
#: process-wide switch covers every figure.  The runner/CLI configure
#: this; worker processes configure their own from the same flag.
_ENGINE = "scalar"


def configure_engine(engine: str) -> str:
    """Select the phase-2 replay engine (``scalar`` or ``batch``)."""
    from repro.errors import ConfigurationError

    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown replay engine {engine!r}; known: {ENGINES}"
        )
    global _ENGINE
    _ENGINE = engine
    return _ENGINE


def active_engine() -> str:
    """The currently selected replay engine."""
    return _ENGINE


def engine_replay(
    batch: Callable, scalar: Callable, stream, table, **kwargs
):
    """One phase-2 replay of ``stream`` against ``table``, through the
    active engine.

    Under the batch engine ``batch(stream, table, **kwargs)`` runs.  An
    input it cannot reproduce exactly raises
    :class:`~repro.mmu.batch_kernels.BatchUnsupportedError` before any
    stats are touched; the refusal is counted in
    ``engine.fallback{table,reason}`` and ``scalar(stream, table,
    **kwargs)`` takes over, so ``--engine batch`` changes speed, never
    results.  Each call is counted once in ``engine.replays{engine,
    table}`` under the engine that produced its result.  :func:`replay`,
    :func:`replay_many` and the NUMA sweep share this step, and every
    walk an experiment measures passes through one of them.
    """
    engine = _ENGINE
    if engine == "batch":
        from repro.mmu.batch_kernels import BatchUnsupportedError

        try:
            result = batch(stream, table, **kwargs)
        except BatchUnsupportedError as refused:
            get_registry().inc(
                "engine.fallback", table=table.name, reason=str(refused)
            )
            engine = "scalar"
    if engine == "scalar":
        result = scalar(stream, table, **kwargs)
    get_registry().inc("engine.replays", engine=engine, table=table.name)
    return result


def uniform_probes(
    space: AddressSpace, rng: np.random.Generator, count: int
) -> MissStream:
    """``count`` uniform random probes over a space's mapped pages, drawn
    from the numpy ``rng``: a probe stream with no TLB phase."""
    mapped = np.asarray(space.vpns(), dtype=np.int64)
    return MissStream.all_misses(
        rng.choice(mapped, size=count), f"{space.name}-uniform",
        "uniform probes over mapped pages (no TLB phase)",
    )


def replay(
    stream: MissStream,
    table,
    complete_subblock: bool = False,
    tmap: Optional[TranslationMap] = None,
    base_pages_only: bool = False,
):
    """Phase 2 through the active engine (see :func:`engine_replay`).

    With ``tmap``, ``table`` is a fresh, empty table and the map is its
    contents.  The batch engine then builds the walk kernel straight
    from the map (:func:`~repro.mmu.batch_kernels.compile_kernel`) and
    never populates the table; the scalar engine, the batch engine's
    fallback included, first runs ``tmap.populate(table,
    base_pages_only)``.
    """
    from repro.mmu.batch import replay_misses_batch
    from repro.mmu.simulate import replay_misses

    if tmap is None:
        return engine_replay(
            replay_misses_batch, replay_misses, stream, table,
            complete_subblock=complete_subblock,
        )
    return engine_replay(
        _replay_map_batch, _replay_map_scalar, stream, table,
        complete_subblock=complete_subblock, tmap=tmap,
        base_pages_only=base_pages_only,
    )


def _replay_map_batch(
    stream: MissStream, table, complete_subblock: bool,
    tmap: TranslationMap, base_pages_only: bool,
):
    """The batch replay of an empty table whose contents are ``tmap``."""
    from repro.mmu.batch import replay_misses_batch
    from repro.mmu.batch_kernels import compile_kernel

    kernel = compile_kernel(table, tmap, base_pages_only)
    return replay_misses_batch(
        stream, table, complete_subblock=complete_subblock, _kernel=kernel
    )


def _replay_map_scalar(
    stream: MissStream, table, complete_subblock: bool,
    tmap: TranslationMap, base_pages_only: bool,
):
    """The scalar replay of ``table`` once ``tmap`` is written into it."""
    from repro.mmu.simulate import replay_misses

    tmap.populate(table, base_pages_only=base_pages_only)
    return replay_misses(stream, table, complete_subblock=complete_subblock)


def replay_many(
    streams: Sequence[MissStream], table, complete_subblock: bool = False
) -> List:
    """Phase 2 for a batch of streams against one immutable table.

    Same results as ``[replay(s, table) for s in streams]``, but under
    the batch engine the walk kernel is compiled once for the whole
    batch instead of once per stream — the difference between O(tenants
    × table entries) and O(table entries) of Python when the tenancy
    scheduler replays thousands of per-tenant slices per slot.
    """
    from repro.mmu.batch import replay_misses_batch_many

    return engine_replay(
        replay_misses_batch_many, _replay_each, streams, table,
        complete_subblock=complete_subblock,
    )


def _replay_each(
    streams: Sequence[MissStream], table, complete_subblock: bool
) -> List:
    """The scalar replay of each stream in turn."""
    from repro.mmu.simulate import replay_misses

    return [
        replay_misses(stream, table, complete_subblock=complete_subblock)
        for stream in streams
    ]


# ---------------------------------------------------------------------------
# Persistent stream cache (process-wide, opt-in)
# ---------------------------------------------------------------------------
#: The active on-disk MissStream cache, or None (library default: off).
#: The runner/CLI configure this; worker processes configure their own.
_STREAM_CACHE: Optional[StreamCache] = None


def configure_stream_cache(directory: Optional[str]) -> Optional[StreamCache]:
    """Enable (or, with None, disable) the persistent miss-stream cache.

    Returns the active cache.
    """
    global _STREAM_CACHE
    _STREAM_CACHE = StreamCache(directory) if directory else None
    return _STREAM_CACHE


def stream_cache() -> Optional[StreamCache]:
    """The active persistent cache, if any."""
    return _STREAM_CACHE


def set_stream_cache(cache: Optional[StreamCache]) -> None:
    """Install (or remove) a cache instance directly.

    The runner uses this to restore a previously active cache after a
    scoped run; most callers want :func:`configure_stream_cache`.
    """
    global _STREAM_CACHE
    _STREAM_CACHE = cache


def collect_misses_cached(
    trace: Trace,
    tlb: BaseTLB,
    tmap: TranslationMap,
    prefetch_subblocks: bool = True,
) -> MissStream:
    """Phase 1 behind the persistent cache.

    Content-addresses the (trace, TLB config, logical PTEs) triple; a hit
    skips :func:`~repro.mmu.simulate.collect_misses` entirely, a miss
    computes and persists the stream for the next run (and for parallel
    workers sharing the cache directory).  With no cache configured this
    is exactly ``collect_misses``.
    """
    cache = _STREAM_CACHE
    key = None
    if cache is not None:
        key = stream_cache_key(trace, tlb, tmap, prefetch_subblocks)
        cached = cache.get(key)
        if cached is not None:
            return cached
    stream = collect_misses(trace, tlb, tmap, prefetch_subblocks)
    if cache is not None and key is not None:
        cache.put(key, stream)
    return stream


# ---------------------------------------------------------------------------
# Cached artefacts
# ---------------------------------------------------------------------------
_WORKLOADS: Dict[Tuple[str, int, int, Optional[float]], Workload] = {}
# Keyed by id(workload); each value keeps a strong reference to its
# workload so the id can never be recycled while the cache entry lives.
_TMAPS: Dict[
    int, Tuple[Workload, AddressSpace, Dict[object, TranslationMap]]
] = {}
_STREAMS: Dict[Tuple[int, str, int], Tuple[Workload, MissStream]] = {}


def get_workload(
    name: str,
    trace_length: int = 200_000,
    seed: int = 1234,
    footprint_mb: Optional[float] = None,
) -> Workload:
    """Memoised workload construction.

    ``footprint_mb`` selects a modern workload family member (see
    :mod:`repro.workloads.modern`); paper workloads leave it ``None``.
    """
    key = (name, trace_length, seed, footprint_mb)
    if key not in _WORKLOADS:
        _WORKLOADS[key] = load_workload(
            name, trace_length=trace_length, seed=seed,
            footprint_mb=footprint_mb,
        )
    return _WORKLOADS[key]


def get_translation_map(workload: Workload, tlb_kind: str) -> TranslationMap:
    """Memoised logical PTEs for a workload under a TLB's matching policy.

    Uses the union space (processes occupy disjoint VA slices), which is
    what the shared page table sees during access-time simulation.  The
    union is built once per workload, and its maps are keyed by the
    policy's settings, so TLB kinds with the same policy (``single`` and
    ``complete-subblock``) share one map.
    """
    policy = policy_for(tlb_kind)
    settings = None if policy is None else (
        policy.enable_superpages, policy.enable_subblocks,
        policy.promote_threshold,
    )
    if id(workload) not in _TMAPS:
        _TMAPS[id(workload)] = (workload, workload.union_space(), {})
    _, union, maps = _TMAPS[id(workload)]
    if settings not in maps:
        maps[settings] = TranslationMap.from_space(union, policy)
    return maps[settings]


def get_miss_stream(
    workload: Workload, tlb_kind: str, entries: int = TLB_ENTRIES
) -> MissStream:
    """Memoised phase-1 simulation: the miss stream of one TLB config.

    In-process memoisation sits in front of the persistent on-disk cache
    (when configured), so a warm cache directory makes this a pure read.
    """
    key = (id(workload), tlb_kind, entries)
    if key not in _STREAMS:
        with record_span(
            "stage:miss_stream", category="stage",
            workload=workload.name, tlb=tlb_kind,
        ):
            tmap = get_translation_map(workload, tlb_kind)
            tlb = TLB_FACTORIES[tlb_kind](entries)
            _STREAMS[key] = (
                workload, collect_misses_cached(workload.trace, tlb, tmap)
            )
    return _STREAMS[key][1]


def clear_caches() -> None:
    """Drop all memoised artefacts (tests use this for isolation)."""
    _WORKLOADS.clear()
    _TMAPS.clear()
    _STREAMS.clear()


def clear_stream_memo() -> None:
    """Drop only the memoised miss streams, keeping workloads and maps.

    The runner calls this at the start of every task (serial and
    parallel) when the persistent cache is active, so the
    ``stream_cache.*`` counts in each task's registry are a
    deterministic function of the task alone — never of which other
    task happened to run in the same process first.  That determinism
    is what makes the run's counts, and ``RunMetrics.cache_summary()``,
    identical between ``--jobs 1`` and ``--jobs N``.
    """
    _STREAMS.clear()
