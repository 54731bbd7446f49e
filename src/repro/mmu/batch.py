"""Batch miss replay: whole-stream vectorized phase 2.

:func:`replay_misses_batch` is a drop-in replacement for
:func:`repro.mmu.simulate.replay_misses` built on the compiled walk
kernels of :mod:`repro.mmu.batch_kernels`.  The strategy:

1. **Deduplicate** the miss stream: ``np.unique`` collapses the VPNs to
   the distinct pages actually walked, with multiplicities.  Page tables
   are immutable during a replay, so equal VPNs cost equal walks — one
   kernel evaluation per *unique* VPN covers the whole stream.
2. **Walk** every unique VPN through the table's kernel in one shot
   (per-element ``(lines, probes, kind)`` arrays, ``kind < 0`` = fault).
3. **Aggregate** with count-weighted sums: the replay totals, the
   table's :class:`~repro.pagetables.base.WalkStats`, and the installed
   :class:`~repro.obs.trace.WalkTracer`'s walk profile (grouped walks
   via ``record_groups``, heat rows via ``TableProfile.add_heat``) all
   advance exactly as the scalar loop would have advanced them.

The compute phase is pure — stats mutation starts only after every
kernel call has succeeded, so a :class:`BatchUnsupportedError` mid-way
can never leave half-charged tables behind; callers catch it and rerun
the scalar path, which supports every table.

Exactness contract (enforced by ``tests/test_batch_differential.py``
and the hypothesis suite): for supported tables the returned
:class:`~repro.mmu.simulate.ReplayResult`, the table's WalkStats, and
the tracer's totals and walk profile are equal to the scalar replay's,
field by field.  The only tolerated divergence is the tracer's event
*ring*: grouped events are accounted as recorded-and-dropped rather
than retained.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.mmu.batch_kernels import (
    BatchUnsupportedError,
    compile_kernel,
)
from repro.mmu.simulate import MissStream, ReplayResult
from repro.obs import trace as _trace
from repro.pagetables.pte import PTEKind

__all__ = [
    "BatchUnsupportedError",
    "replay_misses_batch",
    "replay_misses_batch_many",
]

#: Field widths for packing (kind, lines, probes) into one group key.
_PROBE_BITS = 24
_LINE_BITS = 24


def _active_tracer():
    """The installed tracer, unless emission is suppressed right now."""
    if _trace._ACTIVE is None or _trace._SUPPRESSED:
        return None
    return _trace._ACTIVE


def _emit(tracer, table, op, vpns, codes, lines, probes, counts) -> None:
    """Feed count-weighted walks into the tracer and its heat row.

    Events sharing one ``(kind, lines, probes)`` signature collapse to a
    single :meth:`~repro.obs.trace.WalkTracer.record_groups` call, so the
    Python-level cost scales with distinct cost signatures (a handful)
    rather than misses.
    """
    if (lines >= (1 << _LINE_BITS)).any() or (probes >= (1 << _PROBE_BITS)).any():
        # Implausible (chains of 16M+ nodes), but grouping must not
        # silently alias: fall back to one group per unique VPN.
        keys = np.arange(codes.shape[0], dtype=np.int64)
    else:
        keys = (
            ((codes + 1) << (_LINE_BITS + _PROBE_BITS))
            | (lines << _PROBE_BITS)
            | probes
        )
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    grouped = np.bincount(inverse, weights=counts.astype(np.float64))
    first = np.zeros(unique_keys.shape[0], dtype=np.int64)
    first[inverse[::-1]] = np.arange(codes.shape[0] - 1, -1, -1)
    for group, at in enumerate(first):
        code = int(codes[at])
        tracer.record_groups(
            table.name,
            op,
            "fault" if code < 0 else PTEKind(code).name,
            int(lines[at]),
            int(probes[at]),
            code < 0,
            table.numa_node,
            int(grouped[group]),
        )
    tracer.profile.table(table.name).add_heat(vpns, lines * counts)


def replay_misses_batch(
    stream: MissStream,
    table,
    complete_subblock: bool = False,
    _kernel=None,
) -> ReplayResult:
    """Phase 2, vectorized: exact equivalent of ``replay_misses``.

    Raises :class:`BatchUnsupportedError` — before touching any stats —
    when the table has no exact kernel; callers fall back to the scalar
    replay.  ``_kernel`` lets :func:`replay_misses_batch_many` amortise
    one compilation over many streams; the table must not mutate between
    the compile and the replay.
    """
    kernel = compile_kernel(table) if _kernel is None else _kernel
    layout = table.layout
    s = layout.subblock_factor
    block_shift = s.bit_length() - 1
    vpns = np.asarray(stream.vpns, dtype=np.int64)

    if complete_subblock:
        is_block = np.asarray(stream.block_miss, dtype=bool)
        walk_vpns = vpns[~is_block]
        block_vpns = vpns[is_block]
    else:
        walk_vpns = vpns
        block_vpns = vpns[:0]

    # ------------------------------------------------------------------
    # Compute phase: pure array math, no observable side effects yet.
    # ------------------------------------------------------------------
    walk_data = None
    if walk_vpns.size:
        unique_vpns, counts = np.unique(walk_vpns, return_counts=True)
        lines, probes, kind = kernel.walk(unique_vpns)
        walk_data = (unique_vpns, counts, lines, probes, kind)

    block_data = None
    if block_vpns.size:
        unique_vpns, counts = np.unique(block_vpns, return_counts=True)
        boffs = unique_vpns & (s - 1)
        unique_vpbns, to_block = np.unique(
            unique_vpns >> block_shift, return_inverse=True
        )
        block = kernel.block(unique_vpbns)
        block_data = (counts, boffs, to_block, unique_vpbns, block)

    # ------------------------------------------------------------------
    # Aggregation: every total the scalar loop would have advanced.
    # ------------------------------------------------------------------
    stats = table.stats
    tracer = _active_tracer()
    replay_lines = 0
    replay_probes = 0
    faults = 0
    by_kind: Counter = Counter()

    if walk_data is not None:
        unique_vpns, counts, lines, probes, kind = walk_data
        resolved = kind >= 0
        # The replay charges only non-faulting walks...
        replay_lines += int((lines[resolved] * counts[resolved]).sum())
        replay_probes += int((probes[resolved] * counts[resolved]).sum())
        faults += int(counts[~resolved].sum())
        for code in np.unique(kind[resolved]):
            by_kind[PTEKind(int(code))] += int(counts[kind == code].sum())
        # ...while the table's own stats include fault walk costs.
        stats.lookups += int(counts.sum())
        stats.cache_lines += int((lines * counts).sum())
        stats.probes += int((probes * counts).sum())
        stats.faults += int(counts[~resolved].sum())
        if tracer is not None:
            _emit(tracer, table, "walk", unique_vpns, kind, lines, probes,
                  counts)

    if block_data is not None:
        counts, boffs, to_block, unique_vpbns, block = block_data
        # Replay view: per missed VPN, fault when the block fetch left
        # that base page unmapped — charged nothing, like the walk path.
        valid = ((block.mask[to_block] >> boffs) & 1) == 1
        faults += int(counts[~valid].sum())
        replay_lines += int((block.lines[to_block][valid] * counts[valid]).sum())
        replay_probes += int((block.probes[to_block][valid] * counts[valid]).sum())
        resolved_count = int(counts[valid].sum())
        if resolved_count:
            by_kind[PTEKind.BASE] += resolved_count
        # Table view: every stream event performed one block fetch.
        fetches = np.bincount(
            to_block, weights=counts.astype(np.float64)
        ).astype(np.int64)
        stats.lookups += int(fetches.sum())
        stats.cache_lines += int((block.lines * fetches).sum())
        stats.probes += int((block.probes * fetches).sum())
        stats.faults += int(fetches[block.fault].sum())
        if block.constituents is not None:
            # The scalar multi-table path runs each constituent's own
            # lookup_block (trace-suppressed): their stats advance too.
            for inner, inner_lines, inner_probes, inner_fault in block.constituents:
                inner.stats.lookups += int(fetches.sum())
                inner.stats.cache_lines += int((inner_lines * fetches).sum())
                inner.stats.probes += int((inner_probes * fetches).sum())
                inner.stats.faults += int(fetches[inner_fault].sum())
        if tracer is not None:
            codes = np.where(block.fault, -1, int(PTEKind.BASE))
            _emit(
                tracer, table, "block", unique_vpbns << block_shift, codes,
                block.lines, block.probes, fetches,
            )

    return ReplayResult(
        table_description=table.describe(),
        misses=int(stream.vpns.shape[0]),
        cache_lines=replay_lines,
        probes=replay_probes,
        faults=faults,
        by_kind=by_kind,
    )


def replay_misses_batch_many(
    streams,
    table,
    complete_subblock: bool = False,
):
    """Replay many streams against one table, compiling the kernel once.

    Kernel compilation walks every resident entry (the hashed/clustered
    CSR build is O(table entries) of Python), so replaying thousands of
    per-tenant streams through :func:`replay_misses_batch` would pay that
    cost per stream.  This amortises one compile over the whole batch —
    valid because page tables are immutable during a replay, and callers
    only mutate between batches.

    Raises :class:`BatchUnsupportedError` before touching any stats, so
    callers can fall back to the scalar loop for the entire batch.
    """
    kernel = compile_kernel(table)
    return [
        replay_misses_batch(
            stream, table, complete_subblock=complete_subblock, _kernel=kernel
        )
        for stream in streams
    ]
