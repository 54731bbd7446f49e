"""Phase-1 TLB filtering as an LRU stack-distance pass over fill tags.

A fully-associative LRU TLB hits a reference exactly when fewer than
``capacity`` distinct tags were used since that tag's previous use: the
inclusion property of Mattson et al., "Evaluation Techniques for Storage
Hierarchies" (1970).  When every page has one tag, and only the entry
stored under that tag can translate it, the TLB is a pure LRU over the
*fill tags* and the whole miss stream follows from array passes over the
tag sequence, with no per-reference Python.

:func:`filter_misses` is that pass.  It derives each distinct VPN's tag
from the fill policy of :mod:`repro.mmu.fill` (exactly what the scalar
miss handler would install), proves the pure-LRU precondition over the
distinct VPNs, and refuses with :class:`FilterRefused` *before touching
any TLB state* when the precondition fails.  The caller then runs the
per-reference loop, which handles everything.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import PageFaultError, ReproError
from repro.mmu.fill import block_entry, build_entry
from repro.mmu.subblock_tlb import CompleteSubblockTLB, PartialSubblockTLB
from repro.mmu.superpage_tlb import SuperpageTLB
from repro.mmu.tlb import BaseTLB, FullyAssociativeTLB, TLBEntry
from repro.os.translation_map import TranslationMap
from repro.pagetables.pte import PTEKind
from repro.workloads.trace import Trace

#: Exact TLB types whose hits depend only on LRU order over fill tags.
#: Subclasses, ASID tagging, set-associative and two-level TLBs keep the
#: scalar loop.
_LRU_TYPES = (
    FullyAssociativeTLB, SuperpageTLB, PartialSubblockTLB, CompleteSubblockTLB,
)


class FilterRefused(Exception):
    """The pass cannot reproduce this run exactly; ``reason`` says why.

    Raised before any TLB state changes, so the caller can fall back to
    the per-reference loop.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def filter_misses(
    trace: Trace,
    tlb: BaseTLB,
    tmap: TranslationMap,
    prefetch_subblocks: bool = True,
) -> Tuple[np.ndarray, Counter]:
    """Run ``trace`` through an empty pure-LRU ``tlb`` in array passes.

    Returns the miss VPNs and the misses per PTE kind.  Leaves
    ``tlb.stats`` and the TLB's contents exactly as the per-reference
    loop would; every miss of a pure-LRU TLB is a block miss.  Raises
    :class:`FilterRefused` when the TLB is not a pure LRU over fill tags,
    and the loop's error for the first referenced VPN it could not fill.
    """
    if type(tlb) not in _LRU_TYPES:
        raise FilterRefused("tlb_type")
    complete = type(tlb) is CompleteSubblockTLB
    if complete and not prefetch_subblocks:
        raise FilterRefused("no_prefetch")
    if len(tlb):
        raise FilterRefused("resident_entries")

    vpns = trace.vpns
    segment = _segment_ids(trace)
    # A reference repeating the one before it in its segment always hits;
    # the passes below see each run of repeats once.
    heads = _run_starts(vpns, segment)
    vpns, segment = vpns[heads], segment[heads]

    distinct, first, inverse = np.unique(
        vpns, return_index=True, return_inverse=True
    )
    order = np.argsort(first, kind="stable")
    keys, kinds, entries = _fill_tags(
        tlb, tmap, distinct[order].tolist(), complete
    )
    tag_index = {key: i for i, key in enumerate(entries)}
    tag_of = np.empty(len(distinct), dtype=np.int64)
    tag_of[order] = [tag_index[key] for key in keys]
    kind_of = np.empty(len(distinct), dtype=np.int64)
    kind_of[order] = kinds

    tags = tag_of[inverse]
    miss = lru_misses(segment * len(entries) + tags, tlb.capacity)
    _apply_stats(tlb, len(trace), segment, miss)
    _install_resident(tlb, segment, tags, list(entries.items()))
    return vpns[miss], _kind_counts(kind_of[inverse[miss]])


def _fill_tags(
    tlb: BaseTLB, tmap: TranslationMap, vpns: List[int], complete: bool
) -> Tuple[List[tuple], List[int], Dict[tuple, TLBEntry]]:
    """Each VPN's fill tag and PTE kind, plus the entry behind each tag.

    ``vpns`` are distinct and in first-reference order.  The entry for a
    VPN is the one the scalar miss handler fills; a VPN it cannot fill
    (unmapped, out of range) raises the handler's error, once the
    precondition shows the VPN can never hit.
    """
    layout = tmap.layout
    query = tmap.query
    key_of = tlb._key_of
    keys: List[Optional[tuple]] = []
    kinds: List[int] = []
    entries: Dict[tuple, TLBEntry] = {}
    blocks: Dict[int, TLBEntry] = {}
    failure: Optional[ReproError] = None
    for vpn in vpns:
        try:
            pte = query(vpn)
            if pte is None:
                raise PageFaultError(
                    vpn, f"trace references unmapped VPN {vpn:#x}"
                )
            if complete:
                vpbn = layout.vpbn(vpn)
                entry = blocks.get(vpbn)
                if entry is None:
                    entry = blocks[vpbn] = block_entry(
                        tlb, layout.vpn_of_block(vpbn),
                        tmap.block_mappings(vpbn),
                    )
            else:
                entry = build_entry(tlb, pte, vpn, pte.ppn_for(vpn))
            key = key_of(entry)
        except ReproError as error:
            failure = failure or error
            keys.append(None)
            kinds.append(-1)
            continue
        if not entry.translates(vpn):
            raise FilterRefused("entry_misses_vpn")
        tagged = entries.setdefault(key, entry)
        if tagged is not entry and tagged != entry:
            raise FilterRefused("tag_entries_differ")
        keys.append(key)
        kinds.append(pte.kind)

    block_tagged = isinstance(tlb, (PartialSubblockTLB, CompleteSubblockTLB))
    for vpn, key in zip(vpns, keys):
        for candidate in tlb._candidate_keys(vpn):
            if candidate != key and candidate in entries and (
                entries[candidate].translates(vpn)
            ):
                raise FilterRefused("foreign_tag_hit")
        if block_tagged and key is not None:
            block_key = ("block", tlb._block_of(vpn))
            if block_key != key and block_key in entries:
                # A miss on this VPN could find its block's tag resident:
                # the loop would count a subblock miss.
                raise FilterRefused("block_tag_shared")
    if failure is not None:
        raise failure
    return keys, kinds, entries


def _segment_ids(trace: Trace) -> np.ndarray:
    """Per reference, the scheduling segment it runs in (flushes between)."""
    points = np.asarray(trace.switch_points, dtype=np.int64)
    return np.searchsorted(points, np.arange(len(trace)), side="right")


def _run_starts(*columns: np.ndarray) -> np.ndarray:
    """Indices where a run of rows equal in every column begins."""
    starts = np.zeros(len(columns[0]), dtype=bool)
    starts[:1] = True
    for column in columns:
        starts[1:] |= column[1:] != column[:-1]
    return np.flatnonzero(starts)


def lru_misses(keys: np.ndarray, capacity: int) -> np.ndarray:
    """Which references of ``keys`` miss an initially empty LRU cache.

    A reference misses when its key was never used before, or when at
    least ``capacity`` distinct other keys were used since its previous
    use.
    """
    miss = np.zeros(len(keys), dtype=bool)
    # An immediate repeat always hits, and dropping it changes no other
    # reference's set of intervening keys.
    heads = _run_starts(keys)
    runs = keys[heads]
    m = len(runs)
    by_key = np.argsort(runs, kind="stable")
    same = runs[by_key[1:]] == runs[by_key[:-1]]
    prev = np.full(m, -1, dtype=np.int64)
    prev[by_key[1:][same]] = by_key[:-1][same]

    run_miss = prev < 0
    # Fewer than ``capacity`` references in between: fewer distinct keys.
    open_ = np.flatnonzero(~run_miss & (np.arange(m) - prev - 1 >= capacity))
    starts = prev[open_]
    # Keys first used in (p, i) are the runs j there with prev[j] < p; the
    # j <= p all qualify, so subtract those p + 1.
    distinct = _count_below(prev, open_, starts) - (starts + 1)
    run_miss[open_[distinct >= capacity]] = True
    miss[heads] = run_miss
    return miss


def _count_below(
    values: np.ndarray, ends: np.ndarray, bounds: np.ndarray
) -> np.ndarray:
    """``#{j < ends[q] : values[j] < bounds[q]}`` for every query ``q``.

    ``values`` lie in ``[-1, len(values))``.  The prefix ``[0, end)``
    splits into one aligned block of size ``2**level`` per set bit of
    ``end``; each level keeps its blocks sorted, offset into disjoint
    ranges so one ``searchsorted`` over the level answers every query.
    """
    m = len(values)
    counts = np.zeros(len(ends), dtype=np.int64)
    width = m + 1
    rows = values + 1
    level = 0
    while (1 << level) <= m and len(ends):
        size = 1 << level
        nblocks = m >> level
        rows = np.sort(rows[: nblocks * size].reshape(nblocks, size), axis=1,
                       kind="stable").ravel()
        hit = np.flatnonzero((ends >> level) & 1)
        if len(hit):
            block = (ends[hit] >> level) - 1
            flat = rows + np.repeat(np.arange(nblocks) * width, size)
            counts[hit] += (
                np.searchsorted(flat, block * width + bounds[hit] + 1)
                - block * size
            )
        level += 1
    return counts


def _apply_stats(
    tlb: BaseTLB, accesses: int, segment: np.ndarray, miss: np.ndarray
) -> None:
    """Advance ``tlb.stats`` as the per-reference loop would."""
    misses = int(np.count_nonzero(miss))
    per_segment = np.bincount(segment[miss])
    stats = tlb.stats
    stats.accesses += accesses
    stats.hits += accesses - misses
    stats.misses += misses
    stats.block_misses += misses
    stats.fills += misses
    stats.evictions += int(np.maximum(per_segment - tlb.capacity, 0).sum())
    stats.flushes += int(np.count_nonzero(segment[1:] != segment[:-1]))


def _install_resident(
    tlb: BaseTLB, segment: np.ndarray, tags: np.ndarray,
    entries: List[Tuple[tuple, TLBEntry]],
) -> None:
    """Leave the last segment's most recent tags resident, LRU first."""
    if not len(tags):
        return
    last = tags[segment == segment[-1]][::-1]
    recent, newest_first = np.unique(last, return_index=True)
    keep = recent[np.argsort(newest_first)][: tlb.capacity][::-1]
    for tag in keep.tolist():
        key, entry = entries[tag]
        tlb._entries[key] = entry


def _kind_counts(codes: np.ndarray) -> Counter:
    """Misses per PTE kind, keyed in the order of each kind's first miss."""
    kinds, first, counts = np.unique(
        codes, return_index=True, return_counts=True
    )
    by_kind: Counter = Counter()
    for i in np.argsort(first).tolist():
        by_kind[PTEKind(int(kinds[i]))] = int(counts[i])
    return by_kind
