"""Vectorized walk kernels: page tables compiled to numpy array form.

The scalar replay (:func:`repro.mmu.simulate.replay_misses`) walks the
page table once per recorded TLB miss — a Python-level loop over up to
hundreds of thousands of misses per (workload, table) cell.  The batch
engine instead *compiles* an immutable table into flat numpy arrays and
walks every unique missed VPN at once:

- **Linear (ideal)** — a sorted VPN-key array; membership is one
  ``searchsorted`` per batch.
- **Forward-mapped / guarded** — tree nodes get dense integer ids; the
  child/leaf/superpage maps of each level become sorted composite-key
  arrays (``parent_id * fanout + index``), and a walk is one gather per
  level instead of one dict probe per level per miss.
- **Hashed / clustered** — hash chains become CSR arrays (per-bucket
  ``start``/``length`` over flat node arrays, chain order preserved);
  the probe loop advances *all* still-unresolved walks one chain
  position per iteration (repeated masked gathers), so the Python-level
  iteration count is the longest chain, not the miss count.
- **Multi-table** — composes the constituent kernels with where-masking,
  reproducing the "walk tables in order until one resolves" sum.

A kernel has two sources.  :func:`compile_kernel` ``(table)`` reads a
populated object table; ``(table, tmap, base_pages_only)`` builds the
same arrays from the :class:`~repro.os.translation_map.TranslationMap`'s
PTE columns, with the empty ``table`` supplying only its configuration
(the Figure 11 and modern replays take this path, and so never populate
an object table under the batch engine).  The map builders reproduce
the order in which populating would have created nodes, chains and tree
ids; ``tests/test_batch_differential.py`` checks them array for array
against the populated table's kernel.

Every kernel is *exact*: for each supported table it reproduces the
scalar walk's cache-line count, probe count, and outcome bit-for-bit.
``tests/test_batch_differential.py`` enforces this against the scalar
oracle for every paper table and workload; anything a kernel cannot
reproduce exactly raises :class:`BatchUnsupportedError` at compile time
and the engine falls back to the scalar path.

Kernels are pure: they never touch table stats, the tracer, or NUMA
costers — aggregation happens in :mod:`repro.mmu.batch` after all
array math has succeeded, so a late ``BatchUnsupportedError`` can never
leave half-updated stats behind.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.pagetables.pte import PTE_BYTES, PTEKind

#: Kind code meaning "the walk faulted" in kernel output arrays; valid
#: outcomes carry the ``int(PTEKind)`` value.
FAULT_CODE = -1

#: 2^64 / golden ratio — must match ``repro.pagetables.hashed._GOLDEN``.
_GOLDEN = 0x9E3779B97F4A7C15


class BatchUnsupportedError(Exception):
    """The batch engine cannot reproduce this table's walks exactly.

    Raised at kernel-compile time (unknown table type, non-default hash
    function, stateful structures like the non-ideal linear tables'
    reserved TLB).  Callers fall back to the scalar replay, which
    supports everything.
    """


def fib_buckets(keys: np.ndarray, num_buckets: int) -> np.ndarray:
    """Vectorized :func:`repro.pagetables.hashed.multiplicative_hash`.

    Exact for non-negative keys: uint64 multiplication wraps mod 2^64
    just like the scalar's ``& _MASK64``.
    """
    product = keys.astype(np.uint64) * np.uint64(_GOLDEN)
    product ^= product >> np.uint64(32)
    product ^= product >> np.uint64(16)
    return (product % np.uint64(num_buckets)).astype(np.int64)


def _sorted_find(
    keys_sorted: np.ndarray, queries: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Membership probe: ``(found, index)`` of each query in a sorted array."""
    if keys_sorted.shape[0] == 0:
        return (
            np.zeros(queries.shape, dtype=bool),
            np.zeros(queries.shape, dtype=np.int64),
        )
    index = np.searchsorted(keys_sorted, queries)
    index = np.minimum(index, keys_sorted.shape[0] - 1)
    return keys_sorted[index] == queries, index


def _cell_kind(cell) -> int:
    """Kind code of a per-VPN cell (Mapping or ReplicaPTE)."""
    from repro.pagetables.strategies import ReplicaPTE

    if isinstance(cell, ReplicaPTE):
        return int(cell.kind)
    return int(PTEKind.BASE)


def _distinct_lines(offsets: np.ndarray, nbytes: int, line_size: int) -> np.ndarray:
    """Vectorized ``CacheModel.lines_touched`` for one contiguous read."""
    first = offsets // line_size
    last = (offsets + (nbytes - 1)) // line_size
    return last - first + 1


def _chains(buckets: np.ndarray, num_buckets: int):
    """CSR chains of nodes given in creation order: ``(chain_start,
    chain_len, order)``, where ``order`` groups the nodes by bucket and
    keeps creation order within one — the order chains append them."""
    counts = np.zeros(num_buckets + 1, dtype=np.int64)
    counts[1:] = np.bincount(buckets, minlength=num_buckets)
    starts = np.cumsum(counts)
    return starts[:-1], counts[1:], np.argsort(buckets, kind="stable")


def _cells(columns) -> Tuple[np.ndarray, np.ndarray]:
    """``(vpn, kind)`` of every per-VPN cell a map's PTEs occupy, in write
    order: a wide PTE is replicated at each page it validly maps, as
    :class:`~repro.pagetables.strategies.ReplicatedPTEMixin` stores it."""
    row, vpn = columns.pages()
    return vpn, columns.kind[row]


class BlockArrays:
    """Per-unique-VPBN block-fetch outcome (``lookup_block`` vectorized).

    ``mask`` bit *b* is set when base page *b* of the block has a valid
    mapping; ``fault`` mirrors what the scalar ``lookup_block`` records
    (``mask == 0`` for most tables, "no tag-matching node" for clustered
    chains).  ``constituents`` is filled by the multi-table kernel only:
    ``(table, lines, probes, fault)`` per constituent, because the
    scalar path updates each constituent's own WalkStats per block fetch.
    """

    __slots__ = ("lines", "probes", "mask", "fault", "constituents")

    def __init__(self, lines, probes, mask, fault, constituents=None):
        self.lines = lines
        self.probes = probes
        self.mask = mask
        self.fault = fault
        self.constituents = constituents


def _block_via_walks(kernel, vpbns: np.ndarray) -> BlockArrays:
    """The base-class ``lookup_block`` (one walk per base page), batched.

    Used by tables without an adjacency-exploiting override (hashed and
    guarded tables): a block fetch is ``s`` independent walks whose lines
    and probes sum, valid wherever the walk resolved.
    """
    s = kernel.subblock_factor
    count = vpbns.shape[0]
    grid = (vpbns[:, None] * s + np.arange(s, dtype=np.int64)[None, :]).reshape(-1)
    lines, probes, kind = kernel.walk(grid)
    ok = (kind >= 0).reshape(count, s)
    mask = np.zeros(count, dtype=np.int64)
    for boff in range(s):
        mask |= ok[:, boff].astype(np.int64) << boff
    return BlockArrays(
        lines.reshape(count, s).sum(axis=1),
        probes.reshape(count, s).sum(axis=1),
        mask,
        mask == 0,
    )


# ---------------------------------------------------------------------------
# Hashed page tables
# ---------------------------------------------------------------------------
class HashedKernel:
    """Chained-hash walks as CSR masked-gather loops (grain-aware)."""

    def __init__(self, table, columns=None):
        from repro.pagetables.hashed import HashedPageTable, multiplicative_hash

        if type(table) is not HashedPageTable:
            raise BatchUnsupportedError(
                f"no batch kernel for {type(table).__name__}"
            )
        if table.hash_fn is not multiplicative_hash:
            raise BatchUnsupportedError(
                "batch hashed kernel requires the default multiplicative hash"
            )
        self.table = table
        self.grain = table.grain
        self.num_buckets = table.num_buckets
        self.subblock_factor = table.layout.subblock_factor
        if columns is not None:
            self._build(columns)
            return
        counts = np.zeros(table.num_buckets + 1, dtype=np.int64)
        for bucket, chain in table._buckets.items():
            counts[bucket + 1] = len(chain)
        starts = np.cumsum(counts)
        total = int(starts[-1])
        self.chain_start = starts[:-1]
        self.chain_len = counts[1:]
        self.node_tag = np.empty(total, dtype=np.int64)
        self.node_kind = np.empty(total, dtype=np.int64)
        self.node_npages = np.empty(total, dtype=np.int64)
        self.node_vmask = np.empty(total, dtype=np.int64)
        for bucket, chain in table._buckets.items():
            base = int(starts[bucket])
            for slot, node in enumerate(chain):
                self.node_tag[base + slot] = node.tag
                self.node_kind[base + slot] = int(node.kind)
                self.node_npages[base + slot] = node.npages
                self.node_vmask[base + slot] = node.valid_mask

    @staticmethod
    def holds(columns, grain: int, subblock_factor: int) -> np.ndarray:
        """Which rows a grain-``grain`` hashed table accepts: base PTEs at
        grain 1, superpages of exactly ``grain`` pages, and partial
        subblocks at block grain."""
        kind = columns.kind
        return (
            ((kind == int(PTEKind.BASE)) & (grain == 1))
            | ((kind == int(PTEKind.SUPERPAGE)) & (columns.npages == grain))
            | (
                (kind == int(PTEKind.PARTIAL_SUBBLOCK))
                & (grain == subblock_factor)
            )
        )

    def _build(self, columns) -> None:
        """The arrays of this table populated with ``columns``: one node
        per PTE, appended to its bucket's chain in write order."""
        if not self.holds(columns, self.grain, self.subblock_factor).all():
            raise BatchUnsupportedError(
                f"a grain-{self.grain} hashed table cannot hold every PTE"
            )
        kind = columns.kind
        superpage = kind == int(PTEKind.SUPERPAGE)
        partial = kind == int(PTEKind.PARTIAL_SUBBLOCK)
        tag = columns.vpn // self.grain
        self.chain_start, self.chain_len, order = _chains(
            fib_buckets(tag, self.num_buckets), self.num_buckets
        )
        # HashNode defaults: npages 1 unless a superpage, mask 0 unless
        # a partial subblock.
        self.node_tag = tag[order]
        self.node_kind = kind[order]
        self.node_npages = np.where(superpage, columns.npages, 1)[order]
        self.node_vmask = np.where(partial, columns.valid_mask, 0)[order]

    def walk(self, vpns: np.ndarray):
        n = vpns.shape[0]
        tags = vpns // self.grain
        bucket = fib_buckets(tags, self.num_buckets)
        start = self.chain_start[bucket]
        length = self.chain_len[bucket]
        # Probing an empty bucket still reads the invalid head: one probe.
        probes = np.where(length == 0, 1, 0).astype(np.int64)
        hit_node = np.full(n, -1, dtype=np.int64)
        position = np.zeros(n, dtype=np.int64)
        active = np.flatnonzero(length > 0)
        while active.size:
            node = start[active] + position[active]
            matched = self.node_tag[node] == tags[active]
            hits = active[matched]
            hit_node[hits] = node[matched]
            probes[hits] = position[hits] + 1
            active = active[~matched]
            position[active] += 1
            exhausted = position[active] >= length[active]
            ended = active[exhausted]
            probes[ended] = length[ended]
            active = active[~exhausted]
        lines = probes.copy()  # every chain node occupies one cache line
        kind = np.full(n, FAULT_CODE, dtype=np.int64)
        found = hit_node >= 0
        node = hit_node[found]
        node_kind = self.node_kind[node]
        boff = vpns[found] - tags[found] * self.grain
        valid = np.ones(node.shape, dtype=bool)
        superpage = node_kind == int(PTEKind.SUPERPAGE)
        valid[superpage] = boff[superpage] < self.node_npages[node][superpage]
        partial = node_kind == int(PTEKind.PARTIAL_SUBBLOCK)
        valid[partial] = ((self.node_vmask[node][partial] >> boff[partial]) & 1) == 1
        kind[found] = np.where(valid, node_kind, FAULT_CODE)
        return lines, probes, kind

    def block(self, vpbns: np.ndarray) -> BlockArrays:
        return _block_via_walks(self, vpbns)


# ---------------------------------------------------------------------------
# Clustered page tables
# ---------------------------------------------------------------------------
class ClusteredKernel:
    """§5 clustered chains: per-node pass/match line costs precomputed."""

    def __init__(self, table, columns=None):
        from repro.core.clustered import (
            ClusteredPageTable,
            MAPPING_BYTES,
            NODE_OVERHEAD_BYTES,
        )
        from repro.pagetables.hashed import multiplicative_hash

        if type(table) is not ClusteredPageTable:
            raise BatchUnsupportedError(
                f"no batch kernel for {type(table).__name__}"
            )
        if table.hash_fn is not multiplicative_hash:
            raise BatchUnsupportedError(
                "batch clustered kernel requires the default multiplicative hash"
            )
        self.table = table
        layout = table.layout
        cache = table.cache
        s = layout.subblock_factor
        self.subblock_factor = s
        self.block_shift = s.bit_length() - 1
        self.num_buckets = table.num_buckets
        # Line cost of visiting a node: tag+next only on a tag mismatch,
        # plus the mapping word (boff-dependent for wide BASE nodes) on a
        # tag match — exactly ``_node_lines``.
        self.pass_cost = cache.lines_touched([(0, NODE_OVERHEAD_BYTES)])
        self.base_match_cost = np.array(
            [
                cache.lines_touched(
                    [
                        (0, NODE_OVERHEAD_BYTES),
                        (NODE_OVERHEAD_BYTES + MAPPING_BYTES * boff, MAPPING_BYTES),
                    ]
                )
                for boff in range(s)
            ],
            dtype=np.int64,
        )
        self.narrow_match_cost = cache.lines_touched(
            [(0, NODE_OVERHEAD_BYTES), (NODE_OVERHEAD_BYTES, MAPPING_BYTES)]
        )
        if columns is not None:
            self._build(
                columns,
                cache.lines_for_node(NODE_OVERHEAD_BYTES + MAPPING_BYTES * s),
                cache.lines_for_node(NODE_OVERHEAD_BYTES + MAPPING_BYTES),
            )
            return
        counts = np.zeros(table.num_buckets + 1, dtype=np.int64)
        for bucket, chain in table._buckets.items():
            counts[bucket + 1] = len(chain)
        starts = np.cumsum(counts)
        total = int(starts[-1])
        self.chain_start = starts[:-1]
        self.chain_len = counts[1:]
        self.node_vpbn = np.empty(total, dtype=np.int64)
        self.node_kind = np.empty(total, dtype=np.int64)
        self.node_is_base = np.empty(total, dtype=bool)
        self.node_valid_bits = np.empty(total, dtype=np.int64)
        self.node_block_cost = np.empty(total, dtype=np.int64)
        for bucket, chain in table._buckets.items():
            base = int(starts[bucket])
            for slot, node in enumerate(chain):
                at = base + slot
                self.node_vpbn[at] = node.vpbn
                self.node_kind[at] = int(node.kind)
                self.node_is_base[at] = node.kind is PTEKind.BASE
                self.node_block_cost[at] = cache.lines_for_node(node.size_bytes())
                if node.kind is PTEKind.BASE:
                    bits = 0
                    for boff, slot_mapping in enumerate(node.slots):
                        if slot_mapping is not None:
                            bits |= 1 << boff
                elif node.kind is PTEKind.PARTIAL_SUBBLOCK:
                    bits = node.valid_mask
                else:  # superpage, possibly an interior sub-range of the block
                    block_base = node.vpbn << self.block_shift
                    low = max(0, node.base_vpn - block_base)
                    high = min(s, node.base_vpn + node.npages - block_base)
                    bits = ((1 << high) - 1) & ~((1 << low) - 1) if high > low else 0
                self.node_valid_bits[at] = bits

    def _build(self, columns, base_cost: int, narrow_cost: int) -> None:
        """The arrays of this table populated with ``columns``.

        A base PTE fills a slot of its block's BASE node, which the
        block's first base PTE creates; a wide PTE gets a node of its
        own.  Nodes join their bucket's chain in creation order.
        """
        s = self.subblock_factor
        kind = columns.kind
        base = kind == int(PTEKind.BASE)
        superpage = kind == int(PTEKind.SUPERPAGE)
        if (columns.npages[superpage] > s).any():
            raise BatchUnsupportedError("superpages wider than a page block")
        vpbn = columns.vpn >> self.block_shift
        boff = columns.vpn & (s - 1)
        blocks, first, slot_block = np.unique(
            vpbn[base], return_index=True, return_inverse=True
        )
        slots = np.zeros(blocks.shape[0], dtype=np.int64)
        np.bitwise_or.at(slots, slot_block, np.int64(1) << boff[base])
        # A superpage maps pages [boff, boff + npages) of its block.
        high = np.minimum(s, boff + columns.npages)
        wide_bits = np.where(
            superpage,
            ((np.int64(1) << high) - 1) & ~((np.int64(1) << boff) - 1),
            columns.valid_mask,
        )[~base]
        created = np.concatenate(
            [np.flatnonzero(base)[first], np.flatnonzero(~base)]
        )
        nodes = np.argsort(created)
        node_vpbn = np.concatenate([blocks, vpbn[~base]])[nodes]
        node_kind = np.concatenate(
            [np.full(blocks.shape[0], int(PTEKind.BASE), dtype=np.int64),
             kind[~base]]
        )[nodes]
        node_bits = np.concatenate([slots, wide_bits])[nodes]
        self.chain_start, self.chain_len, order = _chains(
            fib_buckets(node_vpbn, self.num_buckets), self.num_buckets
        )
        self.node_vpbn = node_vpbn[order]
        self.node_kind = node_kind[order]
        self.node_is_base = self.node_kind == int(PTEKind.BASE)
        self.node_valid_bits = node_bits[order]
        self.node_block_cost = np.where(
            self.node_is_base, base_cost, narrow_cost
        ).astype(np.int64)

    def walk(self, vpns: np.ndarray):
        n = vpns.shape[0]
        vpbn = vpns >> self.block_shift
        boff = vpns & (self.subblock_factor - 1)
        bucket = fib_buckets(vpbn, self.num_buckets)
        start = self.chain_start[bucket]
        length = self.chain_len[bucket]
        empty = length == 0
        lines = np.where(empty, 1, 0).astype(np.int64)
        probes = np.where(empty, 1, 0).astype(np.int64)
        kind = np.full(n, FAULT_CODE, dtype=np.int64)
        position = np.zeros(n, dtype=np.int64)
        active = np.flatnonzero(~empty)
        while active.size:
            node = start[active] + position[active]
            probes[active] += 1
            matched = self.node_vpbn[node] == vpbn[active]
            # A tag match reads the mapping word whether or not it turns
            # out valid (§5: read, find invalid, continue down the chain).
            match_cost = np.where(
                self.node_is_base[node],
                self.base_match_cost[boff[active]],
                self.narrow_match_cost,
            )
            lines[active] += np.where(matched, match_cost, self.pass_cost)
            valid = matched & (
                ((self.node_valid_bits[node] >> boff[active]) & 1) == 1
            )
            resolved = active[valid]
            kind[resolved] = self.node_kind[node[valid]]
            active = active[~valid]
            position[active] += 1
            active = active[position[active] < length[active]]
        return lines, probes, kind

    def block(self, vpbns: np.ndarray) -> BlockArrays:
        n = vpbns.shape[0]
        bucket = fib_buckets(vpbns, self.num_buckets)
        start = self.chain_start[bucket]
        length = self.chain_len[bucket]
        empty = length == 0
        # An empty chain is one probe of the invalid bucket head.
        lines = np.where(empty, 1, 0).astype(np.int64)
        probes = np.where(empty, 1, length)
        mask = np.zeros(n, dtype=np.int64)
        found = np.zeros(n, dtype=bool)
        active = np.flatnonzero(~empty)
        position = 0
        while active.size:
            node = start[active] + position
            matched = self.node_vpbn[node] == vpbns[active]
            lines[active] += np.where(
                matched, self.node_block_cost[node], self.pass_cost
            )
            # First-provider-wins merging equals the union of valid bits.
            mask[active] |= np.where(matched, self.node_valid_bits[node], 0)
            found[active] |= matched
            position += 1
            active = active[position < length[active]]
        # The scalar path faults on "no tag-matching node", not "no valid
        # mapping" — a distinction only pathological nodes could expose.
        return BlockArrays(lines, probes, mask, ~found)


# ---------------------------------------------------------------------------
# Linear page tables (ideal nested-translation model only)
# ---------------------------------------------------------------------------
class LinearKernel:
    """Ideal linear table: membership in a sorted VPN-key array."""

    def __init__(self, table, columns=None):
        from repro.pagetables.linear import LinearPageTable

        if type(table) is not LinearPageTable:
            raise BatchUnsupportedError(
                f"no batch kernel for {type(table).__name__}"
            )
        if table.structure != "ideal":
            # The hashed/multilevel nested-translation models thread a
            # stateful reserved TLB through every walk: order-dependent,
            # so only the scalar path can replay them.
            raise BatchUnsupportedError(
                f"linear structure {table.structure!r} is stateful"
            )
        self.table = table
        self.subblock_factor = table.layout.subblock_factor
        self.ptes_per_page = table.ptes_per_page
        self.line_size = table.cache.line_size
        if columns is not None:
            vpns, kinds = _cells(columns)
            order = np.argsort(vpns)
            self.keys = vpns[order]
            self.kinds = kinds[order]
            return
        keys = np.array(sorted(table._cells), dtype=np.int64)
        self.keys = keys
        self.kinds = np.array(
            [_cell_kind(table._cells[int(key)]) for key in keys], dtype=np.int64
        )

    def walk(self, vpns: np.ndarray):
        n = vpns.shape[0]
        found, index = _sorted_find(self.keys, vpns)
        lines = np.ones(n, dtype=np.int64)
        probes = np.ones(n, dtype=np.int64)
        kind = np.where(found, self.kinds[index], FAULT_CODE)
        return lines, probes, kind

    def block(self, vpbns: np.ndarray) -> BlockArrays:
        s = self.subblock_factor
        n = vpbns.shape[0]
        block_base = vpbns * s
        offset = (block_base % self.ptes_per_page) * PTE_BYTES
        lines = _distinct_lines(offset, PTE_BYTES * s, self.line_size)
        probes = np.ones(n, dtype=np.int64)
        mask = np.zeros(n, dtype=np.int64)
        for boff in range(s):
            found, _ = _sorted_find(self.keys, block_base + boff)
            mask |= found.astype(np.int64) << boff
        return BlockArrays(lines, probes, mask, mask == 0)


# ---------------------------------------------------------------------------
# Forward-mapped page tables
# ---------------------------------------------------------------------------
class ForwardKernel:
    """Tree levels as sorted composite-key arrays, one gather per level."""

    def __init__(self, table, columns=None):
        from repro.pagetables.forward import ForwardMappedPageTable

        if type(table) is not ForwardMappedPageTable:
            raise BatchUnsupportedError(
                f"no batch kernel for {type(table).__name__}"
            )
        self.table = table
        layout = table.layout
        self.subblock_factor = layout.subblock_factor
        self.line_size = table.cache.line_size
        self.levels = table.levels
        self.fanouts = [1 << bits for bits in table.level_bits]
        self.shifts = []
        below = 0
        for bits in reversed(table.level_bits):
            self.shifts.append(below)
            below += bits
        self.shifts.reverse()
        if columns is not None:
            if table.superpage_strategy != "replicate":
                raise BatchUnsupportedError(
                    "map-built forward-mapped kernels replicate superpages"
                )
            self._build(columns)
            return
        # Assign per-level dense node ids breadth-first; each level's
        # children / intermediate superpages / leaves become sorted
        # ``parent_id * fanout + index`` key arrays.
        self.child_keys: List[np.ndarray] = []
        self.child_ids: List[np.ndarray] = []
        self.super_keys: List[np.ndarray] = []
        level_nodes = [table._root]
        for level in range(self.levels - 1):
            fanout = self.fanouts[level]
            child_keys: List[int] = []
            child_ids: List[int] = []
            super_keys: List[int] = []
            next_nodes = []
            for node_id, node in enumerate(level_nodes):
                for index in node.superpages:
                    super_keys.append(node_id * fanout + index)
                for index, child in node.children.items():
                    child_keys.append(node_id * fanout + index)
                    child_ids.append(len(next_nodes))
                    next_nodes.append(child)
            keys = np.array(child_keys, dtype=np.int64)
            order = np.argsort(keys)
            self.child_keys.append(keys[order])
            self.child_ids.append(np.array(child_ids, dtype=np.int64)[order])
            self.super_keys.append(np.sort(np.array(super_keys, dtype=np.int64)))
            level_nodes = next_nodes
        leaf_fanout = self.fanouts[-1]
        leaf_keys: List[int] = []
        leaf_kinds: List[int] = []
        for node_id, node in enumerate(level_nodes):
            for index, cell in node.leaves.items():
                leaf_keys.append(node_id * leaf_fanout + index)
                leaf_kinds.append(_cell_kind(cell))
        keys = np.array(leaf_keys, dtype=np.int64)
        order = np.argsort(keys)
        self.leaf_keys = keys[order]
        self.leaf_kinds = np.array(leaf_kinds, dtype=np.int64)[order]

    def _build(self, columns) -> None:
        """The arrays of this table populated with ``columns``.

        The first cell written below a node creates it, so a node's
        children take breadth-first ids in order of their first write,
        parent by parent.
        """
        vpns, kinds = _cells(columns)
        node_id = np.zeros(vpns.shape[0], dtype=np.int64)
        self.child_keys = []
        self.child_ids = []
        self.super_keys = []
        for level in range(self.levels - 1):
            fanout = self.fanouts[level]
            key = node_id * fanout + ((vpns >> self.shifts[level]) & (fanout - 1))
            keys, first, inverse = np.unique(
                key, return_index=True, return_inverse=True
            )
            ids = np.empty(keys.shape[0], dtype=np.int64)
            ids[np.lexsort((first, keys // fanout))] = np.arange(
                keys.shape[0], dtype=np.int64
            )
            self.child_keys.append(keys)
            self.child_ids.append(ids)
            self.super_keys.append(np.zeros(0, dtype=np.int64))
            node_id = ids[inverse]
        leaf_fanout = self.fanouts[-1]
        key = node_id * leaf_fanout + (vpns & (leaf_fanout - 1))
        order = np.argsort(key)
        self.leaf_keys = key[order]
        self.leaf_kinds = kinds[order]

    def walk(self, vpns: np.ndarray):
        n = vpns.shape[0]
        lines = np.zeros(n, dtype=np.int64)
        kind = np.full(n, FAULT_CODE, dtype=np.int64)
        node_id = np.zeros(n, dtype=np.int64)
        alive = np.arange(n)
        for level in range(self.levels):
            fanout = self.fanouts[level]
            lines[alive] += 1  # one physically-addressed node access
            index = (vpns[alive] >> self.shifts[level]) & (fanout - 1)
            key = node_id[alive] * fanout + index
            if level == self.levels - 1:
                found, at = _sorted_find(self.leaf_keys, key)
                kind[alive[found]] = self.leaf_kinds[at[found]]
                break
            is_super, _ = _sorted_find(self.super_keys[level], key)
            # An intermediate superpage PTE ends the walk at this level.
            kind[alive[is_super]] = int(PTEKind.SUPERPAGE)
            alive = alive[~is_super]
            key = key[~is_super]
            found, at = _sorted_find(self.child_keys[level], key)
            node_id[alive[found]] = self.child_ids[level][at[found]]
            alive = alive[found]  # a missing child is a fault: walk ends
        return lines, lines.copy(), kind

    def block(self, vpbns: np.ndarray) -> BlockArrays:
        s = self.subblock_factor
        leaf_fanout = self.fanouts[-1]
        if s > leaf_fanout:
            # A block would span leaf nodes; the scalar path handles it.
            raise BatchUnsupportedError(
                f"subblock factor {s} exceeds leaf fan-out {leaf_fanout}"
            )
        n = vpbns.shape[0]
        block_base = vpbns * s
        lines, probes, _ = self.walk(block_base)
        if s > 1:
            # Widen the final leaf read from one PTE to the whole block.
            offset = (block_base % leaf_fanout) * PTE_BYTES
            extra = _distinct_lines(offset, PTE_BYTES * s, self.line_size) - 1
            lines = lines + np.maximum(0, extra)
        # Validity via ``_leaf_cell``: an intermediate superpage on the
        # path covers its whole subtree (>= one leaf node >= the block);
        # otherwise membership of each leaf slot decides per base page.
        mask = np.zeros(n, dtype=np.int64)
        node_id = np.zeros(n, dtype=np.int64)
        alive = np.arange(n)
        for level in range(self.levels - 1):
            fanout = self.fanouts[level]
            index = (block_base[alive] >> self.shifts[level]) & (fanout - 1)
            key = node_id[alive] * fanout + index
            is_super, _ = _sorted_find(self.super_keys[level], key)
            mask[alive[is_super]] = (1 << s) - 1
            alive = alive[~is_super]
            key = key[~is_super]
            found, at = _sorted_find(self.child_keys[level], key)
            node_id[alive[found]] = self.child_ids[level][at[found]]
            alive = alive[found]
        leaf_index = block_base[alive] & (leaf_fanout - 1)
        leaf_key = node_id[alive] * leaf_fanout + leaf_index
        for boff in range(s):
            found, _ = _sorted_find(self.leaf_keys, leaf_key + boff)
            mask[alive] |= found.astype(np.int64) << boff
        return BlockArrays(lines, probes, mask, mask == 0)


# ---------------------------------------------------------------------------
# Guarded page tables
# ---------------------------------------------------------------------------
class GuardedKernel:
    """Guarded trie: entries as sorted keys, guards packed into int64."""

    def __init__(self, table, columns=None):
        from repro.pagetables.guarded import GuardedPageTable

        if type(table) is not GuardedPageTable:
            raise BatchUnsupportedError(
                f"no batch kernel for {type(table).__name__}"
            )
        if columns is not None:
            raise BatchUnsupportedError("no map-built kernel for guarded tables")
        self.table = table
        self.subblock_factor = table.layout.subblock_factor
        self.index_bits = table.index_bits
        self.symbols = table.symbols
        if self.index_bits * self.symbols > 60:
            raise BatchUnsupportedError("guard paths wider than 60 bits")
        entry_keys: List[int] = []
        guard_lens: List[int] = []
        guard_vals: List[int] = []
        children: List[int] = []
        leaf_kinds: List[int] = []
        nodes = [table._root]
        node_ids = {id(table._root): 0}
        head = 0
        while head < len(nodes):
            node = nodes[head]
            node_id = node_ids[id(node)]
            head += 1
            for symbol, entry in node.entries.items():
                entry_keys.append((node_id << self.index_bits) | symbol)
                guard_lens.append(len(entry.guard))
                packed = 0
                for guard_symbol in entry.guard:
                    packed = (packed << self.index_bits) | guard_symbol
                guard_vals.append(packed)
                if entry.child is None:
                    children.append(-1)
                    leaf_kinds.append(_cell_kind(entry.cell))
                else:
                    node_ids[id(entry.child)] = len(nodes)
                    children.append(len(nodes))
                    nodes.append(entry.child)
                    leaf_kinds.append(FAULT_CODE)
        keys = np.array(entry_keys, dtype=np.int64)
        order = np.argsort(keys)
        self.entry_keys = keys[order]
        self.guard_lens = np.array(guard_lens, dtype=np.int64)[order]
        self.guard_vals = np.array(guard_vals, dtype=np.int64)[order]
        self.children = np.array(children, dtype=np.int64)[order]
        self.leaf_kinds = np.array(leaf_kinds, dtype=np.int64)[order]

    def walk(self, vpns: np.ndarray):
        n = vpns.shape[0]
        bits = self.index_bits
        lines = np.zeros(n, dtype=np.int64)
        kind = np.full(n, FAULT_CODE, dtype=np.int64)
        node_id = np.zeros(n, dtype=np.int64)
        position = np.zeros(n, dtype=np.int64)
        alive = np.arange(n)
        while alive.size:
            lines[alive] += 1  # one node access
            shift = bits * (self.symbols - 1 - position[alive])
            symbol = (vpns[alive] >> shift) & ((1 << bits) - 1)
            found, at = _sorted_find(
                self.entry_keys, (node_id[alive] << bits) | symbol
            )
            alive = alive[found]  # missing entry: fault, lines counted
            at = at[found]
            guard_len = self.guard_lens[at]
            guard_shift = bits * (
                self.symbols - 1 - position[alive] - guard_len
            )
            guard_bits = (vpns[alive] >> guard_shift) & (
                (np.int64(1) << (bits * guard_len)) - 1
            )
            guard_ok = guard_bits == self.guard_vals[at]
            alive = alive[guard_ok]  # guard mismatch: fault
            at = at[guard_ok]
            position[alive] += 1 + guard_len[guard_ok]
            is_leaf = self.children[at] < 0
            kind[alive[is_leaf]] = self.leaf_kinds[at[is_leaf]]
            node_id[alive[~is_leaf]] = self.children[at[~is_leaf]]
            alive = alive[~is_leaf]
        return lines, lines.copy(), kind

    def block(self, vpbns: np.ndarray) -> BlockArrays:
        return _block_via_walks(self, vpbns)


# ---------------------------------------------------------------------------
# Multiple page tables (§4.2)
# ---------------------------------------------------------------------------
class MultiKernel:
    """Compose constituent kernels: walk tables in order until resolved."""

    def __init__(self, table, columns=None):
        from repro.pagetables.strategies import MultiplePageTables

        if type(table) is not MultiplePageTables:
            raise BatchUnsupportedError(
                f"no batch kernel for {type(table).__name__}"
            )
        self.table = table
        self.subblock_factor = table.layout.subblock_factor
        if columns is None:
            self.kernels = [compile_kernel(inner) for inner in table.tables]
        else:
            self.kernels = [
                HashedKernel(inner, part)
                for inner, part in zip(table.tables, self._route(columns))
            ]

    def _route(self, columns) -> list:
        """Each constituent's rows, as ``MultiplePageTables`` routes its
        inserts: base PTEs to the first grain-1 table, a wide PTE to the
        first table that holds it.  Map-built, only hashed constituents."""
        from repro.pagetables.hashed import HashedPageTable

        if any(type(inner) is not HashedPageTable for inner in self.table.tables):
            raise BatchUnsupportedError(
                "map-built multi-table kernels need hashed constituents"
            )
        pending = np.ones(columns.kind.shape[0], dtype=bool)
        parts = []
        for inner in self.table.tables:
            held = pending & HashedKernel.holds(
                columns, inner.grain, self.subblock_factor
            )
            pending &= ~held
            parts.append(columns.select(held))
        if pending.any():
            raise BatchUnsupportedError("a PTE fits no constituent table")
        return parts

    def walk(self, vpns: np.ndarray):
        n = vpns.shape[0]
        lines = np.zeros(n, dtype=np.int64)
        probes = np.zeros(n, dtype=np.int64)
        kind = np.full(n, FAULT_CODE, dtype=np.int64)
        for kernel in self.kernels:
            unresolved = kind < 0
            if not unresolved.any():
                break
            inner_lines, inner_probes, inner_kind = kernel.walk(vpns)
            lines[unresolved] += inner_lines[unresolved]
            probes[unresolved] += inner_probes[unresolved]
            kind[unresolved] = inner_kind[unresolved]
        return lines, probes, kind

    def block(self, vpbns: np.ndarray) -> BlockArrays:
        n = vpbns.shape[0]
        lines = np.zeros(n, dtype=np.int64)
        probes = np.zeros(n, dtype=np.int64)
        mask = np.zeros(n, dtype=np.int64)
        constituents = []
        for kernel, inner in zip(self.kernels, self.table.tables):
            result = kernel.block(vpbns)
            lines += result.lines
            probes += result.probes
            mask |= result.mask
            constituents.append((inner, result.lines, result.probes, result.fault))
        return BlockArrays(lines, probes, mask, mask == 0, constituents)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------
def compile_kernel(table, tmap=None, base_pages_only: bool = False):
    """Compile ``table`` into its batch walk kernel.

    Dispatch is on *exact* type: subclasses override walk semantics (for
    example :class:`SuperpageIndexHashedPageTable` keeps probing past
    invalid tag matches), so anything unrecognised must take the scalar
    path rather than silently inherit the parent's kernel.

    With a :class:`~repro.os.translation_map.TranslationMap`, ``table``
    must be empty: it supplies only its configuration, and the kernel is
    built from ``tmap.pte_columns(base_pages_only)`` — the same arrays
    as compiling ``table`` after ``tmap.populate(table,
    base_pages_only)``, without building the object table.
    """
    from repro.core.clustered import ClusteredPageTable
    from repro.pagetables.forward import ForwardMappedPageTable
    from repro.pagetables.guarded import GuardedPageTable
    from repro.pagetables.hashed import HashedPageTable
    from repro.pagetables.linear import LinearPageTable
    from repro.pagetables.strategies import MultiplePageTables

    kernel_type = {
        HashedPageTable: HashedKernel,
        ClusteredPageTable: ClusteredKernel,
        LinearPageTable: LinearKernel,
        ForwardMappedPageTable: ForwardKernel,
        GuardedPageTable: GuardedKernel,
        MultiplePageTables: MultiKernel,
    }.get(type(table))
    if kernel_type is None:
        raise BatchUnsupportedError(
            f"no batch kernel for {type(table).__name__}"
        )
    if tmap is None:
        return kernel_type(table)
    if table.stats.inserts:
        raise ValueError("a kernel built from a map needs an empty table")
    if tmap.layout != table.layout:
        raise BatchUnsupportedError("the map and the table differ in layout")
    return kernel_type(table, tmap.pte_columns(base_pages_only))
