"""Linear page tables (Figure 2) and their 64-bit variants.

A linear page table conceptually stores all PTEs in one virtual array
indexed by VPN.  Because the array is virtual, leaf PTE pages are allocated
on demand, and accessing the array itself needs translations — the *nested*
mappings.  The paper's 64-bit variants differ in how those nested mappings
are stored and what they cost:

- ``structure="multilevel"`` — the straightforward 6-level tree of linear
  tables.  Higher levels are themselves page-granular linear tables, so the
  table costs ``sum_i 4KB × Nactive(2^{9i})`` bytes — the "6-level" series
  of Figure 9 that explodes for sparse address spaces.
- ``structure="ideal"`` — the paper's "1-level" accounting: the nested data
  structure is assumed free and never misses.  Size is ``4KB ×
  Nactive(512)``; every access costs exactly one cache line.  This is the
  optimistic variant plotted in Figures 9–11.
- ``structure="hashed"`` — §7's practical middle ground: a hashed page
  table stores the translations to the first-level linear table.  Size is
  ``(4KB + 24) × Nactive(512)``.

For access costs the paper reserves eight of 64 TLB entries for nested
translations; this class models that reserved pool as an LRU cache, so
32-bit-sized workloads indeed never nested-miss while genuinely huge
working sets start paying for upper-level walks.  The opportunity cost of
the reserved entries (the program only gets 56 entries) is modelled by the
MMU harness, which shrinks the program-visible TLB.

Superpage and partial-subblock PTEs use the replicate-PTEs strategy
(§4.2), the paper's assumption for linear tables in Figures 10 and 11.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Counter as CounterType
from collections import Counter
from typing import Dict, Optional

from repro.addr.layout import AddressLayout, DEFAULT_LAYOUT
from repro.addr.space import DEFAULT_ATTRS, Mapping
from repro.errors import ConfigurationError, MappingExistsError, PageFaultError
from repro.mmu.cache_model import CacheModel, DEFAULT_CACHE
from repro.pagetables.base import (
    BlockLookupResult,
    PageTable,
    WalkOutcome,
)
from repro.pagetables.pte import PTE_BYTES
from repro.pagetables.strategies import ReplicatedPTEMixin, cell_result

#: Structure choices for the nested (page-table-to-page-table) mappings.
STRUCTURES = ("multilevel", "ideal", "hashed")

#: Overhead of one hashed nested-translation PTE (tag + next + mapping).
NESTED_HASH_PTE_BYTES = 24


class _ReservedTLB:
    """LRU cache modelling the TLB entries reserved for nested mappings.

    Keys are ``(level, node_index)`` pairs; level 1 entries translate leaf
    PTE pages.  The paper reserves eight entries and preserves them across
    context switches.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def contains(self, key: tuple) -> bool:
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def install(self, key: tuple) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        if self.capacity == 0:
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[key] = None

    def flush(self) -> None:
        self._entries.clear()


class LinearPageTable(ReplicatedPTEMixin, PageTable):
    """Linear page table for 64-bit address spaces.

    Parameters
    ----------
    structure:
        How nested mappings are stored: ``"multilevel"`` (6-level tree),
        ``"ideal"`` (the paper's 1-level accounting), or ``"hashed"``.
    reserved_tlb_entries:
        TLB entries reserved for nested translations (the paper uses 8 of
        64).  Ignored by ``"ideal"``, which never nested-misses.
    """

    def __init__(
        self,
        layout: AddressLayout = DEFAULT_LAYOUT,
        cache: CacheModel = DEFAULT_CACHE,
        structure: str = "ideal",
        reserved_tlb_entries: int = 8,
    ):
        super().__init__(layout, cache)
        if structure not in STRUCTURES:
            raise ConfigurationError(
                f"structure must be one of {STRUCTURES}, got {structure!r}"
            )
        self.structure = structure
        self.name = {
            "multilevel": "linear-6lvl",
            "ideal": "linear-1lvl",
            "hashed": "linear-hashed",
        }[structure]
        #: PTEs per 4 KB page of the table (512 with 8-byte PTEs).
        self.ptes_per_page = self.layout.page_size // PTE_BYTES
        self._index_bits = self.ptes_per_page.bit_length() - 1  # 9
        #: Tree depth: ceil(vpn_bits / 9) = 6 for 52-bit VPNs.
        self.levels = -(-self.layout.vpn_bits // self._index_bits)
        self.reserved_tlb = _ReservedTLB(reserved_tlb_entries)
        self._cells: Dict[int, object] = {}
        self._leaf_page_population: CounterType[int] = Counter()

    # ------------------------------------------------------------------
    # Cell storage (shared with the replicate-PTE mixin)
    # ------------------------------------------------------------------
    def _store_cell(self, vpn: int, cell) -> None:
        self.layout.check_vpn(vpn)
        if vpn in self._cells:
            raise MappingExistsError(vpn)
        self._cells[vpn] = cell
        self._leaf_page_population[vpn // self.ptes_per_page] += 1
        self.stats.op_nodes_visited += 1

    def _drop_cell(self, vpn: int) -> None:
        if vpn not in self._cells:
            raise PageFaultError(vpn, f"no linear PTE for VPN {vpn:#x}")
        del self._cells[vpn]
        leaf = vpn // self.ptes_per_page
        self._leaf_page_population[leaf] -= 1
        if self._leaf_page_population[leaf] == 0:
            del self._leaf_page_population[leaf]

    def _load_cell(self, vpn: int):
        return self._cells.get(vpn)

    def _replace_cell(self, vpn: int, cell) -> None:
        self._cells[vpn] = cell

    # ------------------------------------------------------------------
    # Nested-walk cost model
    # ------------------------------------------------------------------
    def _nested_walk_lines(self, vpn: int) -> int:
        """Cache lines to reach and read the leaf PTE for ``vpn``.

        One line when the leaf PTE page's translation is in the reserved
        TLB; otherwise one extra line per tree level walked until a cached
        (or pinned root) translation is found, installing the missing
        translations on the way back down.
        """
        if self.structure == "ideal":
            return 1
        leaf_key = (1, vpn >> self._index_bits)
        if self.reserved_tlb.contains(leaf_key):
            return 1
        if self.structure == "hashed":
            # One probe of the nested hashed table (assumed short chains:
            # Nactive(512) entries over its own buckets), then the leaf.
            self.reserved_tlb.install(leaf_key)
            return 2
        # Multilevel: climb until a cached level (the root is pinned).
        depth = 2
        for level in range(2, self.levels):
            key = (level, vpn >> (self._index_bits * level))
            if self.reserved_tlb.contains(key):
                break
            depth += 1
        for level in range(1, depth):
            self.reserved_tlb.install((level, vpn >> (self._index_bits * level)))
        return depth

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    def _walk(self, vpn: int) -> WalkOutcome:
        lines = self._nested_walk_lines(vpn)
        probes = lines
        cell = self._cells.get(vpn)
        if cell is None:
            return None, lines, probes
        return cell_result(vpn, cell, lines, probes), lines, probes

    def lookup_block(self, vpbn: int) -> BlockLookupResult:
        """Block fetch: a block's PTEs are adjacent in the linear array.

        ``s`` eight-byte PTEs start at a ``8s``-byte-aligned offset inside
        the (line-aligned) leaf page, so the read spans
        ``ceil(8s / line_size)`` lines — one line for the paper's base
        configuration, which is why Figure 11d keeps linear tables near 1.
        """
        s = self.layout.subblock_factor
        block_base = self.layout.vpn_of_block(vpbn)
        nested = self._nested_walk_lines(block_base) - 1  # lines above the leaf
        offset_in_page = (block_base % self.ptes_per_page) * PTE_BYTES
        leaf_lines = self.cache.lines_touched([(offset_in_page, PTE_BYTES * s)])
        lines = nested + leaf_lines
        probes = nested + 1
        mappings = []
        for vpn in range(block_base, block_base + s):
            cell = self._cells.get(vpn)
            if cell is None:
                mappings.append(None)
            else:
                result = cell_result(vpn, cell, 0, 0)
                mappings.append(Mapping(result.ppn, result.attrs))
        fault = all(m is None for m in mappings)
        self.stats.record_walk(lines, probes, fault)
        self._trace_block(vpbn, lines, probes, fault)
        return BlockLookupResult(vpbn, tuple(mappings), lines, probes)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def insert(self, vpn: int, ppn: int, attrs: int = DEFAULT_ATTRS) -> None:
        """Install a base-page PTE, allocating its leaf page on demand."""
        self.layout.check_ppn(ppn)
        self._store_cell(vpn, Mapping(ppn, attrs))
        self.stats.inserts += 1

    def remove(self, vpn: int) -> None:
        """Clear the PTE for one base page.

        Removing one page of a replicated superpage or partial-subblock
        PTE clears only that site; the operating system is responsible for
        clearing all replicas (modelled by
        :meth:`remove_replicated_range`), matching §4.3's observation that
        replicated updates touch multiple PTEs.
        """
        self._drop_cell(vpn)
        self.stats.removes += 1
        self.stats.op_nodes_visited += 1

    def remove_replicated_range(self, base_vpn: int, npages: int) -> int:
        """Clear every replica site of a wide PTE; returns sites cleared."""
        cleared = 0
        for vpn in range(base_vpn, base_vpn + npages):
            if vpn in self._cells:
                self._drop_cell(vpn)
                cleared += 1
        self.stats.removes += 1
        self.stats.op_nodes_visited += npages
        return cleared

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def nactive(self, region_pages: int) -> int:
        """Number of aligned regions of the VA with at least one PTE."""
        if region_pages == 1:
            return len(self._cells)
        return len({vpn // region_pages for vpn in self._cells})

    def size_bytes(self) -> int:
        """Size under the paper's Table 2 formulae for this structure."""
        page = self.layout.page_size
        if self.structure == "ideal":
            return page * self.nactive(self.ptes_per_page)
        if self.structure == "hashed":
            return (page + NESTED_HASH_PTE_BYTES) * self.nactive(self.ptes_per_page)
        total = 0
        for level in range(1, self.levels + 1):
            region = 1 << (self._index_bits * level)
            total += page * self.nactive(region)
        return total

    @property
    def pte_count(self) -> int:
        """Number of populated PTE slots (replicas count once per site)."""
        return len(self._cells)

    def describe(self) -> str:
        return (
            f"{self.name} page table ({self.levels}-level capable, "
            f"{self.reserved_tlb.capacity} reserved TLB entries)"
        )
