"""Forward-mapped page tables (Figure 3): top-down n-ary trees.

Each level of the tree is indexed by a fixed field of the VPN; leaf nodes
hold PTEs, intermediate nodes hold page table pointers (PTPs).  Nodes are
physically addressed, so there are no nested translations — but every TLB
miss walks the full depth, about seven memory accesses for 64-bit address
spaces, which is why the paper deems forward-mapped tables impractical.

Two superpage strategies are supported:

- ``superpage_strategy="replicate"`` — the §4.2 replicate-PTEs default
  used in the paper's figures (leaf-site replication, full-depth walks).
- ``superpage_strategy="intermediate"`` — store the superpage PTE at the
  intermediate node whose subtree exactly covers it (SPARC Reference MMU
  style), shortening the walk for those pages but supporting only the
  page sizes that match subtree coverage.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.addr.layout import AddressLayout, DEFAULT_LAYOUT
from repro.addr.space import DEFAULT_ATTRS, Mapping
from repro.errors import (
    AlignmentError,
    ConfigurationError,
    MappingExistsError,
    PageFaultError,
)
from repro.mmu.cache_model import CacheModel, DEFAULT_CACHE
from repro.pagetables.base import (
    BlockLookupResult,
    LookupResult,
    PageTable,
    WalkOutcome,
)
from repro.pagetables.pte import PTE_BYTES, PTEKind
from repro.pagetables.strategies import ReplicatedPTEMixin, ReplicaPTE, cell_result

#: Default per-level index widths for a 52-bit VPN: 4 + 6×8 = 52 bits,
#: seven levels as in the paper's Figure 3.
DEFAULT_LEVEL_BITS = (4, 8, 8, 8, 8, 8, 8)


class _TreeNode:
    """One tree node: sparse child map plus an optional superpage PTE slot
    per child index (for the intermediate-node strategy)."""

    __slots__ = ("children", "leaves", "superpages")

    def __init__(self):
        self.children: Dict[int, "_TreeNode"] = {}
        self.leaves: Dict[int, object] = {}  # leaf level: index -> cell
        self.superpages: Dict[int, ReplicaPTE] = {}  # intermediate PTEs


class ForwardMappedPageTable(ReplicatedPTEMixin, PageTable):
    """Forward-mapped page table with configurable branching.

    Parameters
    ----------
    level_bits:
        Index-field width per level, root first.  Must sum to the layout's
        VPN width.  The default gives the paper's seven-level tree.
    superpage_strategy:
        ``"replicate"`` (paper default) or ``"intermediate"``.
    """

    name = "forward-mapped"

    def __init__(
        self,
        layout: AddressLayout = DEFAULT_LAYOUT,
        cache: CacheModel = DEFAULT_CACHE,
        level_bits: Sequence[int] = DEFAULT_LEVEL_BITS,
        superpage_strategy: str = "replicate",
    ):
        super().__init__(layout, cache)
        if sum(level_bits) != layout.vpn_bits:
            raise ConfigurationError(
                f"level bits {tuple(level_bits)} sum to {sum(level_bits)}, "
                f"need {layout.vpn_bits}"
            )
        if any(bits < 1 for bits in level_bits):
            raise ConfigurationError("every level needs at least one index bit")
        if superpage_strategy not in ("replicate", "intermediate"):
            raise ConfigurationError(
                f"unknown superpage strategy {superpage_strategy!r}"
            )
        self.level_bits: Tuple[int, ...] = tuple(level_bits)
        self.levels = len(self.level_bits)
        self.superpage_strategy = superpage_strategy
        self._root = _TreeNode()
        self._cell_count = 0
        self._tree_bytes = (1 << self.level_bits[0]) * PTE_BYTES
        # Pages mapped by one entry of a node at each level (root first):
        # entry at level i covers the product of fan-outs below it.
        self._entry_coverage = []
        below = 1
        for bits in reversed(self.level_bits):
            self._entry_coverage.append(below)
            below <<= bits
        self._entry_coverage.reverse()

    # ------------------------------------------------------------------
    # Index arithmetic
    # ------------------------------------------------------------------
    def _indices(self, vpn: int) -> Tuple[int, ...]:
        """Split a VPN into per-level tree indices, root first."""
        indices = []
        remaining = vpn
        for level in range(self.levels - 1, -1, -1):
            bits = self.level_bits[level]
            indices.append(remaining & ((1 << bits) - 1))
            remaining >>= bits
        indices.reverse()
        return tuple(indices)

    def entry_coverage(self, level: int) -> int:
        """Base pages covered by one entry of a node at ``level`` (root=0)."""
        return self._entry_coverage[level]

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    def _walk(self, vpn: int) -> WalkOutcome:
        indices = self._indices(vpn)
        node = self._root
        lines = 0
        for level, index in enumerate(indices):
            lines += 1  # one physically-addressed node access per level
            if level == self.levels - 1:
                cell = node.leaves.get(index)
                if cell is None:
                    return None, lines, lines
                return cell_result(vpn, cell, lines, lines), lines, lines
            superpage = node.superpages.get(index)
            if superpage is not None:
                return superpage.result_for(vpn, lines, lines), lines, lines
            child = node.children.get(index)
            if child is None:
                return None, lines, lines
            node = child
        raise AssertionError("unreachable: loop always returns")

    def lookup_block(self, vpbn: int) -> BlockLookupResult:
        """Block fetch: a block's leaf PTEs are adjacent in one leaf node
        (for subblock factors no larger than the leaf fan-out)."""
        s = self.layout.subblock_factor
        block_base = self.layout.vpn_of_block(vpbn)
        result, lines, probes = self._walk(block_base)
        del result
        # The walk above priced reaching the leaf (or discovering absence);
        # widen the final leaf read from one PTE to the whole block.
        leaf_fanout = 1 << self.level_bits[-1]
        if s > 1 and s <= leaf_fanout:
            offset = (block_base % leaf_fanout) * PTE_BYTES
            extra = self.cache.lines_touched([(offset, PTE_BYTES * s)]) - 1
            lines += max(0, extra)
        mappings = []
        for vpn in range(block_base, block_base + s):
            cell = self._leaf_cell(vpn)
            if cell is None:
                mappings.append(None)
            else:
                resolved = cell_result(vpn, cell, 0, 0)
                mappings.append(Mapping(resolved.ppn, resolved.attrs))
        fault = all(m is None for m in mappings)
        self.stats.record_walk(lines, probes, fault)
        self._trace_block(vpbn, lines, probes, fault)
        return BlockLookupResult(vpbn, tuple(mappings), lines, probes)

    def _leaf_cell(self, vpn: int):
        indices = self._indices(vpn)
        node = self._root
        for level, index in enumerate(indices[:-1]):
            superpage = node.superpages.get(index)
            if superpage is not None and superpage.base_vpn <= vpn < (
                superpage.base_vpn + superpage.npages
            ):
                return superpage
            node = node.children.get(index)
            if node is None:
                return None
        return node.leaves.get(indices[-1])

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _leaf_for(self, vpn: int, create: bool) -> Optional[_TreeNode]:
        indices = self._indices(vpn)
        node = self._root
        for level, index in enumerate(indices[:-1], start=1):
            child = node.children.get(index)
            if child is None:
                if not create:
                    return None
                child = _TreeNode()
                node.children[index] = child
                self._tree_bytes += (1 << self.level_bits[level]) * PTE_BYTES
                self.stats.op_nodes_allocated += 1
            node = child
            self.stats.op_nodes_visited += 1
        return node

    def _store_cell(self, vpn: int, cell) -> None:
        self.layout.check_vpn(vpn)
        leaf = self._leaf_for(vpn, create=True)
        index = self._indices(vpn)[-1]
        if index in leaf.leaves:
            raise MappingExistsError(vpn)
        leaf.leaves[index] = cell
        self._cell_count += 1

    def _drop_cell(self, vpn: int) -> None:
        leaf = self._leaf_for(vpn, create=False)
        index = self._indices(vpn)[-1]
        if leaf is None or index not in leaf.leaves:
            raise PageFaultError(vpn, f"no forward-mapped PTE for VPN {vpn:#x}")
        del leaf.leaves[index]
        self._cell_count -= 1

    def _load_cell(self, vpn: int):
        leaf = self._leaf_for(vpn, create=False)
        if leaf is None:
            return None
        return leaf.leaves.get(self._indices(vpn)[-1])

    def _replace_cell(self, vpn: int, cell) -> None:
        leaf = self._leaf_for(vpn, create=False)
        leaf.leaves[self._indices(vpn)[-1]] = cell

    def insert(self, vpn: int, ppn: int, attrs: int = DEFAULT_ATTRS) -> None:
        """Install a base-page PTE, growing the tree path as needed."""
        self.layout.check_ppn(ppn)
        self._store_cell(vpn, Mapping(ppn, attrs))
        self.stats.inserts += 1

    def insert_superpage(
        self, base_vpn: int, npages: int, base_ppn: int, attrs: int = DEFAULT_ATTRS
    ) -> None:
        """Install a superpage PTE using the configured strategy."""
        if self.superpage_strategy == "replicate":
            ReplicatedPTEMixin.insert_superpage(
                self, base_vpn, npages, base_ppn, attrs
            )
            return
        # Intermediate-node strategy: the superpage must exactly match one
        # entry's coverage at some level.
        if base_vpn % npages or base_ppn % npages:
            raise AlignmentError("superpage not naturally aligned")
        for level in range(self.levels - 1):
            if self.entry_coverage(level) != npages:
                continue
            indices = self._indices(base_vpn)
            node = self._root
            for depth, index in enumerate(indices[:level], start=1):
                child = node.children.get(index)
                if child is None:
                    child = _TreeNode()
                    node.children[index] = child
                    self._tree_bytes += (
                        1 << self.level_bits[depth]
                    ) * PTE_BYTES
                    self.stats.op_nodes_allocated += 1
                node = child
            index = indices[level]
            if index in node.superpages or index in node.children:
                raise MappingExistsError(base_vpn)
            node.superpages[index] = ReplicaPTE(
                kind=PTEKind.SUPERPAGE, base_vpn=base_vpn, npages=npages,
                base_ppn=base_ppn, attrs=attrs, valid_mask=(1 << npages) - 1,
            )
            self.stats.inserts += 1
            return
        raise AlignmentError(
            f"{npages}-page superpage matches no intermediate level of "
            f"branching {self.level_bits}; only subtree-sized superpages "
            "are supported by the intermediate-node strategy"
        )

    def remove(self, vpn: int) -> None:
        """Clear the leaf PTE for one base page."""
        self._drop_cell(vpn)
        self.stats.removes += 1

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Sum of ``fanout × 8`` bytes over every allocated tree node —
        the paper's Table 2 forward-mapped size formula.

        Tracked incrementally at node allocation (tree nodes are never
        pruned), so per-admission growth charging in the tenancy arena
        does not rescan the tree.
        """
        return self._tree_bytes

    @property
    def pte_count(self) -> int:
        """Number of populated leaf PTE slots."""
        return self._cell_count

    def describe(self) -> str:
        return (
            f"{self.name} page table ({self.levels} levels, "
            f"bits {self.level_bits}, {self.superpage_strategy} superpages)"
        )
