"""Clustered page tables (§3 and §5 of the paper).

A clustered page table is an open hash table keyed by *virtual page block
number* (VPBN).  Three node formats coexist on the same hash chains
(Figure 7):

- **Clustered node** (complete-subblock PTE): one tag + next pointer and an
  array of ``s`` base-page mapping words — ``16 + 8s`` bytes.
- **Partial-subblock node**: tag + next + a single mapping word whose
  sixteen valid bits describe a properly-placed page block — 24 bytes.
- **Superpage node**: tag + next + a single mapping word with an SZ field —
  24 bytes.  Superpages smaller than a page block coexist with other nodes
  for the same block on one chain; superpages larger than a page block are
  replicated once per covered block (§5), a factor of ``s`` cheaper than
  the base-page replication conventional tables need.

The TLB miss handler's walk (Figure 8) hashes the VPBN, matches tags, then
dispatches on the S field of the first mapping word::

    for (ptr = &hash_table[h(VPBN)]; ptr != NULL; ptr = ptr->next)
        if (tag_match(ptr, faulting_tag))
            return(ptr->mapping[0].S ? ptr->mapping[0]
                                     : ptr->mapping[Boff]);
    pagefault();

A tag match that fails to yield a valid mapping (a clear valid bit, or a
small superpage that does not cover the faulting page) continues down the
chain, per §5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.addr.layout import AddressLayout, DEFAULT_LAYOUT, is_power_of_two
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
from repro.pagetables.hashed import multiplicative_hash
from repro.pagetables.pte import PTEKind

#: Bytes of tag + next-pointer overhead per node (two 64-bit words).
NODE_OVERHEAD_BYTES = 16
#: Bytes per mapping word.
MAPPING_BYTES = 8


@dataclass
class ClusteredNode:
    """One hash-chain node of a clustered page table.

    ``kind`` selects the format:

    - ``PTEKind.BASE`` — a full clustered (complete-subblock) node:
      ``slots[i]`` maps base page ``i`` of the block, ``None`` when invalid.
    - ``PTEKind.PARTIAL_SUBBLOCK`` — ``ppn`` is the block-aligned physical
      base; ``valid_mask`` bit *i* validates page *i*.
    - ``PTEKind.SUPERPAGE`` — maps ``npages`` pages starting at
      ``base_vpn`` (which may be an interior sub-range of the block when
      the superpage is smaller than the page block).
    """

    vpbn: int
    kind: PTEKind
    subblock_factor: int
    slots: List[Optional[Mapping]] = field(default_factory=list)
    ppn: int = 0
    attrs: int = 0
    valid_mask: int = 0
    base_vpn: int = 0
    npages: int = 0

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Node memory under the paper's format sizes."""
        if self.kind is PTEKind.BASE:
            return NODE_OVERHEAD_BYTES + MAPPING_BYTES * self.subblock_factor
        return NODE_OVERHEAD_BYTES + MAPPING_BYTES

    def population(self) -> int:
        """Number of base pages this node currently maps."""
        if self.kind is PTEKind.BASE:
            return sum(1 for slot in self.slots if slot is not None)
        if self.kind is PTEKind.PARTIAL_SUBBLOCK:
            return bin(self.valid_mask).count("1")
        return self.npages

    def covers(self, vpn: int, layout: AddressLayout) -> bool:
        """True when this node *could* hold a mapping for ``vpn`` (tag and,
        for small superpages, sub-range both match)."""
        if layout.vpbn(vpn) != self.vpbn:
            return False
        if self.kind is PTEKind.SUPERPAGE:
            return self.base_vpn <= vpn < self.base_vpn + self.npages
        return True

    def mapping_for(self, vpn: int, layout: AddressLayout) -> Optional[Mapping]:
        """The valid mapping for ``vpn`` held by this node, or None."""
        boff = layout.boff(vpn)
        if self.kind is PTEKind.BASE:
            return self.slots[boff]
        if self.kind is PTEKind.PARTIAL_SUBBLOCK:
            if (self.valid_mask >> boff) & 1:
                return Mapping(self.ppn + boff, self.attrs)
            return None
        if self.base_vpn <= vpn < self.base_vpn + self.npages:
            return Mapping(self.ppn + (vpn - self.base_vpn), self.attrs)
        return None


class ClusteredPageTable(PageTable):
    """The paper's clustered page table (§3, §5).

    Parameters
    ----------
    num_buckets:
        Hash bucket count; the paper's base configuration uses 4096.
    hash_fn:
        ``(vpbn, num_buckets) -> bucket``; defaults to Fibonacci hashing.
    count_bucket_array:
        Include the bucket-head array in :meth:`size_bytes` (the paper's
        Table 2 size formula does not, so the default is False).

    The subblock factor comes from ``layout.subblock_factor`` so the page
    table, TLBs, and address arithmetic can never disagree.
    """

    name = "clustered"

    def __init__(
        self,
        layout: AddressLayout = DEFAULT_LAYOUT,
        cache: CacheModel = DEFAULT_CACHE,
        num_buckets: int = 4096,
        hash_fn: Callable[[int, int], int] = multiplicative_hash,
        count_bucket_array: bool = False,
    ):
        super().__init__(layout, cache)
        if num_buckets < 1:
            raise ConfigurationError(f"need at least one bucket, got {num_buckets}")
        self.num_buckets = num_buckets
        self.hash_fn = hash_fn
        self.count_bucket_array = count_bucket_array
        self._buckets: Dict[int, List[ClusteredNode]] = {}
        self._node_count = 0
        self._node_bytes = 0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @property
    def subblock_factor(self) -> int:
        """Base pages per page block (the paper's ``s``)."""
        return self.layout.subblock_factor

    def _bucket_of(self, vpbn: int) -> int:
        return self.hash_fn(vpbn, self.num_buckets)

    def _chain(self, vpbn: int) -> List[ClusteredNode]:
        return self._buckets.get(self._bucket_of(vpbn), [])

    def _node_lines(self, node: ClusteredNode, boff: Optional[int]) -> int:
        """Cache lines touched inside one visited node.

        Walking past a node reads only its tag and next pointer (the first
        16 bytes: one line).  Reading a mapping additionally touches the
        line holding slot ``boff``; for 24-byte superpage/partial-subblock
        nodes and for large cache lines that is the same line, but a
        ``16 + 8s``-byte clustered node can span lines — the §6.3
        sensitivity the paper quantifies for 64- and 128-byte lines.
        """
        reads = [(0, NODE_OVERHEAD_BYTES)]
        if boff is not None:
            if node.kind is PTEKind.BASE:
                offset = NODE_OVERHEAD_BYTES + MAPPING_BYTES * boff
            else:
                offset = NODE_OVERHEAD_BYTES  # single mapping word
            reads.append((offset, MAPPING_BYTES))
        return self.cache.lines_touched(reads)

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    def _walk(self, vpn: int) -> WalkOutcome:
        vpbn, boff = self.layout.split(vpn)
        chain = self._chain(vpbn)
        if not chain:
            return None, 1, 1
        lines = 0
        probes = 0
        for node in chain:
            probes += 1
            if node.vpbn != vpbn:
                lines += self._node_lines(node, None)
                continue
            mapping = node.mapping_for(vpn, self.layout)
            if mapping is None:
                # Tag matched but no valid mapping here (clear valid bit or
                # non-covering small superpage): read the mapping word and
                # continue down the chain (§5).
                lines += self._node_lines(node, boff)
                continue
            lines += self._node_lines(node, boff)
            result = self._result_from(node, vpn, mapping, lines, probes)
            return result, lines, probes
        return None, lines, probes

    def _result_from(
        self,
        node: ClusteredNode,
        vpn: int,
        mapping: Mapping,
        lines: int,
        probes: int,
    ) -> LookupResult:
        block_base = self.layout.vpn_of_block(node.vpbn)
        if node.kind is PTEKind.BASE:
            return LookupResult(
                vpn=vpn, ppn=mapping.ppn, attrs=mapping.attrs, kind=PTEKind.BASE,
                base_vpn=vpn, npages=1, base_ppn=mapping.ppn, valid_mask=1,
                cache_lines=lines, probes=probes,
            )
        if node.kind is PTEKind.PARTIAL_SUBBLOCK:
            return LookupResult(
                vpn=vpn, ppn=mapping.ppn, attrs=mapping.attrs,
                kind=PTEKind.PARTIAL_SUBBLOCK, base_vpn=block_base,
                npages=self.subblock_factor, base_ppn=node.ppn,
                valid_mask=node.valid_mask, cache_lines=lines, probes=probes,
            )
        return LookupResult(
            vpn=vpn, ppn=mapping.ppn, attrs=mapping.attrs, kind=PTEKind.SUPERPAGE,
            base_vpn=node.base_vpn, npages=node.npages, base_ppn=node.ppn,
            valid_mask=(1 << node.npages) - 1, cache_lines=lines, probes=probes,
        )

    def lookup_block(self, vpbn: int) -> BlockLookupResult:
        """Single-walk block fetch for complete-subblock prefetch (§4.4).

        One hash probe sequence finds every node tagged with the block;
        reading a full clustered node costs ``ceil((16 + 8s) / line)``
        lines — adjacent memory, which is why Figure 11d keeps clustered
        (and linear) tables near 1.0 while hashed tables need ``s`` probes.
        """
        chain = self._chain(vpbn)
        s = self.subblock_factor
        mappings: List[Optional[Mapping]] = [None] * s
        lines = 0
        probes = 0
        if not chain:
            self.stats.record_walk(1, 1, fault=True)
            self._trace_block(vpbn, 1, 1, fault=True)
            return BlockLookupResult(vpbn, tuple(mappings), 1, 1)
        block_base = self.layout.vpn_of_block(vpbn)
        found = False
        for node in chain:
            probes += 1
            if node.vpbn != vpbn:
                lines += self._node_lines(node, None)
                continue
            found = True
            lines += self.cache.lines_for_node(node.size_bytes())
            for boff in range(s):
                if mappings[boff] is None:
                    mappings[boff] = node.mapping_for(block_base + boff, self.layout)
        fault = not found
        self.stats.record_walk(lines, probes, fault)
        self._trace_block(vpbn, lines, probes, fault)
        return BlockLookupResult(vpbn, tuple(mappings), lines, probes)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _nodes_for(self, vpbn: int) -> List[ClusteredNode]:
        return [node for node in self._chain(vpbn) if node.vpbn == vpbn]

    def _attach(self, node: ClusteredNode) -> None:
        bucket = self._bucket_of(node.vpbn)
        chain = self._buckets.setdefault(bucket, [])
        self.stats.op_nodes_visited += max(1, len(chain))
        chain.append(node)
        self._node_count += 1
        self._node_bytes += node.size_bytes()
        self.stats.op_nodes_allocated += 1

    def _detach(self, node: ClusteredNode) -> None:
        bucket = self._bucket_of(node.vpbn)
        chain = self._buckets[bucket]
        chain.remove(node)
        if not chain:
            del self._buckets[bucket]
        self._node_count -= 1
        self._node_bytes -= node.size_bytes()

    def _check_not_mapped(self, vpn: int) -> None:
        for node in self._nodes_for(self.layout.vpbn(vpn)):
            if node.mapping_for(vpn, self.layout) is not None:
                raise MappingExistsError(vpn)

    def insert(self, vpn: int, ppn: int, attrs: int = DEFAULT_ATTRS) -> None:
        """Add a base-page mapping.

        The first insertion into a page block allocates one node and links
        it into the chain; subsequent insertions for the same block fill
        slots of the existing node — the §3.1 amortisation of memory
        allocation and list insertion over a whole page block.
        """
        self.layout.check_vpn(vpn)
        self.layout.check_ppn(ppn)
        self._check_not_mapped(vpn)
        vpbn, boff = self.layout.split(vpn)
        self.stats.inserts += 1
        for node in self._nodes_for(vpbn):
            if node.kind is PTEKind.BASE:
                self.stats.op_nodes_visited += 1
                node.slots[boff] = Mapping(ppn, attrs)
                return
        node = ClusteredNode(
            vpbn=vpbn, kind=PTEKind.BASE, subblock_factor=self.subblock_factor,
            slots=[None] * self.subblock_factor,
        )
        node.slots[boff] = Mapping(ppn, attrs)
        self._attach(node)

    def insert_superpage(
        self, base_vpn: int, npages: int, base_ppn: int, attrs: int = DEFAULT_ATTRS
    ) -> None:
        """Add a superpage PTE.

        Superpages up to the page-block size occupy one 24-byte node.
        Larger superpages are replicated once per covered page block (§5) —
        a factor of ``s`` less replication than conventional tables need.
        """
        if not is_power_of_two(npages):
            raise AlignmentError(f"superpage page count {npages} not a power of two")
        if base_vpn % npages or base_ppn % npages:
            raise AlignmentError(
                f"superpage at VPN {base_vpn:#x}/PPN {base_ppn:#x} is not "
                f"{npages}-page aligned"
            )
        for vpn in range(base_vpn, base_vpn + npages):
            self._check_not_mapped(vpn)
        self.stats.inserts += 1
        s = self.subblock_factor
        if npages <= s:
            self._attach(
                ClusteredNode(
                    vpbn=self.layout.vpbn(base_vpn), kind=PTEKind.SUPERPAGE,
                    subblock_factor=s, ppn=base_ppn, attrs=attrs,
                    base_vpn=base_vpn, npages=npages,
                )
            )
            return
        # Replicate once per page block covered by the large superpage.
        for block_start in range(base_vpn, base_vpn + npages, s):
            self._attach(
                ClusteredNode(
                    vpbn=self.layout.vpbn(block_start), kind=PTEKind.SUPERPAGE,
                    subblock_factor=s, ppn=base_ppn, attrs=attrs,
                    base_vpn=base_vpn, npages=npages,
                )
            )

    def insert_partial_subblock(
        self, vpbn: int, valid_mask: int, base_ppn: int, attrs: int = DEFAULT_ATTRS
    ) -> None:
        """Add a partial-subblock PTE for one properly-placed page block."""
        if valid_mask == 0:
            raise ConfigurationError("partial-subblock PTE needs a non-empty mask")
        if valid_mask >> self.subblock_factor:
            raise ConfigurationError(
                f"valid mask {valid_mask:#x} wider than subblock factor "
                f"{self.subblock_factor}"
            )
        if base_ppn % self.subblock_factor:
            raise AlignmentError(
                f"partial-subblock base PPN {base_ppn:#x} not block-aligned"
            )
        block_base = self.layout.vpn_of_block(vpbn)
        for boff in range(self.subblock_factor):
            if (valid_mask >> boff) & 1:
                self._check_not_mapped(block_base + boff)
        self.stats.inserts += 1
        self._attach(
            ClusteredNode(
                vpbn=vpbn, kind=PTEKind.PARTIAL_SUBBLOCK,
                subblock_factor=self.subblock_factor, ppn=base_ppn, attrs=attrs,
                valid_mask=valid_mask,
            )
        )

    def remove(self, vpn: int) -> None:
        """Remove the mapping for one base page.

        Clears the slot (or valid bit) holding ``vpn`` and frees the node
        when it becomes empty.  Removing a page of a superpage first demotes
        the superpage to per-page mappings, as an OS would.
        """
        vpbn, boff = self.layout.split(vpn)
        self.stats.removes += 1
        for node in self._nodes_for(vpbn):
            self.stats.op_nodes_visited += 1
            if node.kind is PTEKind.BASE and node.slots[boff] is not None:
                node.slots[boff] = None
                if node.population() == 0:
                    self._detach(node)
                return
            if node.kind is PTEKind.PARTIAL_SUBBLOCK and (node.valid_mask >> boff) & 1:
                node.valid_mask &= ~(1 << boff)
                if node.valid_mask == 0:
                    self._detach(node)
                return
            if node.kind is PTEKind.SUPERPAGE and node.covers(vpn, self.layout):
                self.demote_superpage(node.base_vpn)
                self.remove(vpn)
                self.stats.removes -= 1  # the recursive call counted it
                return
        raise PageFaultError(vpn, f"no clustered PTE maps VPN {vpn:#x}")

    def mark(self, vpn: int, set_bits: int = 0, clear_bits: int = 0) -> int:
        """Update attribute bits in place (reference/modified maintenance).

        Base-page slots update individually; wide PTEs share one
        attribute field for the whole block, so one update covers it.
        """
        vpbn, boff = self.layout.split(vpn)
        for node in self._nodes_for(vpbn):
            mapping = node.mapping_for(vpn, self.layout)
            if mapping is None:
                continue
            self.stats.op_nodes_visited += 1
            if node.kind is PTEKind.BASE:
                new_attrs = (mapping.attrs | set_bits) & ~clear_bits
                node.slots[boff] = Mapping(mapping.ppn, new_attrs)
                return new_attrs
            node.attrs = (node.attrs | set_bits) & ~clear_bits
            return node.attrs
        raise PageFaultError(vpn, f"no clustered PTE maps VPN {vpn:#x}")

    def remove_superpage(self, base_vpn: int) -> None:
        """Remove a whole superpage PTE (all replicas for large ones)."""
        nodes = [
            node
            for block in range(
                self.layout.vpbn(base_vpn),
                self.layout.vpbn(base_vpn) + max(1, self._superpage_blocks(base_vpn)),
            )
            for node in self._nodes_for(block)
            if node.kind is PTEKind.SUPERPAGE and node.base_vpn == base_vpn
        ]
        if not nodes:
            raise PageFaultError(base_vpn, f"no superpage PTE at VPN {base_vpn:#x}")
        for node in nodes:
            self._detach(node)
        self.stats.removes += 1

    def _superpage_blocks(self, base_vpn: int) -> int:
        for node in self._nodes_for(self.layout.vpbn(base_vpn)):
            if node.kind is PTEKind.SUPERPAGE and node.base_vpn == base_vpn:
                return max(1, node.npages // self.subblock_factor)
        return 1

    def demote_superpage(self, base_vpn: int) -> None:
        """Replace a superpage PTE with equivalent per-page mappings.

        The inverse of promotion: used when the OS must unmap or re-protect
        part of a superpage.
        """
        vpbn = self.layout.vpbn(base_vpn)
        target = None
        for node in self._nodes_for(vpbn):
            if node.kind is PTEKind.SUPERPAGE and node.base_vpn == base_vpn:
                target = node
                break
        if target is None:
            raise PageFaultError(base_vpn, f"no superpage PTE at VPN {base_vpn:#x}")
        npages, ppn, attrs = target.npages, target.ppn, target.attrs
        self.remove_superpage(base_vpn)
        for i in range(npages):
            self.insert(base_vpn + i, ppn + i, attrs)

    def promote_block(self, vpbn: int) -> bool:
        """Promote a fully-populated, properly-placed clustered node to a
        block-sized superpage PTE (§5's incremental promotion).

        Returns True when promotion happened.  Clustered tables make the
        promotion check trivial because the block's mappings sit together
        in one node.
        """
        s = self.subblock_factor
        block_base = self.layout.vpn_of_block(vpbn)
        for node in self._nodes_for(vpbn):
            if node.kind is not PTEKind.BASE:
                continue
            if node.population() != s:
                return False
            base_ppn = node.slots[0].ppn
            if base_ppn % s:
                return False
            attrs = node.slots[0].attrs
            contiguous = all(
                node.slots[i] is not None
                and node.slots[i].ppn == base_ppn + i
                and node.slots[i].attrs == attrs
                for i in range(s)
            )
            if not contiguous:
                return False
            self._detach(node)
            self.insert_superpage(block_base, s, base_ppn, attrs)
            return True
        return False

    def coalesce_block(self, vpbn: int) -> bool:
        """Convert a properly-placed, partially-populated clustered node
        into a 24-byte partial-subblock node (§5's incremental formation).

        Returns True when the node was converted.
        """
        s = self.subblock_factor
        for node in self._nodes_for(vpbn):
            if node.kind is not PTEKind.BASE or node.population() == 0:
                continue
            attrs = None
            base_ppn = None
            mask = 0
            for boff in range(s):
                slot = node.slots[boff]
                if slot is None:
                    continue
                slot_base = slot.ppn - boff
                if slot_base % s:
                    return False
                if base_ppn is None:
                    base_ppn, attrs = slot_base, slot.attrs
                elif slot_base != base_ppn or slot.attrs != attrs:
                    return False
                mask |= 1 << boff
            if base_ppn is None:
                return False
            self._detach(node)
            self.insert_partial_subblock(vpbn, mask, base_ppn, attrs)
            return True
        return False

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Nodes currently allocated."""
        return self._node_count

    def nodes(self) -> List[ClusteredNode]:
        """All nodes (for inspection and tests); order is unspecified."""
        return [node for chain in self._buckets.values() for node in chain]

    def size_bytes(self) -> int:
        """Table memory: per-node format sizes (Figure 7).

        Maintained incrementally at attach/detach (node sizes are fixed
        at construction), so lifecycle-heavy callers — the tenancy
        arena charges table growth on every admission — stay O(1).
        """
        size = self._node_bytes
        if self.count_bucket_array:
            size += self.bucket_array_bytes()
        return size

    def bucket_array_bytes(self) -> int:
        """Memory of the bucket-head array (one node slot per bucket).

        Head slots are sized for the largest node so any format can be
        inlined; the paper's formulae exclude this array.
        """
        return self.num_buckets * (NODE_OVERHEAD_BYTES + MAPPING_BYTES)

    def load_factor(self) -> float:
        """The paper's α for clustered tables: nodes per bucket."""
        return self._node_count / self.num_buckets

    def chain_lengths(self) -> List[int]:
        """Chain length of every non-empty bucket."""
        return [len(chain) for chain in self._buckets.values()]

    def describe(self) -> str:
        return (
            f"{self.name} page table ({self.num_buckets} buckets, "
            f"subblock factor {self.subblock_factor})"
        )
