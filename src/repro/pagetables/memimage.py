"""Byte-exact memory images of hashed and clustered page tables.

Everything else in the library models page tables as Python objects with
*accounted* sizes.  This module grounds that accounting: it lays a table
out into an actual ``bytearray`` using the 64-bit PTE encodings of
Figures 1, 6 and 7 — bucket-head array, chained nodes, tags, next
pointers — and provides a walker that translates VPNs by *reading raw
memory only*, exactly as a TLB miss handler would.

Layout of a clustered node in the image (Figure 7)::

    +0   VPBN tag            (8 bytes; tag << 1 | 1, so 0 means "empty";
                              bits 56-62 carry a small superpage's block
                              offset, an image-internal disambiguator)
    +8   next pointer        (8 bytes; byte offset of next node, 0 = null)
    +16  mapping word 0      (encoded BasePTE / SuperpagePTE / PartialSubblockPTE)
    ...  mapping word s-1    (only for full clustered nodes)

Hashed nodes are the same with exactly one mapping word.  The bucket-head
array at offset 0 holds one full node slot per bucket, so bucket *i*'s
first node lives at ``i * node_size`` (the §2 description: "the hash
function indexes into an array of hash nodes — the first elements of the
hash buckets").

Used by tests to prove ``size_bytes()`` honest (image payload == accounted
bytes) and by anyone who wants to inspect what the OS would really write.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.addr.layout import AddressLayout
from repro.errors import ConfigurationError, PageFaultError
from repro.pagetables.hashed import HashedPageTable
from repro.pagetables.pte import (
    BasePTE,
    PartialSubblockPTE,
    PTEKind,
    SuperpagePTE,
    decode_pte,
)

if TYPE_CHECKING:  # typing-only; a runtime import would cycle the package
    from repro.core.clustered import ClusteredPageTable

#: Bytes of tag + next-pointer overhead per node (mirrors
#: repro.core.clustered; kept literal here to avoid a circular import).
NODE_OVERHEAD_BYTES = 16
#: Bytes per mapping word.
MAPPING_BYTES = 8

_WORD = struct.Struct("<Q")


def _encode_mapping(node) -> List[int]:
    """Encode a ClusteredNode's mapping word(s) as 64-bit integers."""
    if node.kind is PTEKind.BASE:
        words = []
        for slot in node.slots:
            if slot is None:
                words.append(BasePTE(ppn=0, attrs=0, valid=False).encode())
            else:
                words.append(BasePTE(ppn=slot.ppn, attrs=slot.attrs).encode())
        return words
    if node.kind is PTEKind.SUPERPAGE:
        return [SuperpagePTE(ppn=node.ppn, npages=node.npages,
                             attrs=node.attrs).encode()]
    return [PartialSubblockPTE(ppn=node.ppn, valid_mask=node.valid_mask,
                               attrs=node.attrs).encode()]


class MemoryImage:
    """A page table serialised into one flat byte buffer.

    Construct with :meth:`of_clustered` or :meth:`of_hashed`; translate
    with :meth:`walk`, which reads only ``self.data``.
    """

    def __init__(
        self,
        data: bytearray,
        layout: AddressLayout,
        num_buckets: int,
        node_bytes: int,
        mapping_words: int,
        block_tagged: bool,
        hash_fn=None,
    ):
        from repro.pagetables.hashed import multiplicative_hash

        self.data = data
        self.layout = layout
        self.num_buckets = num_buckets
        self.node_bytes = node_bytes
        self.mapping_words = mapping_words
        self.block_tagged = block_tagged
        self.hash_fn = hash_fn or multiplicative_hash

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def of_clustered(cls, table: "ClusteredPageTable") -> "MemoryImage":
        """Serialise a clustered page table (any node mix) into bytes.

        Nodes of all three formats are padded to the full clustered node
        size so the image stays uniformly indexable; the honest-size
        comparison against ``size_bytes()`` therefore uses
        :meth:`payload_bytes`, which counts each node at its Figure 7
        format size.
        """
        s = table.subblock_factor
        node_bytes = NODE_OVERHEAD_BYTES + MAPPING_BYTES * s
        return cls._build(
            layout=table.layout,
            num_buckets=table.num_buckets,
            node_bytes=node_bytes,
            mapping_words=s,
            block_tagged=True,
            chains=cls._clustered_chains(table),
            hash_fn=table.hash_fn,
        )

    @classmethod
    def of_hashed(cls, table: HashedPageTable) -> "MemoryImage":
        """Serialise a (grain-1) hashed page table into bytes."""
        if table.grain != 1:
            raise ConfigurationError(
                "memory images of block-grain hashed tables are not "
                "supported; use a clustered image instead"
            )
        node_bytes = NODE_OVERHEAD_BYTES + MAPPING_BYTES
        chains: Dict[int, List[Tuple[int, List[int], int]]] = {}
        for bucket, nodes in table._buckets.items():
            chains[bucket] = [
                (node.tag,
                 [BasePTE(ppn=node.ppn, attrs=node.attrs).encode()], 0)
                for node in nodes
            ]
        return cls._build(
            layout=table.layout,
            num_buckets=table.num_buckets,
            node_bytes=node_bytes,
            mapping_words=1,
            block_tagged=False,
            chains=chains,
            hash_fn=table.hash_fn,
        )

    @staticmethod
    def _clustered_chains(table: "ClusteredPageTable"):
        s = table.subblock_factor
        chains: Dict[int, List[Tuple[int, List[int], int]]] = {}
        for bucket, nodes in table._buckets.items():
            entries = []
            for node in nodes:
                if node.kind is PTEKind.SUPERPAGE and node.npages < s:
                    sub_off = node.base_vpn % s
                else:
                    sub_off = 0
                entries.append((node.vpbn, _encode_mapping(node), sub_off))
            chains[bucket] = entries
        return chains

    @classmethod
    def _build(cls, layout, num_buckets, node_bytes, mapping_words,
               block_tagged, chains, hash_fn=None) -> "MemoryImage":
        overflow_nodes = sum(
            max(0, len(chain) - 1) for chain in chains.values()
        )
        total = node_bytes * (num_buckets + overflow_nodes)
        data = bytearray(total)
        image = cls(data, layout, num_buckets, node_bytes, mapping_words,
                    block_tagged, hash_fn=hash_fn)
        next_free = node_bytes * num_buckets
        for bucket, chain in chains.items():
            offset = bucket * node_bytes
            for i, (tag, words, sub_off) in enumerate(chain):
                if i > 0:
                    # Allocate an overflow node and link the previous one.
                    image._write_word(offset + 8, next_free)
                    offset = next_free
                    next_free += node_bytes
                image._write_word(offset, (sub_off << 56) | (tag << 1) | 1)
                for w, word in enumerate(words):
                    image._write_word(offset + NODE_OVERHEAD_BYTES + 8 * w, word)
        return image

    # ------------------------------------------------------------------
    # Raw access
    # ------------------------------------------------------------------
    def _read_word(self, offset: int) -> int:
        return _WORD.unpack_from(self.data, offset)[0]

    def _write_word(self, offset: int, value: int) -> None:
        _WORD.pack_into(self.data, offset, value)

    # ------------------------------------------------------------------
    # Translation by reading bytes only
    # ------------------------------------------------------------------
    def walk(self, vpn: int) -> Tuple[int, int]:
        """Translate a VPN by reading the image; returns (ppn, attrs).

        Implements the paper's Figure 8 handler over raw memory: hash the
        tag, follow next pointers comparing tags, dispatch on the S field
        of the matched mapping word.
        """
        if self.block_tagged:
            tag = self.layout.vpbn(vpn)
            boff = self.layout.boff(vpn)
        else:
            tag, boff = vpn, 0
        offset: Optional[int] = (
            self.hash_fn(tag, self.num_buckets) * self.node_bytes
        )
        while offset is not None:
            tag_word = self._read_word(offset)
            if tag_word & 1 and ((tag_word >> 1) & ((1 << 52) - 1)) == tag:
                sub_off = (tag_word >> 56) & 0x7F
                result = self._read_mapping(offset, vpn, boff, sub_off)
                if result is not None:
                    return result
            next_offset = self._read_word(offset + 8)
            # A zero next pointer is null: the bucket array occupies
            # offset 0, so no chained node can ever live there.
            offset = next_offset if next_offset else None
        raise PageFaultError(vpn)

    def _read_mapping(self, node_offset: int, vpn: int, boff: int,
                      sub_off: int) -> Optional[Tuple[int, int]]:
        first = decode_pte(
            self._read_word(node_offset + NODE_OVERHEAD_BYTES)
        )
        if isinstance(first, SuperpagePTE):
            if not first.valid:
                return None
            s = self.layout.subblock_factor
            if first.npages >= s:
                # Block-or-larger superpage: its natural alignment makes
                # the in-superpage offset recoverable from the VPN alone.
                return first.ppn + (vpn & (first.npages - 1)), first.attrs
            # Small superpage: the tag word's sub-block offset pins down
            # which aligned sub-range of the block it covers.
            base_vpn = self.layout.vpn_of_block(self.layout.vpbn(vpn)) + sub_off
            if not base_vpn <= vpn < base_vpn + first.npages:
                return None
            return first.ppn + (vpn - base_vpn), first.attrs
        if isinstance(first, PartialSubblockPTE):
            if not first.is_valid(boff):
                return None
            return first.ppn + boff, first.attrs
        # Full clustered node (or hashed node): read the slot for boff.
        word = self._read_word(
            node_offset + NODE_OVERHEAD_BYTES + 8 * min(boff, self.mapping_words - 1)
        )
        pte = decode_pte(word)
        if not isinstance(pte, BasePTE) or not pte.valid:
            return None
        return pte.ppn, pte.attrs

    def walk_reads(self, vpn: int):
        """Like :meth:`walk`, but also return the byte reads performed.

        Returns ``(translation_or_None, reads)`` where ``reads`` is a
        list of ``(address, nbytes)`` pairs in walk order — the input a
        real cache simulator needs (see :mod:`repro.mmu.cache_sim`).
        The walk reads each visited node's tag+next words and, on a tag
        match, the relevant mapping word.
        """
        if self.block_tagged:
            tag = self.layout.vpbn(vpn)
            boff = self.layout.boff(vpn)
        else:
            tag, boff = vpn, 0
        reads = []
        offset: Optional[int] = (
            self.hash_fn(tag, self.num_buckets) * self.node_bytes
        )
        while offset is not None:
            reads.append((offset, 16))  # tag + next pointer
            tag_word = self._read_word(offset)
            if tag_word & 1 and ((tag_word >> 1) & ((1 << 52) - 1)) == tag:
                sub_off = (tag_word >> 56) & 0x7F
                first = decode_pte(
                    self._read_word(offset + NODE_OVERHEAD_BYTES)
                )
                if isinstance(first, (SuperpagePTE, PartialSubblockPTE)):
                    reads.append((offset + NODE_OVERHEAD_BYTES, 8))
                else:
                    slot = min(boff, self.mapping_words - 1)
                    reads.append(
                        (offset + NODE_OVERHEAD_BYTES + 8 * slot, 8)
                    )
                result = self._read_mapping(offset, vpn, boff, sub_off)
                if result is not None:
                    return result, reads
            next_offset = self._read_word(offset + 8)
            offset = next_offset if next_offset else None
        return None, reads

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def total_bytes(self) -> int:
        """Size of the whole image including the bucket-head array."""
        return len(self.data)

    def payload_bytes(self) -> int:
        """Bytes of live PTE content at Figure 7 format sizes.

        Matches the corresponding table's ``size_bytes()`` — the honesty
        check the tests perform.
        """
        total = 0
        for offset in range(0, len(self.data), self.node_bytes):
            tag_word = self._read_word(offset)
            if not tag_word & 1:
                continue
            first = decode_pte(self._read_word(offset + NODE_OVERHEAD_BYTES))
            if isinstance(first, (SuperpagePTE, PartialSubblockPTE)):
                total += NODE_OVERHEAD_BYTES + MAPPING_BYTES
            else:
                total += self.node_bytes if self.block_tagged else (
                    NODE_OVERHEAD_BYTES + MAPPING_BYTES
                )
        return total
