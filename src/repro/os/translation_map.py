"""The logical contents of a process's page tables.

Every page table organisation in the paper stores the *same logical PTEs*;
they differ only in structure and cost.  :class:`TranslationMap` is that
shared logical content — produced from an address-space snapshot by the
page-size policy — and provides:

- ``populate(table)``: write the PTEs into any page table, using its
  native superpage/partial-subblock support or per-page PTEs as
  appropriate;
- ``pte_columns()``: the PTEs ``populate`` writes, as numpy columns in
  the order it writes them — what the batch engine builds walk kernels
  from without populating an object table;
- ``query(vpn)`` / ``block_mappings(vpbn)``: the oracle the decoupled TLB
  simulator uses to fill TLB entries without walking a page table (the
  miss *stream* is independent of page table organisation — the paper's
  own methodological observation in §6.1).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Dict, Iterable, NamedTuple, Optional, Tuple

import numpy as np

from repro.addr.layout import AddressLayout
from repro.addr.space import AddressSpace, Mapping
from repro.os.promotion import (
    BASE_ONLY_POLICY,
    BlockFormat,
    DynamicPageSizePolicy,
    PolicyDecision,
)
from repro.pagetables.base import PageTable
from repro.pagetables.pte import PTEKind


@dataclass(frozen=True)
class LogicalPTE:
    """One logical PTE: format plus coverage, independent of page table.

    Field names deliberately match
    :class:`~repro.pagetables.base.LookupResult` so TLB-fill logic
    (:func:`repro.mmu.fill.build_entry`) accepts either.
    """

    kind: PTEKind
    base_vpn: int
    npages: int
    base_ppn: int
    attrs: int
    valid_mask: int

    def translates(self, vpn: int) -> bool:
        """True when this PTE supplies a valid mapping for ``vpn``."""
        if not self.base_vpn <= vpn < self.base_vpn + self.npages:
            return False
        return bool((self.valid_mask >> (vpn - self.base_vpn)) & 1)

    def ppn_for(self, vpn: int) -> int:
        """Resolved PPN for a VPN this PTE translates."""
        return self.base_ppn + (vpn - self.base_vpn)


class PTEColumns(NamedTuple):
    """The PTEs :meth:`TranslationMap.populate` writes, one row per write.

    Rows are in write order; each column is an int64 array.  ``kind`` is
    ``int(PTEKind)``.  A BASE row maps the single page ``vpn`` (its
    ``npages`` is 1 and its ``valid_mask`` 1); a SUPERPAGE or
    PARTIAL_SUBBLOCK row covers ``npages`` pages from ``vpn``, the first
    page of its block, with ``ppn`` that page's frame.
    """

    kind: np.ndarray
    vpn: np.ndarray
    npages: np.ndarray
    ppn: np.ndarray
    attrs: np.ndarray
    valid_mask: np.ndarray

    def select(self, rows: np.ndarray) -> "PTEColumns":
        """The rows picked by a boolean mask or index array, in order."""
        return PTEColumns(*(column[rows] for column in self))

    def pages(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(row, vpn)`` of every page a row validly maps: row by row in
        write order, by block offset within a row."""
        offset = np.arange(int(self.npages.max(initial=0)), dtype=np.int64)
        row, offset = np.nonzero(
            (offset < self.npages[:, None])
            & (((self.valid_mask[:, None] >> offset) & 1) == 1)
        )
        return row, self.vpn[row] + offset


class TranslationMap:
    """Logical page-table contents for one process snapshot."""

    def __init__(self, layout: AddressLayout):
        self.layout = layout
        #: Per-page PTEs for blocks the policy left as BASE.
        self._base: Dict[int, Mapping] = {}
        #: Wide PTEs (superpage / partial-subblock) keyed by VPBN.
        self._wide: Dict[int, LogicalPTE] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_space(
        cls,
        space: AddressSpace,
        policy: Optional[DynamicPageSizePolicy] = None,
    ) -> "TranslationMap":
        """Build the logical PTEs for a snapshot under a page-size policy.

        With no policy (or :data:`~repro.os.promotion.BASE_ONLY_POLICY`)
        every mapping stays a base-page PTE, matching an unmodified OS.
        """
        policy = policy or BASE_ONLY_POLICY
        tmap = cls(space.layout)
        s = space.layout.subblock_factor
        for decision in policy.decide(space).values():
            block_base = space.layout.vpn_of_block(decision.vpbn)
            if decision.format is BlockFormat.SUPERPAGE:
                tmap._wide[decision.vpbn] = LogicalPTE(
                    kind=PTEKind.SUPERPAGE, base_vpn=block_base, npages=s,
                    base_ppn=decision.base_ppn, attrs=decision.attrs,
                    valid_mask=(1 << s) - 1,
                )
            elif decision.format is BlockFormat.PARTIAL_SUBBLOCK:
                tmap._wide[decision.vpbn] = LogicalPTE(
                    kind=PTEKind.PARTIAL_SUBBLOCK, base_vpn=block_base,
                    npages=s, base_ppn=decision.base_ppn,
                    attrs=decision.attrs, valid_mask=decision.valid_mask,
                )
            else:
                for boff in range(s):
                    mapping = space.get(block_base + boff)
                    if mapping is not None:
                        tmap._base[block_base + boff] = mapping
        return tmap

    # ------------------------------------------------------------------
    # Oracle queries
    # ------------------------------------------------------------------
    def query(self, vpn: int) -> Optional[LogicalPTE]:
        """The logical PTE translating ``vpn``, or None (page fault)."""
        wide = self._wide.get(self.layout.vpbn(vpn))
        if wide is not None and wide.translates(vpn):
            return wide
        mapping = self._base.get(vpn)
        if mapping is None:
            return None
        return LogicalPTE(
            kind=PTEKind.BASE, base_vpn=vpn, npages=1, base_ppn=mapping.ppn,
            attrs=mapping.attrs, valid_mask=1,
        )

    def block_mappings(self, vpbn: int) -> Tuple[Optional[Mapping], ...]:
        """Per-page resolved mappings for one page block."""
        s = self.layout.subblock_factor
        block_base = self.layout.vpn_of_block(vpbn)
        result = []
        for boff in range(s):
            vpn = block_base + boff
            pte = self.query(vpn)
            if pte is None:
                result.append(None)
            else:
                result.append(Mapping(pte.ppn_for(vpn), pte.attrs))
        return tuple(result)

    def content_digest(self) -> bytes:
        """SHA-256 over the logical PTEs and the address layout.

        Everything a TLB fill can observe: per-page mappings, wide PTEs
        (format, coverage, frames, attributes), and the layout geometry.
        Used by persistent caches to content-address phase-1 miss streams.
        Maps are treated as immutable once built; the digest is memoised.
        """
        cached = getattr(self, "_content_digest", None)
        if cached is None:
            digest = hashlib.sha256()
            layout = self.layout
            digest.update(
                struct.pack(
                    "<4q", layout.page_shift, layout.subblock_factor,
                    layout.va_bits, layout.pa_bits,
                )
            )
            for vpn in sorted(self._base):
                mapping = self._base[vpn]
                digest.update(struct.pack("<3q", vpn, mapping.ppn, mapping.attrs))
            for vpbn in sorted(self._wide):
                pte = self._wide[vpbn]
                digest.update(
                    struct.pack(
                        "<6q", vpbn, int(pte.kind), pte.npages,
                        pte.base_ppn, pte.attrs, pte.valid_mask,
                    )
                )
            cached = self._content_digest = digest.digest()
        return cached

    def mapped_vpns(self) -> Iterable[int]:
        """Every VPN with a valid translation."""
        for vpn in self._base:
            yield vpn
        for pte in self._wide.values():
            for boff in range(pte.npages):
                if (pte.valid_mask >> boff) & 1:
                    yield pte.base_vpn + boff

    # ------------------------------------------------------------------
    # Statistics consumed by the formulae and reports
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """PTE counts by format."""
        superpages = sum(
            1 for pte in self._wide.values() if pte.kind is PTEKind.SUPERPAGE
        )
        return {
            "base": len(self._base),
            "superpage": superpages,
            "partial_subblock": len(self._wide) - superpages,
        }

    def wide_fraction(self) -> float:
        """The paper's ``fss``: fraction of populated page blocks using a
        superpage or partial-subblock PTE."""
        base_blocks = {self.layout.vpbn(vpn) for vpn in self._base}
        total = len(base_blocks | set(self._wide))
        if total == 0:
            return 0.0
        return len(self._wide) / total

    # ------------------------------------------------------------------
    # Page-table population
    # ------------------------------------------------------------------
    def pte_columns(self, base_pages_only: bool = False) -> PTEColumns:
        """The PTEs :meth:`populate` writes, in the order it writes them.

        Base-page PTEs come first, in map order; then the wide PTEs in
        map order, each as one row or, with ``base_pages_only``, as one
        BASE row per valid page in block-offset order.
        """
        count = len(self._base)
        mappings = self._base.values()
        base = PTEColumns(
            np.full(count, int(PTEKind.BASE), dtype=np.int64),
            np.fromiter(self._base, dtype=np.int64, count=count),
            np.ones(count, dtype=np.int64),
            np.fromiter((m.ppn for m in mappings), dtype=np.int64, count=count),
            np.fromiter((m.attrs for m in mappings), dtype=np.int64, count=count),
            np.ones(count, dtype=np.int64),
        )
        ptes = list(self._wide.values())
        wide = PTEColumns(
            *(
                np.array(values, dtype=np.int64)
                for values in (
                    [int(p.kind) for p in ptes],
                    [p.base_vpn for p in ptes],
                    [p.npages for p in ptes],
                    [p.base_ppn for p in ptes],
                    [p.attrs for p in ptes],
                    [p.valid_mask for p in ptes],
                )
            )
        )
        if base_pages_only:
            row, vpn = wide.pages()
            ones = np.ones(row.shape[0], dtype=np.int64)
            wide = PTEColumns(
                np.full(row.shape[0], int(PTEKind.BASE), dtype=np.int64),
                vpn, ones, wide.ppn[row] + (vpn - wide.vpn[row]),
                wide.attrs[row], ones,
            )
        return PTEColumns(*map(np.concatenate, zip(base, wide)))

    def populate(self, table: PageTable, base_pages_only: bool = False) -> None:
        """Write the logical PTEs into a page table.

        ``base_pages_only`` decomposes every wide PTE into per-page base
        PTEs — what a single-page-size system stores (Figures 9 and 11a).
        Otherwise wide PTEs use the table's native support (clustered,
        grain-16 hashed, superpage-index) or its replicate-PTE fallback
        (linear, forward-mapped).  The writes are the rows of
        :meth:`pte_columns`, in order.
        """
        columns = self.pte_columns(base_pages_only)
        for kind, vpn, npages, ppn, attrs, valid_mask in zip(
            *(column.tolist() for column in columns)
        ):
            if kind == PTEKind.BASE:
                table.insert(vpn, ppn, attrs)
            elif kind == PTEKind.SUPERPAGE:
                table.insert_superpage(vpn, npages, ppn, attrs)
            else:
                table.insert_partial_subblock(
                    self.layout.vpbn(vpn), valid_mask, ppn, attrs
                )

    def __len__(self) -> int:
        counts = self.counts()
        return counts["base"] + counts["superpage"] + counts["partial_subblock"]
