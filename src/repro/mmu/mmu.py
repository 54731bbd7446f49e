"""The MMU: a TLB, a page table, and the software miss handler between them.

:class:`MMU` is the integrated simulation path: every reference probes the
TLB; misses walk the page table, count cache lines (the paper's §6 access
metric), and fill the TLB with the best entry the hardware can hold.  For
large parameter sweeps the experiments use the decoupled two-phase
simulator in :mod:`repro.mmu.simulate`, which produces identical metrics
(the miss stream does not depend on the page table organisation — only the
cache-line cost of servicing it does, as the paper's own methodology
exploits).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from typing import TYPE_CHECKING

from repro.errors import PageFaultError, ProtectionFaultError
from repro.mmu.fill import block_entry, build_entry
from repro.mmu.subblock_tlb import CompleteSubblockTLB
from repro.mmu.tlb import BaseTLB
from repro.pagetables.pte import (
    ATTR_MODIFIED,
    ATTR_REFERENCED,
    ATTR_WRITE,
    PTEKind,
)

if TYPE_CHECKING:  # avoid a circular import; PageTable is typing-only here
    from repro.pagetables.base import PageTable


@dataclass
class MMUStats:
    """End-to-end miss-handling counters.

    ``cache_lines / tlb_misses`` is the paper's Figure 11 metric, exposed
    as :attr:`lines_per_miss`.
    """

    accesses: int = 0
    tlb_hits: int = 0
    tlb_misses: int = 0
    cache_lines: int = 0
    page_faults: int = 0
    dirty_traps: int = 0
    protection_faults: int = 0
    misses_by_kind: Counter = field(default_factory=Counter)

    @property
    def lines_per_miss(self) -> float:
        """Average cache lines accessed per TLB miss."""
        if self.tlb_misses == 0:
            return 0.0
        return self.cache_lines / self.tlb_misses

    @property
    def miss_ratio(self) -> float:
        """TLB misses per reference."""
        return self.tlb_misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        """Zero every counter."""
        self.accesses = 0
        self.tlb_hits = 0
        self.tlb_misses = 0
        self.cache_lines = 0
        self.page_faults = 0
        self.dirty_traps = 0
        self.protection_faults = 0
        self.misses_by_kind = Counter()


class MMU:
    """Software-managed MMU: TLB + page table + miss handler.

    Parameters
    ----------
    tlb:
        Any TLB model from :mod:`repro.mmu`.
    page_table:
        Any :class:`~repro.pagetables.base.PageTable`.
    fault_handler:
        Optional callable invoked with the faulting VPN when the page
        table has no mapping; after it returns, the walk is retried once.
        Without a handler, :class:`~repro.errors.PageFaultError`
        propagates.
    prefetch_subblocks:
        For complete-subblock TLBs: service block misses by prefetching
        every mapping under the tag (§4.4, the paper's Figure 11d
        assumption).
    """

    def __init__(
        self,
        tlb: BaseTLB,
        page_table: "PageTable",
        fault_handler: Optional[Callable[[int], None]] = None,
        prefetch_subblocks: bool = True,
        maintain_rm_bits: bool = False,
        enforce_protection: bool = False,
        protection_handler: Optional[Callable[[int], None]] = None,
    ):
        self.tlb = tlb
        self.page_table = page_table
        self.fault_handler = fault_handler
        self.prefetch_subblocks = prefetch_subblocks
        self.maintain_rm_bits = maintain_rm_bits
        self.enforce_protection = enforce_protection
        self.protection_handler = protection_handler
        self.stats = MMUStats()

    # ------------------------------------------------------------------
    def translate(self, vpn: int, write: bool = False) -> int:
        """Translate one reference, simulating TLB and miss handling.

        Returns the PPN.  Raises :class:`PageFaultError` for unmapped
        pages when no fault handler is configured.  With
        ``maintain_rm_bits`` the handler sets the referenced bit on every
        miss and takes a *dirty trap* on the first write to a clean page
        (§3.1's lock-free reference/modified maintenance).  With
        ``enforce_protection`` a write to a non-writable page raises
        :class:`ProtectionFaultError` — or invokes ``protection_handler``
        (e.g. a copy-on-write breaker) and retries once.
        """
        return self._translate(vpn, write, retried=False)

    def _translate(self, vpn: int, write: bool, retried: bool) -> int:
        self.stats.accesses += 1
        entry = self.tlb.lookup(vpn)
        if entry is not None:
            self.stats.tlb_hits += 1
            ppn = entry.ppn_for(vpn)
        else:
            self.stats.tlb_misses += 1
            ppn = self._service_miss(vpn)
            if self.maintain_rm_bits:
                bits = ATTR_REFERENCED | (ATTR_MODIFIED if write else 0)
                self.page_table.mark(vpn, set_bits=bits)
            entry = self.tlb.peek(vpn)
        if (
            write
            and self.enforce_protection
            and entry is not None
            and not entry.attrs & ATTR_WRITE
        ):
            return self._protection_fault(vpn, retried)
        if (
            self.maintain_rm_bits
            and write
            and entry is not None
            and not entry.attrs & ATTR_MODIFIED
        ):
            self._dirty_trap(vpn, entry)
        return ppn

    def _protection_fault(self, vpn: int, retried: bool) -> int:
        self.stats.protection_faults += 1
        if self.protection_handler is None or retried:
            raise ProtectionFaultError(vpn, write=True)
        # The handler (e.g. COW break or mprotect emulation) fixes the
        # mapping; stale TLB entries must die before the retry.
        self.protection_handler(vpn)
        self.tlb.invalidate(vpn)
        return self._translate(vpn, write=True, retried=True)

    def _dirty_trap(self, vpn: int, entry) -> None:
        """First write to a clean page: mark the PTE, refresh the entry."""
        self.stats.dirty_traps += 1
        new_attrs = self.page_table.mark(
            vpn, set_bits=ATTR_REFERENCED | ATTR_MODIFIED
        )
        from repro.mmu.tlb import TLBEntry

        self.tlb.fill(
            TLBEntry(
                base_vpn=entry.base_vpn, npages=entry.npages,
                base_ppn=entry.base_ppn, attrs=new_attrs,
                valid_mask=entry.valid_mask, kind=entry.kind,
                ppns=entry.ppns,
            )
        )

    def _service_miss(self, vpn: int) -> int:
        if (
            isinstance(self.tlb, CompleteSubblockTLB)
            and self.prefetch_subblocks
        ):
            return self._service_block_miss(vpn)
        result = self._walk_with_fault_handling(vpn)
        self.stats.cache_lines += result.cache_lines
        self.stats.misses_by_kind[result.kind] += 1
        if isinstance(self.tlb, CompleteSubblockTLB):
            if not self.tlb.merge_fill(vpn, result.ppn, result.attrs):
                self.tlb.fill(build_entry(self.tlb, result, vpn, result.ppn))
        else:
            self.tlb.fill(build_entry(self.tlb, result, vpn, result.ppn))
        return result.ppn

    def _service_block_miss(self, vpn: int) -> int:
        tlb: CompleteSubblockTLB = self.tlb  # type: ignore[assignment]
        vpbn = self.page_table.layout.vpbn(vpn)
        boff = self.page_table.layout.boff(vpn)
        if tlb.current_entry(vpn) is not None:
            # Subblock miss: the tag is resident but this page's bit is
            # clear — load just this page's PTE and merge it in.
            result = self._walk_with_fault_handling(vpn)
            self.stats.cache_lines += result.cache_lines
            self.stats.misses_by_kind[result.kind] += 1
            tlb.merge_fill(vpn, result.ppn, result.attrs)
            return result.ppn
        block = self.page_table.lookup_block(vpbn)
        self.stats.cache_lines += block.cache_lines
        mapping = block.mappings[boff]
        if mapping is None:
            self.stats.page_faults += 1
            if self.fault_handler is None:
                raise PageFaultError(vpn)
            self.fault_handler(vpn)
            block = self.page_table.lookup_block(vpbn)
            self.stats.cache_lines += block.cache_lines
            mapping = block.mappings[boff]
            if mapping is None:
                raise PageFaultError(vpn)
        self.stats.misses_by_kind[PTEKind.BASE] += 1
        base_vpn = self.page_table.layout.vpn_of_block(vpbn)
        tlb.fill(block_entry(tlb, base_vpn, block.mappings))
        return mapping.ppn

    def _walk_with_fault_handling(self, vpn: int):
        lines_before = self.page_table.stats.cache_lines
        try:
            return self.page_table.lookup(vpn)
        except PageFaultError:
            self.stats.page_faults += 1
            # The failed walk still touched page-table lines; charge them.
            self.stats.cache_lines += (
                self.page_table.stats.cache_lines - lines_before
            )
            if self.fault_handler is None:
                raise
        self.fault_handler(vpn)
        return self.page_table.lookup(vpn)

    # ------------------------------------------------------------------
    def run_trace(self, trace: Iterable[int]) -> MMUStats:
        """Translate every VPN of a reference trace; returns the stats."""
        translate = self.translate
        for vpn in trace:
            translate(int(vpn))
        return self.stats

    def flush_tlb(self) -> None:
        """Flush the TLB (context switch in a system without ASIDs)."""
        self.tlb.flush()

    def describe(self) -> str:
        """One-line human-readable description."""
        return f"MMU[{self.tlb.describe()} + {self.page_table.describe()}]"
