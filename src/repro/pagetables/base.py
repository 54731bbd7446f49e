"""The page table interface shared by every design in the library.

All page tables — linear, forward-mapped, hashed, inverted, software-TLB,
and clustered — implement :class:`PageTable`.  The contract mirrors what
the paper's software TLB miss handler needs:

- :meth:`PageTable.lookup` services one TLB miss: given only the faulting
  VPN (the handler does not know the page size up front, §4.1), find the
  governing PTE and report what the TLB should load — a base page, a
  superpage, or a (partial-)subblock entry — along with how many cache
  lines the walk touched.
- :meth:`PageTable.lookup_block` services a complete-subblock TLB's block
  miss with prefetch (§4.4): fetch every mapping sharing the faulting
  page block's tag.
- ``insert``/``remove``/``insert_superpage``/``insert_partial_subblock``
  are the operating-system-facing maintenance operations (§3.1), each
  reporting its own cost so the range-operation comparisons can be made.
- :meth:`PageTable.size_bytes` accounts memory under the paper's §6.1
  assumptions (eight-byte mapping information, eight-byte pointers).

Implementations provide the non-recording :meth:`PageTable._walk`; the
public :meth:`PageTable.lookup` wraps it with statistics and fault
raising so every table records costs identically.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from repro.addr.layout import AddressLayout, DEFAULT_LAYOUT
from repro.addr.space import DEFAULT_ATTRS, Mapping
from repro.errors import PageFaultError
from repro.mmu.cache_model import CacheModel, DEFAULT_CACHE
from repro.obs import trace as _trace
from repro.pagetables.pte import PTEKind


@dataclass(frozen=True)
class LookupResult:
    """What one TLB-miss walk found.

    Attributes
    ----------
    vpn, ppn, attrs:
        The faulting page's resolved translation.
    kind:
        Which PTE format supplied it; the miss handler uses this to choose
        the TLB entry format.
    base_vpn, npages:
        The virtual range covered by the PTE (``npages`` is 1 for a base
        PTE, the superpage size for a superpage, the subblock factor for a
        partial-subblock PTE).
    base_ppn:
        Physical page of ``base_vpn``; for superpage/subblock entries the
        whole range is properly placed so ``ppn = base_ppn + offset``.
    valid_mask:
        For partial-subblock results, which base pages of the block are
        valid (bit *i* covers ``base_vpn + i``).  For other kinds it is the
        single bit of the faulting page.
    cache_lines:
        Cache lines touched during this walk (the paper's §6 metric).
    probes:
        Page-table nodes examined (hash-chain elements or tree levels).
    """

    vpn: int
    ppn: int
    attrs: int
    kind: PTEKind
    base_vpn: int
    npages: int
    base_ppn: int
    valid_mask: int
    cache_lines: int
    probes: int

    @property
    def mapping(self) -> Mapping:
        """The faulting page's mapping as an :class:`~repro.addr.space.Mapping`."""
        return Mapping(self.ppn, self.attrs)


@dataclass(frozen=True)
class BlockLookupResult:
    """Result of a block-granularity walk for complete-subblock prefetch.

    ``mappings`` has one slot per base page of the block, ``None`` where no
    valid mapping exists.
    """

    vpbn: int
    mappings: Tuple[Optional[Mapping], ...]
    cache_lines: int
    probes: int

    @property
    def valid_mask(self) -> int:
        """Bit *i* set when base page *i* of the block has a mapping."""
        return sequence_to_mask(self.mappings)


@dataclass
class WalkStats:
    """Accumulated page-table activity counters.

    ``cache_lines``/``probes`` accumulate over successful lookups *and*
    faults (a fault still walks the table).  ``op_*`` counters track the
    §3.1 maintenance costs: nodes visited and allocated by insert/remove
    traffic, and hash-bucket lock acquisitions for range operations.
    """

    lookups: int = 0
    faults: int = 0
    cache_lines: int = 0
    probes: int = 0
    inserts: int = 0
    removes: int = 0
    op_nodes_visited: int = 0
    op_nodes_allocated: int = 0
    op_locks_acquired: int = 0

    def record_walk(self, cache_lines: int, probes: int, fault: bool) -> None:
        """Record one translation walk."""
        self.lookups += 1
        self.cache_lines += cache_lines
        self.probes += probes
        if fault:
            self.faults += 1

    @property
    def lines_per_lookup(self) -> float:
        """Average cache lines per walk — the paper's Figure 11 metric."""
        if self.lookups == 0:
            return 0.0
        return self.cache_lines / self.lookups

    def reset(self) -> None:
        """Zero every counter."""
        self.lookups = 0
        self.faults = 0
        self.cache_lines = 0
        self.probes = 0
        self.inserts = 0
        self.removes = 0
        self.op_nodes_visited = 0
        self.op_nodes_allocated = 0
        self.op_locks_acquired = 0


#: Type of a raw walk: (result or None on fault, cache lines, probes).
WalkOutcome = Tuple[Optional[LookupResult], int, int]


class PageTable(abc.ABC):
    """Abstract base for all page table organisations."""

    #: Human-readable name used in reports and figure legends.
    name: str = "abstract"

    def __init__(
        self,
        layout: AddressLayout = DEFAULT_LAYOUT,
        cache: CacheModel = DEFAULT_CACHE,
    ):
        self.layout = layout
        self.cache = cache
        self.stats = WalkStats()
        #: The NUMA node this table's walks are issued from, as the walk
        #: tracer labels them (a replica's node; 0 on a flat machine).
        self.numa_node = 0

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _walk(self, vpn: int) -> WalkOutcome:
        """Walk the table without recording statistics.

        Returns ``(result, cache_lines, probes)``; ``result`` is None when
        the walk ends in a page fault (the fault path still reports the
        lines and probes it consumed).
        """

    def lookup(self, vpn: int) -> LookupResult:
        """Service one TLB miss; raise :class:`PageFaultError` on no mapping."""
        result, lines, probes = self._walk(vpn)
        self.stats.record_walk(lines, probes, fault=result is None)
        if _trace._ACTIVE is not None:
            _trace.emit(
                self.name, "walk", vpn,
                result.kind.name if result is not None else "fault",
                lines, probes, result is None, self.numa_node,
            )
        if result is None:
            raise PageFaultError(vpn)
        return result

    def _trace_block(
        self, vpbn: int, lines: int, probes: int, fault: bool
    ) -> None:
        """Emit one tracer event for a block fetch (no-op when disabled).

        Every ``lookup_block`` implementation calls this right after its
        ``stats.record_walk`` so traced block events carry exactly the
        lines the walk charged.
        """
        if _trace._ACTIVE is not None:
            _trace.emit(
                self.name, "block", self.layout.vpn_of_block(vpbn),
                "fault" if fault else PTEKind.BASE.name,
                lines, probes, fault, self.numa_node,
            )

    def lookup_block(self, vpbn: int) -> BlockLookupResult:
        """Fetch all mappings of one page block (complete-subblock prefetch).

        The default implementation performs one full walk per base page of
        the block — the cost the paper charges hashed page tables in Figure
        11d ("multiple probes ... sixteen").  Tables that store a block's
        mappings adjacently override this with a single-walk version.
        """
        mappings = []
        total_lines = 0
        total_probes = 0
        for vpn in self.layout.block_vpns(vpbn):
            result, lines, probes = self._walk(vpn)
            total_lines += lines
            total_probes += probes
            if result is None:
                mappings.append(None)
            else:
                mappings.append(Mapping(result.ppn, result.attrs))
        fault = all(m is None for m in mappings)
        self.stats.record_walk(total_lines, total_probes, fault)
        self._trace_block(vpbn, total_lines, total_probes, fault)
        return BlockLookupResult(
            vpbn=vpbn,
            mappings=tuple(mappings),
            cache_lines=total_lines,
            probes=total_probes,
        )

    # ------------------------------------------------------------------
    # Maintenance (the OS-facing operations of §3.1)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def insert(self, vpn: int, ppn: int, attrs: int = DEFAULT_ATTRS) -> None:
        """Add a base-page mapping."""

    @abc.abstractmethod
    def remove(self, vpn: int) -> None:
        """Remove the mapping covering ``vpn``; raise on absence."""

    def mark(self, vpn: int, set_bits: int = 0, clear_bits: int = 0) -> int:
        """Update attribute bits of the PTE governing ``vpn`` in place.

        The TLB miss handler's reference/modified-bit maintenance (§3.1:
        handlers "update reference and modified bits without acquiring
        any locks").  Returns the new attribute value.  Wide PTEs share
        one attribute field, so marking any covered page marks them all —
        and replicated wide PTEs must update every replica site (§4.3's
        multi-site update cost, charged to ``op_nodes_visited``).
        """
        raise NotImplementedError(
            f"{self.name} page table does not support in-place attribute "
            "updates"
        )

    def insert_superpage(
        self, base_vpn: int, npages: int, base_ppn: int, attrs: int = DEFAULT_ATTRS
    ) -> None:
        """Add a superpage mapping.  Tables without native support raise."""
        raise NotImplementedError(
            f"{self.name} page table does not store superpage PTEs; "
            "wrap it in a strategy from repro.pagetables.strategies"
        )

    def insert_partial_subblock(
        self, vpbn: int, valid_mask: int, base_ppn: int, attrs: int = DEFAULT_ATTRS
    ) -> None:
        """Add a partial-subblock mapping.  Tables without support raise."""
        raise NotImplementedError(
            f"{self.name} page table does not store partial-subblock PTEs; "
            "wrap it in a strategy from repro.pagetables.strategies"
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def size_bytes(self) -> int:
        """Memory used by the table under the paper's §6.1 assumptions."""

    def describe(self) -> str:
        """One-line human-readable description."""
        return f"{self.name} page table ({self.layout.describe()})"

    # ------------------------------------------------------------------
    # Bulk construction helpers
    # ------------------------------------------------------------------
    def insert_many(
        self, items: Iterable[Tuple[int, int]], attrs: int = DEFAULT_ATTRS
    ) -> int:
        """Insert ``(vpn, ppn)`` pairs in bulk; returns how many.

        The tenant-admission path of a shared arena: one call per tenant
        rather than one per page, so arena construction-cost accounting
        has a single seam to charge (and subclasses a single hook to
        vectorise).  Semantics are exactly a loop over :meth:`insert`.
        """
        count = 0
        for vpn, ppn in items:
            self.insert(vpn, ppn, attrs)
            count += 1
        return count

    def remove_many(self, vpns: Iterable[int]) -> int:
        """Remove the mappings covering ``vpns``; returns how many.

        Tenant teardown counterpart of :meth:`insert_many`; raises on the
        first absent mapping, like :meth:`remove`.
        """
        count = 0
        for vpn in vpns:
            self.remove(vpn)
            count += 1
        return count

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


def sequence_to_mask(mappings: Sequence[Optional[Mapping]]) -> int:
    """Build a valid bit mask from a per-slot mapping sequence."""
    mask = 0
    for i, mapping in enumerate(mappings):
        if mapping is not None:
            mask |= 1 << i
    return mask


def base_result(
    vpn: int,
    mapping: Mapping,
    cache_lines: int,
    probes: int,
) -> LookupResult:
    """Convenience constructor for a single-base-page lookup result."""
    return LookupResult(
        vpn=vpn,
        ppn=mapping.ppn,
        attrs=mapping.attrs,
        kind=PTEKind.BASE,
        base_vpn=vpn,
        npages=1,
        base_ppn=mapping.ppn,
        valid_mask=1,
        cache_lines=cache_lines,
        probes=probes,
    )
