"""Address-space-identifier (ASID) tagged TLBs.

The paper's simulation flushes the TLB on every context switch (its
SuperSPARC host lacked usable ASIDs for the trap-driven setup), and §7
notes multiprogramming "can increase the number of TLB misses and make
TLB miss handling more significant [Agar88]".  Real 64-bit processors
(MIPS, Alpha, UltraSPARC) tag TLB entries with an address-space
identifier instead, so switches cost nothing and working sets compete
only for capacity.

:class:`ASIDTaggedTLB` wraps any TLB model from this package, extending
its tags with the current ASID; :meth:`switch_to` changes processes
without flushing.  Comparing it against the flush-on-switch baseline
(see ``repro.experiments.multiprog``) quantifies the §7 concern.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ConfigurationError
from repro.mmu.tlb import BaseTLB, TLBEntry
from repro.pagetables.pte import PTEKind


class ASIDTaggedTLB(BaseTLB):
    """A TLB whose tags include an address-space identifier.

    Parameters
    ----------
    inner:
        The TLB design to wrap (fully-associative, superpage, or subblock
        models); its capacity, keying, and miss classification are reused
        with every key extended by the current ASID.
    """

    def __init__(self, inner: BaseTLB):
        super().__init__(inner.capacity)
        # Share state with the inner model: we reuse its keying helpers
        # but own the storage and statistics.
        self.inner = inner
        self.name = f"asid-{inner.name}"
        self.current_asid = 0
        self.switches = 0

    # ------------------------------------------------------------------
    def switch_to(self, asid: int) -> None:
        """Change the executing address space (no flush needed)."""
        if asid < 0:
            raise ConfigurationError(f"ASID must be >= 0, got {asid}")
        if asid != self.current_asid:
            self.switches += 1
        self.current_asid = asid

    def _candidate_keys(self, vpn: int) -> Iterable[tuple]:
        asid = self.current_asid
        return (
            (asid, *key) for key in self.inner._candidate_keys(vpn)
        )

    def _key_of(self, entry: TLBEntry) -> tuple:
        return (self.current_asid, *self.inner._key_of(entry))

    def accepts(self, kind: PTEKind, npages: int) -> bool:
        return self.inner.accepts(kind, npages)

    def _classify_miss(self, vpn: int) -> None:
        # Delegate block/subblock classification when the inner TLB has
        # block tags; keys must be ASID-extended to match storage.
        block_of = getattr(self.inner, "_block_of", None)
        if block_of is None:
            self.stats.block_misses += 1
            return
        key = (self.current_asid, "block", block_of(vpn))
        if key in self._entries:
            self.stats.subblock_misses += 1
        else:
            self.stats.block_misses += 1

    # ------------------------------------------------------------------
    def flush_asid(self, asid: int) -> int:
        """Drop every entry of one address space (process exit)."""
        victims = [key for key in self._entries if key[0] == asid]
        for key in victims:
            del self._entries[key]
        return len(victims)

    def flush_asids(self, asids: Iterable[int]) -> int:
        """Drop every entry of several address spaces in one pass.

        The batched form a kernel uses when one reclaim decision retires
        several tenants at once: a single scan of the TLB, one shootdown
        round (see ``SMPSystem.flush_asids``) rather than one per ASID.
        Returns the total entries invalidated.
        """
        doomed = set(asids)
        victims = [key for key in self._entries if key[0] in doomed]
        for key in victims:
            del self._entries[key]
        return len(victims)

    def resident_asids(self) -> set:
        """ASIDs currently holding at least one entry."""
        return {key[0] for key in self._entries}

    def describe(self) -> str:
        return f"{self.name} ({self.capacity} entries, ASID-tagged)"


#: Attribute forwarded so complete-subblock-specific MMU paths still work
#: when they probe ``subblock_factor`` on a wrapped TLB.
def _forward_subblock_factor(self):
    return getattr(self.inner, "subblock_factor")


ASIDTaggedTLB.subblock_factor = property(_forward_subblock_factor)
