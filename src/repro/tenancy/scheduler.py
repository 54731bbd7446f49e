"""The tenant scheduler: interleaved multi-tenant replay over one table.

Time is divided into **slots**.  Each slot the scheduler (1) applies
the churn schedule — departures tear down page tables and trigger one
batched ASID shootdown round across the CPUs, arrivals build theirs
under allocation pressure — then (2) replays every active tenant's
slice of its miss stream against the shared table through
:func:`repro.experiments.common.replay_many`, so under the batch engine
the walk kernel is compiled **once per slot** and reused for every
tenant (the table is immutable between slot boundaries).

Slices touching pages the arena reclaimed are split: the refaulting
sub-slice is re-admitted first (:meth:`SharedArena.refault`) and
charged :data:`REFAULT_PENALTY_CYCLES` on top of its walk cost, the
warm remainder replays at pure walk cost.  Both observations land in
that tenant's :class:`~repro.obs.metrics.HistogramStats` — refault
bursts are what separates a tenant's p99 from its mean, which is why
the experiment's headline table is percentiles, not means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.common import replay_many, stream_cache
from repro.mmu.asid import ASIDTaggedTLB
from repro.mmu.simulate import MissStream
from repro.mmu.tlb import FullyAssociativeTLB, TLBEntry
from repro.numa.topology import LOCAL_CYCLES
from repro.obs.metrics import HistogramStats, get_registry
from repro.os.shootdown import SMPSystem
from repro.pagetables.pte import PTEKind
from repro.tenancy.arena import SharedArena
from repro.tenancy.churn import ChurnSchedule
from repro.tenancy.tenant import (
    Tenant,
    build_tenant_streams,
    slice_stream,
    subset_stream,
)

#: Cycles per cache line touched, matching the NUMA model's local
#: latency so tenancy cycles are comparable with ``experiment numa``'s
#: single-node rows (cycles == lines x 90).
CYCLES_PER_LINE = LOCAL_CYCLES

#: Flat penalty per refaulted miss: the modelled page-in plus PTE
#: rebuild latency charged on top of the walk itself.
REFAULT_PENALTY_CYCLES = 8 * LOCAL_CYCLES

#: CPUs in the modelled shootdown domain.
DEFAULT_NCPUS = 2

#: TLB entries seeded per (tenant, slot, CPU) so departures have real
#: ASID-tagged victims to invalidate.
TLB_SEED_ENTRIES = 2

#: Per-tenant registry series are emitted only below this population
#: (the local per-tenant histograms always exist; unbounded label
#: cardinality in the metrics registry is what must be capped).
PER_TENANT_SERIES_CAP = 128


@dataclass
class TenancyResult:
    """Everything one (table, schedule) tenancy run produced."""

    table_description: str
    schedule_description: str
    #: tenant id -> exact histogram of walk cycles/miss observations.
    per_tenant: Dict[int, HistogramStats]
    #: All tenants' observations merged (population percentiles).
    population: HistogramStats
    misses: int = 0
    cache_lines: int = 0
    probes: int = 0
    faults: int = 0
    refault_misses: int = 0
    arrivals: int = 0
    departures: int = 0
    reclaims: int = 0
    evicted_ptes: int = 0
    shootdown_entries: int = 0

    @property
    def worst_tenant_p99(self) -> float:
        """The highest per-tenant p99 — the tail tenant's experience."""
        return max(
            (hist.p99 for hist in self.per_tenant.values() if hist.count),
            default=0.0,
        )

    @property
    def mean_cycles(self) -> float:
        """Population mean walk cycles/miss (not the headline metric)."""
        return self.population.mean


class TenantScheduler:
    """Drives one tenancy configuration through its slots."""

    def __init__(
        self,
        arena: SharedArena,
        schedule: ChurnSchedule,
        misses_per_slot: int,
        footprint: int = 48,
        seed: int = 0,
        ncpus: int = DEFAULT_NCPUS,
        labels: Optional[Dict[str, object]] = None,
    ):
        if misses_per_slot < 1:
            raise ValueError(
                f"misses_per_slot must be >= 1, got {misses_per_slot}"
            )
        self.arena = arena
        self.table = arena.table
        self.schedule = schedule
        self.misses_per_slot = misses_per_slot
        self.footprint = footprint
        self.seed = seed
        self.labels = dict(labels or {})
        self.smp = SMPSystem(
            self.table,
            tlb_factory=lambda: ASIDTaggedTLB(FullyAssociativeTLB()),
            ncpus=ncpus,
        )
        arena.on_evict = self._on_evict
        #: tenant id -> Tenant, for the whole lifecycle population.
        self.tenants: Dict[int, Tenant] = {
            tid: Tenant(
                tid, seed=seed, footprint=footprint,
                layout=self.table.layout,
            )
            for tid in schedule.all_tenant_ids()
        }
        #: Full per-tenant streams (slots x misses_per_slot each), via
        #: the persistent stream cache when one is configured.
        self.streams: Dict[int, MissStream] = build_tenant_streams(
            [self.tenants[tid] for tid in sorted(self.tenants)],
            schedule.slots * misses_per_slot,
            cache=stream_cache(),
            seed=seed,
        )
        self._arrival_slot: Dict[int, int] = {}
        self._shootdown_entries = 0

    # ------------------------------------------------------------------
    def _on_evict(self, tenant_id: int, vpns) -> None:
        """Reclaim invalidates the victim's ASID across the domain."""
        tenant = self.tenants.get(tenant_id)
        if tenant is not None:
            self._shootdown_entries += self.smp.flush_asids([tenant.asid])
        del vpns

    def _seed_tlbs(self, tenant: Tenant, vpns: np.ndarray) -> None:
        """Give every CPU a few of this tenant's entries for the slot.

        The fills model the tenant having run on each CPU; they are what
        a departure's ASID shootdown round later invalidates.  TLB fills
        touch neither the registry nor the table's stats, so a no-churn
        run's walk accounting is unaffected.
        """
        mappings = self.arena.mappings_for(tenant.tenant_id)
        seeded = 0
        for vpn in vpns.tolist():
            if seeded >= TLB_SEED_ENTRIES:
                break
            ppn = mappings.get(int(vpn))
            if ppn is None:
                continue
            entry = TLBEntry(
                base_vpn=int(vpn), npages=1, base_ppn=ppn,
                attrs=0, valid_mask=1, kind=PTEKind.BASE,
            )
            for mmu in self.smp.cpus:
                mmu.tlb.switch_to(tenant.asid)
                mmu.tlb.fill(entry)
            seeded += 1

    # ------------------------------------------------------------------
    def run(self) -> TenancyResult:
        """Every slot: churn, refault, one batched multi-tenant replay."""
        registry = get_registry()
        emit_per_tenant = self.schedule.tenants <= PER_TENANT_SERIES_CAP
        population = HistogramStats()
        per_tenant: Dict[int, HistogramStats] = {}
        result = TenancyResult(
            table_description=self.table.describe(),
            schedule_description=self.schedule.describe(),
            per_tenant=per_tenant,
            population=population,
        )
        active: List[int] = []
        pop_handle = registry.histogram_handle(
            "tenancy.walk_cycles", **self.labels
        )
        for slot in range(self.schedule.slots):
            departing = self.schedule.departures[slot]
            if departing:
                for tid in departing:
                    self.arena.depart(tid)
                    active.remove(tid)
                asids = [self.tenants[tid].asid for tid in departing]
                self._shootdown_entries += self.smp.flush_asids(asids)
                result.departures += len(departing)
            for tid in self.schedule.arrivals[slot]:
                self.arena.admit(self.tenants[tid])
                self._arrival_slot[tid] = slot
                active.append(tid)
                result.arrivals += 1
            segments = self._build_segments(slot, active)
            replays = replay_many(
                [stream for _, stream, _ in segments], self.table
            )
            for (tid, stream, refaulted), replayed in zip(segments, replays):
                misses = int(stream.vpns.shape[0])
                resolved = replayed.misses - replayed.faults
                walk = (
                    CYCLES_PER_LINE * replayed.cache_lines / resolved
                    if resolved else 0.0
                )
                cycles = walk + (REFAULT_PENALTY_CYCLES if refaulted else 0.0)
                hist = per_tenant.get(tid)
                if hist is None:
                    hist = per_tenant[tid] = HistogramStats()
                hist.observe_many(cycles, misses)
                population.observe_many(cycles, misses)
                pop_handle.observe_many(cycles, misses)
                if emit_per_tenant:
                    registry.observe(
                        "tenancy.tenant_cycles", cycles,
                        tenant=tid, **self.labels,
                    )
                result.misses += misses
                result.cache_lines += replayed.cache_lines
                result.probes += replayed.probes
                result.faults += replayed.faults
                if refaulted:
                    result.refault_misses += misses
        result.reclaims = self.arena.stats.reclaims
        result.evicted_ptes = self.arena.stats.evicted_ptes
        result.shootdown_entries = self._shootdown_entries
        return result

    def _build_segments(
        self, slot: int, active: List[int]
    ) -> List[Tuple[int, MissStream, bool]]:
        """This slot's replay units: (tenant, sub-stream, refaulted?).

        Refaulting pages are re-admitted *before* the replay, so the
        walks themselves see a fully resident table; the refault cost is
        carried by the penalty flag, not by page faults.
        """
        mps = self.misses_per_slot
        segments: List[Tuple[int, MissStream, bool]] = []
        for tid in sorted(active):
            k = slot - self._arrival_slot[tid]
            lo = k * mps
            stream = slice_stream(
                self.streams[tid], lo, lo + mps, name=f"tenant-{tid}@{slot}"
            )
            evicted = self.arena.evicted_for(tid)
            if evicted:
                mask = np.isin(
                    stream.vpns,
                    np.fromiter(evicted, dtype=np.int64, count=len(evicted)),
                )
            else:
                mask = None
            self._seed_tlbs(self.tenants[tid], stream.vpns)
            if mask is None or not mask.any():
                segments.append((tid, stream, False))
                continue
            self.arena.refault(tid, np.unique(stream.vpns[mask]).tolist())
            warm = subset_stream(stream, ~mask, f"tenant-{tid}@{slot}-warm")
            hot = subset_stream(stream, mask, f"tenant-{tid}@{slot}-refault")
            if warm.misses:
                segments.append((tid, warm, False))
            segments.append((tid, hot, True))
        return segments
