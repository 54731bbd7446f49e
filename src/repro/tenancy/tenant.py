"""Tenants: sparse 64-bit address spaces with seeded synthetic workloads.

Each tenant owns a private slice of the 52-bit VPN space
(:data:`REGION_STRIDE` pages apart) and scatters a small footprint
across the low :data:`REGION_SPAN` pages of that slice.  That geometry
is the point of the study: tenants never share pages, yet every
tenant's PTEs land in the *same* hashed buckets / clustered node pool /
forward-mapped tree, so cross-tenant interference shows up purely as
page-table structure effects (longer chains, bigger nodes) — the
question §6 of the paper asks, pushed to consolidation scale.

Miss streams are synthesised, not trace-driven: a seeded Zipf-ish draw
over the tenant's pages (cloud tenants are many and small; the paper's
ten calibrated workloads model one big process each).  Streams are
deterministic functions of ``(seed, tenant_id, footprint, length)`` and
are persisted through the shared on-disk stream cache as one
concatenated bundle per run configuration, so repeat runs skip
synthesis exactly like trace-driven experiments skip phase 1.  The
bundle and its per-tenant slices are streams with no TLB phase
(:meth:`~repro.mmu.simulate.MissStream.all_misses`); a slice is a view
of the bundle, never a copy.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional, Sequence

import numpy as np

from repro.addr.layout import AddressLayout, DEFAULT_LAYOUT
from repro.cache.stream_cache import StreamCache
from repro.mmu.simulate import MissStream

#: VPN distance between consecutive tenant regions (in pages).  At 52
#: VPN bits this admits 2^24 tenants, far beyond any sweep.
REGION_STRIDE = 1 << 28

#: Pages are scattered over the low 2^24 pages of the region — sparse
#: occupancy (footprint / 2^24), the regime of the paper's Figure 9
#: multiprogrammed snapshots.
REGION_SPAN = 1 << 24

#: Zipf exponent of the page-popularity skew.
ZIPF_A = 1.3

#: Bump when stream synthesis changes: invalidates cached bundles.
STREAM_SCHEMA = 2


def _tenant_rng(seed: int, tenant_id: int) -> np.random.RandomState:
    """An independent, stable RNG per (run seed, tenant)."""
    return np.random.RandomState(
        (seed * 1_000_003 + tenant_id * 7_919 + 12_345) % (2 ** 32)
    )


class Tenant:
    """One tenant: ASID, footprint geometry, and its workload model."""

    def __init__(
        self,
        tenant_id: int,
        seed: int = 0,
        footprint: int = 48,
        layout: AddressLayout = DEFAULT_LAYOUT,
    ):
        if footprint < 1:
            raise ValueError(f"footprint must be >= 1, got {footprint}")
        self.tenant_id = tenant_id
        #: ASID 0 is the idle/kernel context; tenants start at 1.
        self.asid = tenant_id + 1
        self.seed = seed
        self.layout = layout
        rng = _tenant_rng(seed, tenant_id)
        base = (tenant_id + 1) * REGION_STRIDE
        raw = np.unique(rng.randint(0, REGION_SPAN, size=2 * footprint))
        if raw.shape[0] < footprint:  # pragma: no cover - needs collisions
            extra = np.setdiff1d(np.arange(2 * footprint), raw)
            raw = np.concatenate([raw, extra])
        #: The tenant's pages, sorted — admission order into the arena.
        self.vpns: np.ndarray = (base + raw[:footprint]).astype(np.int64)
        self.footprint = int(self.vpns.shape[0])
        # Popularity rank -> page is a seeded permutation, so the hot
        # pages are not simply the lowest VPNs.
        self._rank_to_page = rng.permutation(self.footprint)

    def sample_misses(self, length: int) -> np.ndarray:
        """The first ``length`` missed VPNs of this tenant's workload.

        Zipf-skewed page popularity: a handful of hot pages dominate,
        with a long tail touching the whole footprint.  The draw comes
        from a fresh RNG derived from the tenant's identity, so the
        stream is a pure function of ``(seed, tenant_id, length)`` —
        repeat calls (a cache-miss resynthesis, a differential test)
        can never diverge from the cached bundle.
        """
        rng = np.random.RandomState(
            (self.seed * 1_000_003 + self.tenant_id * 7_919 + 54_321)
            % (2 ** 32)
        )
        ranks = (rng.zipf(ZIPF_A, size=length) - 1) % self.footprint
        return self.vpns[self._rank_to_page[ranks]]

    def __repr__(self) -> str:
        return (
            f"<Tenant {self.tenant_id} asid={self.asid} "
            f"footprint={self.footprint}>"
        )


def tenant_bundle_key(
    tenant_ids: Sequence[int],
    seed: int,
    footprint: int,
    misses_per_tenant: int,
    layout: AddressLayout,
) -> str:
    """Content hash of one run's concatenated tenant miss streams."""
    payload = json.dumps(
        {
            "kind": "tenancy-stream-bundle",
            "schema": STREAM_SCHEMA,
            "seed": int(seed),
            "footprint": int(footprint),
            "misses_per_tenant": int(misses_per_tenant),
            "tenants": [int(t) for t in tenant_ids],
            "layout": layout.describe(),
            "zipf": ZIPF_A,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def build_tenant_streams(
    tenants: Sequence[Tenant],
    misses_per_tenant: int,
    cache: Optional[StreamCache] = None,
    seed: int = 0,
) -> Dict[int, MissStream]:
    """Every tenant's full miss stream, through the persistent cache.

    The streams are cached as one concatenated bundle (one artefact per
    run configuration rather than one per tenant — a 10k-tenant sweep
    must not shard the cache into 10k tiny files), then sliced back into
    per-tenant :class:`~repro.mmu.simulate.MissStream` views.  With no
    cache the bundle is synthesised directly; either way the result is a
    pure function of the seeded configuration.
    """
    if not tenants:
        return {}
    layout = tenants[0].layout
    ids = [tenant.tenant_id for tenant in tenants]
    key = tenant_bundle_key(
        ids, seed, tenants[0].footprint, misses_per_tenant, layout
    )
    bundle: Optional[MissStream] = cache.get(key) if cache is not None else None
    if bundle is None or bundle.misses != len(ids) * misses_per_tenant:
        bundle = MissStream.all_misses(
            np.concatenate([t.sample_misses(misses_per_tenant)
                            for t in tenants]),
            f"tenancy-bundle[{len(ids)}x{misses_per_tenant}]",
            "synthetic tenant workload (no TLB phase)",
        )
        if cache is not None:
            cache.put(key, bundle)
    streams: Dict[int, MissStream] = {}
    for index, tenant in enumerate(tenants):
        lo = index * misses_per_tenant
        hi = lo + misses_per_tenant
        streams[tenant.tenant_id] = slice_stream(
            bundle, lo, hi, name=f"tenant-{tenant.tenant_id}"
        )
    return streams


def slice_stream(
    stream: MissStream, lo: int, hi: int, name: Optional[str] = None
) -> MissStream:
    """A zero-copy sub-stream over ``[lo, hi)`` of one miss stream."""
    return MissStream.all_misses(
        stream.vpns[lo:hi],
        name or f"{stream.trace_name}[{lo}:{hi}]",
        stream.tlb_description,
    )


def subset_stream(stream: MissStream, mask: np.ndarray, name: str) -> MissStream:
    """The sub-stream of one stream selected by a boolean mask."""
    return MissStream.all_misses(
        stream.vpns[mask], name, stream.tlb_description
    )
