"""Phase-1 TLB filter: the stack-distance pass against the scalar oracle.

``collect_misses`` computes the miss stream of a pure-LRU TLB in array
passes and runs ``collect_misses_scalar``, one reference at a time, for
every other input.  Each test here runs both on the same input and
compares every ``MissStream`` field, the TLB statistics and the final TLB
contents in LRU order:

- the Figure 11 workloads, TLB kinds and capacities;
- random sparse spaces under every page-size policy, random traces with
  switch points, and capacities 1-8;
- every input the pass refuses, which must take the scalar path, match
  it, and be counted in ``phase1.fallback``;
- traces that reference a page no fill can serve, which must raise the
  scalar loop's error for the same VPN;
- a sabotaged pass (``>`` for ``>=`` against the capacity), which the
  workload comparison must catch.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.addr.layout import AddressLayout
from repro.addr.space import AddressSpace
from repro.errors import AddressError, PageFaultError
from repro.experiments import common, fig11, multiprog, runner
from repro.experiments.common import TLB_FACTORIES, TRACED_WORKLOADS, policy_for
from repro.mmu import lru_filter
from repro.mmu.asid import ASIDTaggedTLB
from repro.mmu.simulate import collect_misses, collect_misses_scalar
from repro.mmu.subblock_tlb import CompleteSubblockTLB, PartialSubblockTLB
from repro.mmu.superpage_tlb import SuperpageTLB
from repro.mmu.tlb import FullyAssociativeTLB, SetAssociativeTLB
from repro.mmu.two_level import TwoLevelTLB
from repro.obs.metrics import get_registry, reset_registry
from repro.os.translation_map import LogicalPTE, TranslationMap
from repro.pagetables.pte import PTEKind
from repro.resilience.journal import METRICS_NAME
from repro.workloads.suite import load_workload
from repro.workloads.trace import Trace

LAYOUT = AddressLayout()
KINDS = tuple(TLB_FACTORIES)
#: The paper's TLB, the linear tables' reduced one, and a tiny one that
#: evicts constantly.
CAPACITIES = (64, 56, 7)
#: Two single-process and the two multiprogrammed workloads.
TIER1_WORKLOADS = ("coral", "compress", "gcc", "fftpde")
TIER1_LENGTH = 20_000
FAST_LENGTH = 50_000


@pytest.fixture(autouse=True)
def fresh_registry():
    reset_registry()
    yield
    reset_registry()


def fallbacks():
    return get_registry().values("phase1.fallback")


def assert_streams_equal(fast, slow):
    for name in ("trace_name", "tlb_description", "accesses", "misses",
                 "tlb_block_misses", "tlb_subblock_misses"):
        assert getattr(fast, name) == getattr(slow, name), name
    for name in ("vpns", "block_miss"):
        fast_array, slow_array = getattr(fast, name), getattr(slow, name)
        assert fast_array.dtype == slow_array.dtype, name
        assert np.array_equal(fast_array, slow_array), name
    assert list(fast.misses_by_kind.items()) == list(
        slow.misses_by_kind.items()
    )


def run_both(trace, make_tlb, tmap, prefetch_subblocks=True):
    """Both paths on fresh TLBs; returns the pass's TLB after comparing."""
    fast_tlb, slow_tlb = make_tlb(), make_tlb()
    fast = collect_misses(trace, fast_tlb, tmap, prefetch_subblocks)
    slow = collect_misses_scalar(trace, slow_tlb, tmap, prefetch_subblocks)
    assert_streams_equal(fast, slow)
    assert fast_tlb.stats == slow_tlb.stats
    assert fast_tlb.entries() == slow_tlb.entries()
    return fast_tlb


# ---------------------------------------------------------------------------
# (a) The Figure 11 workloads
# ---------------------------------------------------------------------------
class WorkloadRuns:
    """Workloads, translation maps and scalar runs, each made once."""

    def __init__(self):
        self._workloads = {}
        self._maps = {}
        self._scalar = {}

    def workload_and_map(self, name, kind, length):
        if (name, length) not in self._workloads:
            self._workloads[name, length] = load_workload(
                name, trace_length=length
            )
        workload = self._workloads[name, length]
        if (name, kind, length) not in self._maps:
            self._maps[name, kind, length] = TranslationMap.from_space(
                workload.union_space(), policy_for(kind)
            )
        return workload, self._maps[name, kind, length]

    def check(self, name, kind, entries, length):
        """The pass against the scalar loop, whose run is kept for reuse."""
        workload, tmap = self.workload_and_map(name, kind, length)
        key = (name, kind, entries, length)
        if key not in self._scalar:
            tlb = TLB_FACTORIES[kind](entries)
            stream = collect_misses_scalar(workload.trace, tlb, tmap)
            self._scalar[key] = (stream, tlb)
        slow, slow_tlb = self._scalar[key]
        fast_tlb = TLB_FACTORIES[kind](entries)
        assert_streams_equal(
            collect_misses(workload.trace, fast_tlb, tmap), slow
        )
        assert fast_tlb.stats == slow_tlb.stats
        assert fast_tlb.entries() == slow_tlb.entries()
        assert fallbacks() == {}


@pytest.fixture(scope="module")
def runs():
    return WorkloadRuns()


@pytest.mark.parametrize("entries", CAPACITIES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", TIER1_WORKLOADS)
def test_pass_matches_scalar_on_figure11_workloads(runs, name, kind, entries):
    runs.check(name, kind, entries, TIER1_LENGTH)


@pytest.mark.slow
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", TRACED_WORKLOADS)
def test_pass_matches_scalar_on_every_workload_at_fast_length(
    runs, name, kind
):
    """The streams the runner's ``--fast`` Figure 11 sweep computes."""
    for entries in (common.TLB_ENTRIES, common.LINEAR_TLB_ENTRIES):
        runs.check(name, kind, entries, FAST_LENGTH)


def test_multiprogrammed_workloads_exercise_flushes(runs):
    for name in ("compress", "gcc"):
        workload, tmap = runs.workload_and_map(name, "single", TIER1_LENGTH)
        assert workload.trace.switch_points
        tlb = run_both(workload.trace, lambda: FullyAssociativeTLB(64), tmap)
        assert tlb.stats.flushes > 0


# ---------------------------------------------------------------------------
# (e) Sabotage: an off-by-one capacity comparison must not pass (a)
# ---------------------------------------------------------------------------
def test_differential_catches_an_off_by_one_capacity_comparison(
    runs, monkeypatch
):
    real = lru_filter.lru_misses

    def greater_than(keys, capacity):
        # Comparing with ``>`` instead of ``>=`` against the capacity, in
        # both the gap filter and the distinct count, is exactly the
        # correct pass at capacity + 1.
        return real(keys, capacity + 1)

    monkeypatch.setattr(lru_filter, "lru_misses", greater_than)
    caught = set()
    for name in TIER1_WORKLOADS:
        for kind in KINDS:
            for entries in CAPACITIES:
                try:
                    runs.check(name, kind, entries, TIER1_LENGTH)
                except AssertionError:
                    caught.add(kind)
    assert caught == set(KINDS)


# ---------------------------------------------------------------------------
# (b) Random sparse spaces, traces and capacities
# ---------------------------------------------------------------------------
#: Page blocks random spaces draw from.
BLOCK_SLOTS = 6


@st.composite
def sparse_runs(draw):
    """(trace, tmap, TLB kind, capacity) over a random sparse space."""
    s = LAYOUT.subblock_factor
    space = AddressSpace(LAYOUT)
    slots = draw(st.sets(st.integers(0, BLOCK_SLOTS - 1), min_size=1))
    for slot in sorted(slots):
        mask = draw(st.integers(1, (1 << s) - 1))
        placed = draw(st.booleans())
        base_vpn = (0x40 + 3 * slot) * s
        for boff in range(s):
            if (mask >> boff) & 1:
                # Placed blocks use one aligned frame block, so the
                # policies can promote them; others scatter their frames.
                ppn = (0x100 + slot) * s + boff if placed else (
                    0x900 + slot * 37 + 5 * boff
                )
                space.map(base_vpn + boff, ppn)
    policy_kind = draw(st.sampled_from(KINDS))
    tmap = TranslationMap.from_space(space, policy_for(policy_kind))
    mapped = sorted(tmap.mapped_vpns())
    vpns = draw(st.lists(st.sampled_from(mapped), max_size=120))
    points = sorted(
        draw(st.lists(st.integers(0, len(vpns)), max_size=6))
    )
    trace = Trace(vpns, name="random", switch_points=points)
    return trace, tmap, draw(st.sampled_from(KINDS)), draw(st.integers(1, 8))


@settings(max_examples=200, deadline=None)
@given(sparse_runs())
def test_pass_matches_scalar_on_random_sparse_spaces(run):
    trace, tmap, kind, entries = run
    reset_registry()
    run_both(trace, lambda: TLB_FACTORIES[kind](entries), tmap)
    assert fallbacks() == {}


def test_empty_trace_matches():
    tmap = TranslationMap.from_space(AddressSpace(LAYOUT))
    for kind in KINDS:
        run_both(Trace([], switch_points=[0, 0]), TLB_FACTORIES[kind], tmap)
    assert fallbacks() == {}


# ---------------------------------------------------------------------------
# (c) Refusals take the scalar path, match it, and are counted
# ---------------------------------------------------------------------------
SUPERPAGE_BASE = 0x100
PARTIAL_BASE = 0x200
LONE_PAGES = (0x350, 0x351, 0x3A7)


def refusal_space():
    """A full placed block, a half-full placed block, and lone pages."""
    space = AddressSpace(LAYOUT)
    for boff in range(16):
        space.map(SUPERPAGE_BASE + boff, 0x400 + boff)
    for boff in range(8):
        space.map(PARTIAL_BASE + boff, 0x500 + boff)
    for i, vpn in enumerate(LONE_PAGES):
        space.map(vpn, 0x7F0 - 3 * i)
    return space


def refusal_trace(extra=()):
    rng = np.random.default_rng(7)
    pool = [
        *range(SUPERPAGE_BASE, SUPERPAGE_BASE + 16),
        *range(PARTIAL_BASE, PARTIAL_BASE + 8), *LONE_PAGES, *extra,
    ]
    vpns = rng.choice(pool, size=400)
    return Trace(
        vpns, name="refusal", switch_points=[100, 250],
        segment_owners=[0, 1, 0],
    )


class _AttrsPerPage(TranslationMap):
    """Pages of one superpage report different attributes."""

    def query(self, vpn):
        pte = super().query(vpn)
        if pte is not None and pte.kind is PTEKind.SUPERPAGE:
            return replace(pte, attrs=vpn & 1)
        return pte


class _BasePageInSuperpage(TranslationMap):
    """One page inside a superpage resolves to a base PTE of its own."""

    def query(self, vpn):
        if vpn == SUPERPAGE_BASE + 5:
            return LogicalPTE(
                kind=PTEKind.BASE, base_vpn=vpn, npages=1, base_ppn=0x405,
                attrs=0, valid_mask=1,
            )
        return super().query(vpn)


class _BasePageInPartialBlock(TranslationMap):
    """A page whose valid bit is clear in its block's partial-subblock
    PTE is mapped by a base PTE instead."""

    def query(self, vpn):
        if vpn == PARTIAL_BASE + 12:
            return LogicalPTE(
                kind=PTEKind.BASE, base_vpn=vpn, npages=1, base_ppn=0x999,
                attrs=0, valid_mask=1,
            )
        return super().query(vpn)


class _PrefetchDropsPage(TranslationMap):
    """A block prefetch omits a page that a single-PTE query maps."""

    def block_mappings(self, vpbn):
        mappings = list(super().block_mappings(vpbn))
        mappings[5] = None
        return tuple(mappings)


class _NamedFullyAssociative(FullyAssociativeTLB):
    """A subclass: any override could change hit behaviour."""


def _prefilled_tlb():
    tlb = FullyAssociativeTLB(8)
    tmap = TranslationMap.from_space(refusal_space())
    collect_misses_scalar(Trace(list(LONE_PAGES)), tlb, tmap)
    return tlb


REFUSALS = {
    "asid": (
        lambda: ASIDTaggedTLB(FullyAssociativeTLB(8)), TranslationMap, True,
        (), "tlb_type",
    ),
    "set-associative": (
        lambda: SetAssociativeTLB(4, 2), TranslationMap, True, (), "tlb_type",
    ),
    "two-level": (
        lambda: TwoLevelTLB(FullyAssociativeTLB(2), FullyAssociativeTLB(8)),
        TranslationMap, True, (), "tlb_type",
    ),
    "subclass": (
        lambda: _NamedFullyAssociative(8), TranslationMap, True, (),
        "tlb_type",
    ),
    "no-prefetch": (
        lambda: CompleteSubblockTLB(8), TranslationMap, False, (),
        "no_prefetch",
    ),
    "resident": (_prefilled_tlb, TranslationMap, True, (), "resident_entries"),
    "prefetch-drops-page": (
        lambda: CompleteSubblockTLB(8), _PrefetchDropsPage, True, (),
        "entry_misses_vpn",
    ),
    "attrs-per-page": (
        lambda: SuperpageTLB(8), _AttrsPerPage, True, (),
        "tag_entries_differ",
    ),
    "base-page-in-superpage": (
        lambda: SuperpageTLB(8), _BasePageInSuperpage, True, (),
        "foreign_tag_hit",
    ),
    "base-page-in-partial-block": (
        lambda: PartialSubblockTLB(8), _BasePageInPartialBlock, True,
        (PARTIAL_BASE + 12,), "block_tag_shared",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_takes_scalar_path_and_matches(case):
    make_tlb, map_class, prefetch, extra, reason = REFUSALS[case]
    tmap = map_class.from_space(
        refusal_space(), policy_for("partial-subblock")
    )
    run_both(refusal_trace(extra), make_tlb, tmap, prefetch)
    label = make_tlb().name
    assert fallbacks() == {
        f"phase1.fallback{{reason={reason},tlb={label}}}": 1
    }


def test_figure11_sweep_records_no_fallback(monkeypatch):
    monkeypatch.setattr(common, "_STREAM_CACHE", None)
    common.clear_caches()
    try:
        for figure in fig11.SUBFIGURES:
            fig11.run_subfigure(
                figure, workloads=TIER1_WORKLOADS, trace_length=5_000
            )
    finally:
        common.clear_caches()
    assert fallbacks() == {}


def test_multiprog_asid_stream_records_one_fallback(monkeypatch):
    monkeypatch.setattr(common, "_STREAM_CACHE", None)
    common.clear_caches()
    try:
        multiprog.run(
            workloads=["compress"], trace_length=5_000, tlb_sizes=(64,)
        )
    finally:
        common.clear_caches()
    assert fallbacks() == {
        "phase1.fallback{reason=tlb_type,tlb=asid-fully-associative}": 1
    }


def test_fallbacks_reach_metrics_json_from_workers(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    common.clear_caches()
    try:
        runner.run_all(
            5_000, jobs=2, workloads=("compress", "gcc"),
            only=("fig11d", "multiprog"),
            resilience=runner.ResilienceConfig(run_dir=str(run_dir)),
        )
    finally:
        common.clear_caches()
    doc = json.loads((run_dir / METRICS_NAME).read_text())
    series = [
        (labels, value) for name, labels, value in doc["registry"]["counters"]
        if name == "phase1.fallback"
    ]
    # Two workloads x three TLB sizes, one ASID stream each; the
    # Figure 11d and flush-on-switch streams all take the pass.
    assert series == [
        ({"reason": "tlb_type", "tlb": "asid-fully-associative"}, 6)
    ]


# ---------------------------------------------------------------------------
# (d) Pages no fill can serve raise the scalar loop's error
# ---------------------------------------------------------------------------
def assert_same_error(trace, make_tlb, tmap):
    fast_tlb = make_tlb()
    with pytest.raises(Exception) as fast:
        collect_misses(trace, fast_tlb, tmap)
    with pytest.raises(Exception) as slow:
        collect_misses_scalar(trace, make_tlb(), tmap)
    assert type(fast.value) is type(slow.value)
    assert str(fast.value) == str(slow.value)
    assert getattr(fast.value, "vpn", None) == getattr(slow.value, "vpn", None)
    # The pass raised before touching the TLB, and did not fall back.
    assert fast_tlb.stats == make_tlb().stats and not fast_tlb.entries()
    assert fallbacks() == {}
    return fast.value


@pytest.mark.parametrize("kind", KINDS)
def test_unmapped_page_mid_trace_raises_like_scalar(kind):
    tmap = TranslationMap.from_space(refusal_space(), policy_for(kind))
    vpns = refusal_trace().vpns.tolist()
    trace = Trace(vpns[:150] + [0x777, 0x778] + vpns[150:])
    error = assert_same_error(trace, TLB_FACTORIES[kind], tmap)
    assert isinstance(error, PageFaultError) and error.vpn == 0x777


@pytest.mark.parametrize("kind", KINDS)
def test_unmapped_page_in_later_segment_raises_like_scalar(kind):
    tmap = TranslationMap.from_space(refusal_space(), policy_for(kind))
    vpns = refusal_trace().vpns.tolist()
    trace = Trace(
        vpns[:300] + [0x778] + vpns[300:] + [0x777],
        switch_points=[100, 250, 301],
    )
    error = assert_same_error(trace, TLB_FACTORIES[kind], tmap)
    assert isinstance(error, PageFaultError) and error.vpn == 0x778


@pytest.mark.parametrize("kind", KINDS)
def test_clear_valid_bit_in_partial_block_raises_like_scalar(kind):
    tmap = TranslationMap.from_space(
        refusal_space(), policy_for("partial-subblock")
    )
    vpns = refusal_trace().vpns.tolist()
    trace = Trace(vpns[:200] + [PARTIAL_BASE + 11] + vpns[200:])
    error = assert_same_error(trace, TLB_FACTORIES[kind], tmap)
    assert isinstance(error, PageFaultError)
    assert error.vpn == PARTIAL_BASE + 11


def test_out_of_range_page_raises_like_scalar():
    tmap = TranslationMap.from_space(refusal_space())
    trace = Trace([SUPERPAGE_BASE, LAYOUT.max_vpn + 1, SUPERPAGE_BASE])
    error = assert_same_error(trace, TLB_FACTORIES["single"], tmap)
    assert isinstance(error, AddressError)
