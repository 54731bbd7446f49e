"""Workload substrate: layouts, trace generators, and suite calibration."""

import numpy as np
import pytest

from repro.addr.layout import AddressLayout
from repro.errors import ConfigurationError
from repro.workloads.suite import (
    PAPER_WORKLOADS,
    PROCESS_VA_STRIDE,
    load_workload,
)
from repro.workloads.synthetic import (
    RegionSpec,
    build_address_space,
    phased_trace,
    pointer_chase_trace,
    stride_trace,
    sweep_trace,
    working_set_trace,
)
from repro.workloads.trace import Trace


class TestRegionSpec:
    def test_rejects_bad_fill(self):
        with pytest.raises(ConfigurationError):
            RegionSpec("x", 0, 10, fill=0.0)
        with pytest.raises(ConfigurationError):
            RegionSpec("x", 0, 10, fill=1.5)

    def test_rejects_empty_region(self):
        with pytest.raises(ConfigurationError):
            RegionSpec("x", 0, 0)


class TestBuildAddressSpace:
    def test_dense_region_fully_mapped(self, layout):
        space = build_address_space([RegionSpec("r", 0x100, 64)], layout)
        assert len(space) == 64
        assert all(space.is_mapped(0x100 + i) for i in range(64))

    def test_partial_fill_approximates_fraction(self, layout):
        space = build_address_space(
            [RegionSpec("r", 0x100, 640, fill=0.5)], layout, seed=3
        )
        assert 0.35 * 640 < len(space) < 0.65 * 640

    def test_clustered_fill_is_bursty(self, layout):
        space = build_address_space(
            [RegionSpec("r", 0x100, 1600, fill=0.5)], layout, seed=3
        )
        # Bursty: mean block population well above the uniform-random
        # expectation for the same fill.
        assert space.mean_block_population() > 4

    @pytest.mark.parametrize("seed", [0, 3, 11, 42])
    def test_clustered_fill_realizes_exact_fraction(self, layout, seed):
        # Regression: the old per-block binomial draws over/undershot the
        # target and the overshoot was truncated as `chosen[:keep]`,
        # silently dropping entire tail blocks.
        spec = RegionSpec("r", 0x100, 3200, fill=0.5)
        space = build_address_space([spec], layout, seed=seed)
        assert len(space) == round(3200 * 0.5)

    @pytest.mark.parametrize("seed", [0, 3, 11, 42])
    def test_clustered_fill_has_no_low_address_bias(self, layout, seed):
        # Regression: truncation concentrated the mapped subset at low
        # addresses; both halves of the region must carry their share.
        spec = RegionSpec("r", 0x100, 3200, fill=0.5)
        space = build_address_space([spec], layout, seed=seed)
        vpns = np.asarray(space.vpns())
        midpoint = 0x100 + 1600
        low, high = (vpns < midpoint).sum(), (vpns >= midpoint).sum()
        assert high > 0.35 * len(vpns)
        assert abs(int(low) - int(high)) < 0.2 * len(vpns)

    def test_uniform_fill_is_sparser(self, layout):
        bursty = build_address_space(
            [RegionSpec("r", 0x100, 1600, fill=0.3)], layout, seed=3
        )
        uniform = build_address_space(
            [RegionSpec("r", 0x100, 1600, fill=0.3, clustered_fill=False)],
            layout, seed=3,
        )
        assert uniform.nactive(16) >= bursty.nactive(16)

    def test_segments_recorded(self, layout):
        space = build_address_space(
            [RegionSpec("text", 0x100, 8), RegionSpec("heap", 0x900, 8)],
            layout,
        )
        assert [seg.name for seg in space.segments] == ["text", "heap"]

    def test_reservation_allocator_places_blocks(self, layout):
        space = build_address_space([RegionSpec("r", 0x100, 64)], layout)
        # Dense in-order faulting with reservations: properly placed.
        for vpn, mapping in space.items():
            assert (vpn % 16) == (mapping.ppn % 16)


class TestTraceGenerators:
    @pytest.fixture
    def space(self, layout):
        return build_address_space([RegionSpec("r", 0x100, 128)], layout)

    def test_sweep_visits_everything(self, space):
        trace = sweep_trace(space, 256)
        assert len(trace) == 256
        assert set(trace.vpns.tolist()) == set(space.vpns())

    def test_sweep_repeat_scales_reuse(self, space):
        trace = sweep_trace(space, 256, repeat=4)
        stats = trace.stats()
        assert stats.reuse_factor == pytest.approx(4.0, rel=0.3)

    def test_sweep_segment_filter(self, layout):
        space = build_address_space(
            [RegionSpec("a", 0x100, 16), RegionSpec("b", 0x900, 16)], layout
        )
        trace = sweep_trace(space, 64, segment_names=["b"])
        assert all(v >= 0x900 for v in trace.vpns.tolist())

    def test_sweep_bad_segment_rejected(self, space):
        with pytest.raises(ConfigurationError):
            sweep_trace(space, 10, segment_names=["nope"])

    def test_stride_covers_all_phases(self, space):
        trace = stride_trace(space, 1024, stride_pages=4)
        assert set(trace.vpns.tolist()) == set(space.vpns())

    def test_stride_rejects_bad_params(self, space):
        with pytest.raises(ConfigurationError):
            stride_trace(space, 10, stride_pages=0)
        with pytest.raises(ConfigurationError):
            stride_trace(space, 10, repeat=0)

    def test_working_set_references_mapped_pages(self, space):
        trace = working_set_trace(space, 1000, working_set_pages=32, seed=1)
        assert set(trace.vpns.tolist()) <= set(space.vpns())

    def test_working_set_is_skewed(self, space):
        trace = working_set_trace(
            space, 5000, working_set_pages=64, churn=0.0, locality=1.5, seed=1
        )
        counts = np.bincount(trace.vpns - trace.vpns.min())
        top = np.sort(counts)[-8:].sum()
        assert top / len(trace) > 0.4  # hot head dominates

    def test_pointer_chase_subset(self, space):
        trace = pointer_chase_trace(space, 1000, hot_fraction=0.1, seed=1)
        assert len(set(trace.vpns.tolist())) <= max(1, int(128 * 0.1)) + 1

    def test_pointer_chase_rejects_bad_fraction(self, space):
        with pytest.raises(ConfigurationError):
            pointer_chase_trace(space, 10, hot_fraction=0.0)

    def test_phased_concatenates(self, space):
        a = sweep_trace(space, 100)
        b = sweep_trace(space, 50)
        combined = phased_trace([a, b])
        assert len(combined) == 150

    def test_empty_space_rejected(self, layout):
        from repro.addr.space import AddressSpace

        with pytest.raises(ConfigurationError):
            sweep_trace(AddressSpace(layout), 10)


class TestTraceContainer:
    def test_stats(self):
        trace = Trace([1, 2, 2, 17], subblock_factor=16)
        stats = trace.stats()
        assert stats.references == 4
        assert stats.unique_pages == 3
        assert stats.unique_blocks == 2

    def test_switch_points_validated(self):
        with pytest.raises(ConfigurationError):
            Trace([1, 2, 3], switch_points=[5, 2])

    def test_segments_split_on_switches(self):
        trace = Trace([1, 2, 3, 4], switch_points=[2])
        segments = list(trace.segments())
        assert len(segments) == 2
        assert segments[0][0] is False and segments[1][0] is True
        assert segments[1][1].tolist() == [3, 4]

    def test_head_clips_switches(self):
        trace = Trace(list(range(10)), switch_points=[3, 8])
        head = trace.head(5)
        assert len(head) == 5 and head.switch_points == (3,)
        owned = Trace(
            list(range(10)), switch_points=[3, 6], segment_owners=[0, 1, 0]
        )
        assert owned.head(8).segment_owners == (0, 1, 0)
        assert owned.head(5).segment_owners == (0, 1)
        assert owned.head(3).segment_owners == (0,)

    def test_interleave_round_robin(self):
        a = Trace([1] * 4, name="a")
        b = Trace([2] * 4, name="b")
        merged = Trace.interleave([a, b], quantum=2)
        assert merged.vpns.tolist() == [1, 1, 2, 2, 1, 1, 2, 2]
        assert merged.switch_points == (2, 4, 6)

    def test_interleave_no_switch_for_lone_survivor(self):
        a = Trace([1] * 6, name="a")
        b = Trace([2] * 2, name="b")
        merged = Trace.interleave([a, b], quantum=2)
        # After b exhausts, consecutive a-chunks must not add switches.
        assert merged.switch_points == (2, 4)


class TestSuiteCalibration:
    @pytest.mark.parametrize("name", sorted(PAPER_WORKLOADS))
    def test_footprint_matches_table1(self, name):
        workload = load_workload(name, with_trace=False)
        target_pages = PAPER_WORKLOADS[name].table1[4] * 1024 // 24
        ratio = workload.total_mapped_pages() / target_pages
        assert 0.85 < ratio < 1.15

    def test_multiprocess_spaces_disjoint(self):
        workload = load_workload("compress", with_trace=False)
        assert len(workload.spaces) == 2
        vpns0 = set(workload.spaces[0])
        vpns1 = set(workload.spaces[1])
        assert not (vpns0 & vpns1)
        assert max(vpns0) < PROCESS_VA_STRIDE

    def test_union_space_sums(self):
        workload = load_workload("compress", with_trace=False)
        union = workload.union_space()
        assert len(union) == workload.total_mapped_pages()

    def test_traces_reference_mapped_pages(self):
        workload = load_workload("gcc", trace_length=5_000)
        union = workload.union_space()
        assert all(union.is_mapped(int(v)) for v in workload.trace.vpns[:500])

    def test_multiproc_traces_have_switches(self):
        workload = load_workload("compress", trace_length=60_000)
        assert len(workload.trace.switch_points) >= 1

    def test_kernel_has_no_trace(self):
        assert load_workload("kernel").trace is None

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigurationError):
            load_workload("doom")

    def test_deterministic_given_seed(self):
        a = load_workload("mp3d", trace_length=2_000, seed=9)
        b = load_workload("mp3d", trace_length=2_000, seed=9)
        assert np.array_equal(a.trace.vpns, b.trace.vpns)
        assert sorted(a.spaces[0]) == sorted(b.spaces[0])
