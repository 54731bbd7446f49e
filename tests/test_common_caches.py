"""The experiment harness's memoization layer."""

import numpy as np

from repro.experiments import common


class TestMemoization:
    def setup_method(self):
        common.clear_caches()

    def teardown_method(self):
        common.clear_caches()

    def test_workload_identity(self):
        a = common.get_workload("mp3d", 5_000)
        b = common.get_workload("mp3d", 5_000)
        assert a is b

    def test_distinct_lengths_distinct_workloads(self):
        a = common.get_workload("mp3d", 5_000)
        b = common.get_workload("mp3d", 6_000)
        assert a is not b

    def test_translation_map_identity_per_policy(self):
        workload = common.get_workload("mp3d", 5_000)
        assert common.get_translation_map(workload, "single") is (
            common.get_translation_map(workload, "single")
        )
        assert common.get_translation_map(workload, "single") is not (
            common.get_translation_map(workload, "superpage")
        )
        # Both TLB kinds use base PTEs only: one policy, one map.
        assert common.get_translation_map(workload, "single") is (
            common.get_translation_map(workload, "complete-subblock")
        )

    def test_miss_stream_identity_per_config(self):
        workload = common.get_workload("mp3d", 5_000)
        a = common.get_miss_stream(workload, "single", 64)
        b = common.get_miss_stream(workload, "single", 64)
        c = common.get_miss_stream(workload, "single", 56)
        assert a is b
        assert a is not c
        assert c.misses >= a.misses  # fewer entries, no fewer misses

    def test_clear_caches_resets(self):
        a = common.get_workload("mp3d", 5_000)
        common.clear_caches()
        b = common.get_workload("mp3d", 5_000)
        assert a is not b
        assert np.array_equal(a.trace.vpns, b.trace.vpns)  # deterministic

    def test_policy_for_mapping(self):
        assert common.policy_for("single") is None
        assert common.policy_for("complete-subblock") is None
        superpage = common.policy_for("superpage")
        assert superpage is not None and not superpage.enable_subblocks
        psb = common.policy_for("partial-subblock")
        assert psb is not None and psb.enable_subblocks

    def test_tlb_factories_build_fresh_instances(self):
        for kind, factory in common.TLB_FACTORIES.items():
            first = factory(64)
            second = factory(64)
            assert first is not second
            assert first.capacity == 64


class TestExperimentResultHelpers:
    def test_by_label_and_column(self):
        result = common.ExperimentResult(
            experiment="E", headers=["w", "a", "b"],
            rows=[["x", 1, 2], ["y", 3, 4]],
        )
        assert result.by_label() == {"x": [1, 2], "y": [3, 4]}
        assert result.column("b") == {"x": 2, "y": 4}

    def test_render_includes_notes(self):
        result = common.ExperimentResult(
            experiment="E", headers=["w", "a"], rows=[["x", 1]], notes="N",
        )
        assert "N" in result.render()
