"""Checks of the benchmark's own machinery.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import copy
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import golden  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

worker.import_program()

from repro.experiments import common, fig11, tenancy  # noqa: E402
from repro.experiments.runner import run_all  # noqa: E402
from repro.obs.metrics import HistogramStats  # noqa: E402
from repro.tenancy import scheduler  # noqa: E402


def _installed() -> layers.Probes:
    probes = layers.Probes()
    layers.install_counters(probes)
    layers.install_timers(probes)
    return probes


def test_uninstall_restores_every_original():
    probes = _installed()
    first = {}
    for owner, attr, raw in probes.originals():
        first.setdefault((id(owner), attr), (owner, attr, raw))
    assert len(first) >= 25
    for owner, attr, raw in first.values():
        assert owner.__dict__[attr] is not raw
    probes.uninstall()
    assert probes.originals() == []
    for owner, attr, raw in first.values():
        assert owner.__dict__[attr] is raw


def test_wraps_the_names_callers_look_up():
    originals = (common.collect_misses, scheduler.replay_many, fig11.replay)
    probes = _installed()
    try:
        wrapped = (common.collect_misses, scheduler.replay_many, fig11.replay)
        assert all(new is not old for new, old in zip(wrapped, originals))
    finally:
        probes.uninstall()
    restored = (common.collect_misses, scheduler.replay_many, fig11.replay)
    assert all(new is old for new, old in zip(restored, originals))


def test_self_times_exclude_nested_wrapped_calls():
    class Inner:
        def run(self):
            time.sleep(0.05)

    class Outer:
        def run(self):
            time.sleep(0.01)
            Inner().run()

    probes = layers.Probes()
    probes.time_method(Outer, "run", "tenancy.admit")
    probes.time_method(Inner, "run", "pagetables.insert_many")
    started = time.perf_counter()
    try:
        Outer().run()
    finally:
        probes.uninstall()
    elapsed = time.perf_counter() - started
    outer = probes.self_seconds["tenancy.admit"]
    inner = probes.self_seconds["pagetables.insert_many"]
    assert inner >= 0.05
    assert 0.01 <= outer < 0.05
    assert outer + inner <= elapsed


def test_histograms_outside_walk_feeds_are_not_feed_time():
    probes = _installed()
    try:
        HistogramStats().observe_many(3.0, 2)
    finally:
        probes.uninstall()
    assert probes.calls["obs.observe_many"] == 0


def test_populate_count_walks_each_map_once():
    class Map:
        walks = 0

        def mapped_vpns(self):
            Map.walks += 1
            return iter(range(5))

    probes = layers.Probes()
    tmap = Map()
    for _ in range(3):
        layers._count_populate(probes, (tmap, None, True), {}, None)
    assert Map.walks == 1
    assert probes.counts["pagetables.ptes_inserted"] == 15


def _tenancy_cell():
    common.configure_engine("batch")
    result, _ = tenancy.run_config("clustered", 64, 0.1, 4_000, seed=3)
    return worker.tenancy_record(result)


def test_timed_tenancy_cell_matches_untimed():
    plain = _tenancy_cell()
    probes = _installed()
    try:
        timed = _tenancy_cell()
    finally:
        probes.uninstall()
    assert timed == plain
    assert probes.counts["walks"] == plain["misses"]
    assert probes.calls["tenancy.admit"] > 0
    assert probes.calls["batch.compile_kernel"] > 0


def _fig11_rows():
    common.clear_caches()
    results = run_all(
        trace_length=2_000, workloads=("gcc", "mp3d"),
        only=("fig11a", "fig11d"), engine="batch",
    )
    common.clear_caches()
    return {key: result.rows for key, result in results.items()}


def test_timed_fig11_matches_untimed():
    plain = _fig11_rows()
    probes = _installed()
    try:
        timed = _fig11_rows()
    finally:
        probes.uninstall()
    assert timed == plain
    assert probes.counts["walks"] == probes.counts["batch.walks"] > 0
    assert probes.counts["phase1.refs"] == probes.counts["refs"] > 0
    assert not probes.fallbacks


def test_reported_metrics_are_the_ones_benchmark_json_declares():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for key, reported in (("end_to_end", run.END_TO_END),
                          ("per_layer", run.PER_LAYER)):
        declared = {metric["name"]: metric["unit"] for metric in spec[key]}
        assert declared == reported
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)


def test_host_slowdown_is_the_fastest_pass_over_a_quiet_hosts():
    host = hostspeed.HostSpeed()
    host.sample()
    assert len(host.passes) == hostspeed.PASSES
    quiet = hostspeed.QUIET_PASS_S
    host.passes = [3 * quiet, 2 * quiet, 5 * quiet]
    assert host.slowdown() == pytest.approx(2.0)


def test_wall_sums_each_parts_fastest_time_at_the_hosts_best_speed():
    plain = [
        {"parts_s": {"hashed": 4.0, "clustered": 5.0, "rest": 0.1},
         "walks": 600, "refs": 600, "setup_s": 0.5, "peak_rss_mb": 90.0},
        {"parts_s": {"hashed": 3.0, "clustered": 6.0, "rest": 0.2},
         "walks": 600, "refs": 600, "setup_s": 0.7, "peak_rss_mb": 92.0},
    ]
    fill = {"ok": True, "lifetime_s": 10.0}
    assert run.fastest_parts(plain) == {
        "clustered": 5.0, "hashed": 3.0, "rest": 0.1,
    }
    values = run.end_to_end(fill, plain, 2.0)
    assert values["wall_s"] == pytest.approx(8.1 / 2)
    assert values["walks_per_s"] == pytest.approx(600 / (8.1 / 2))
    assert values["setup_s"] == pytest.approx(10.6 / 2)
    assert values["peak_rss_mb"] == pytest.approx(91.0)


def test_compare_counts_each_differing_statistic():
    want = {"walks": 10, "refs": 20,
            "ops": {"a": {"rows": [[1, 2.5]]}, "b": {"rows": [[3]]}}}
    same = dict(copy.deepcopy(want), errors={})
    assert golden.compare(same, want, ("a", "b")) == (set(), 0)

    changed = copy.deepcopy(same)
    changed["ops"]["a"]["rows"][0][1] = 2.6
    assert golden.compare(changed, want, ("a", "b")) == ({"a"}, 1)

    raised = copy.deepcopy(same)
    del raised["ops"]["b"]
    raised["errors"] = {"b": "ValueError: boom"}
    assert golden.compare(raised, want, ("a", "b")) == ({"b"}, 1)

    recounted = dict(copy.deepcopy(same), walks=11)
    assert golden.compare(recounted, want, ("a", "b")) == ({"a", "b"}, 1)
