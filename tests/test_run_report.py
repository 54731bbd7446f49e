"""End-to-end profiler pipeline: one profiled parallel run, then every
consumer of its artefacts — trace nesting/coverage, the registry-vs-
tracer differential, ``repro.cli report`` / ``metrics RUN_DIR``, and the
bench-gate sidecar validator — asserted against the same run directory.
"""

import json
import time
from types import SimpleNamespace

import pytest

from repro import cli
from repro.experiments import common, runner
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import (
    export_chrome_trace,
    load_chrome_trace,
    validate_nesting,
)
from repro.resilience.journal import (
    JOURNAL_NAME,
    METRICS_NAME,
    PROFILE_NAME,
    REPORT_NAME,
    REPORT_SIDECAR_NAME,
    TRACE_NAME,
)
from tests.conftest import load_bench_gate

SUBSET = ("table1", "fig11d")
WORKLOADS = ("mp3d",)
TRACE_LENGTH = 12_000


@pytest.fixture(scope="module")
def profiled_run(tmp_path_factory):
    """One profiled ``--jobs 2`` run; shared by every test below."""
    root = tmp_path_factory.mktemp("profiled")
    run_dir = root / "run"
    run_dir.mkdir()
    common.clear_caches()
    try:
        metrics = runner.RunMetrics()
        results = runner.run_all(
            TRACE_LENGTH, jobs=2, cache_dir=str(root / "streams"),
            workloads=WORKLOADS, only=SUBSET,
            resilience=runner.ResilienceConfig(run_dir=str(run_dir)),
            profile=True,
            metrics=metrics,
        )
        export_chrome_trace(metrics.spans, run_dir / TRACE_NAME)
        registry_state = json.loads(json.dumps(metrics.registry.state()))
    finally:
        common.clear_caches()
        common.configure_stream_cache(None)
    return SimpleNamespace(
        run_dir=run_dir, results=results, metrics=metrics,
        registry_state=registry_state,
    )


class TestRunArtifacts:
    def test_run_dir_holds_every_artifact(self, profiled_run):
        for name in (JOURNAL_NAME, METRICS_NAME, PROFILE_NAME, TRACE_NAME):
            assert (profiled_run.run_dir / name).exists(), name

    def test_metrics_json_round_trips_the_registry(self, profiled_run):
        doc = json.loads(
            (profiled_run.run_dir / METRICS_NAME).read_text()
        )
        assert doc["metrics_version"] == 1
        rebuilt = MetricsRegistry()
        rebuilt.merge_state(doc["registry"])
        assert rebuilt.state() == profiled_run.registry_state
        assert doc["run"]["jobs"] == 2
        # Completion order: a permutation of the subset, in the order the
        # journal recorded the results.
        completed = doc["run"]["completed"]
        assert sorted(completed) == sorted(SUBSET)
        journal = (profiled_run.run_dir / JOURNAL_NAME).read_text()
        assert completed == [
            json.loads(line)["entry"]["experiment"]
            for line in journal.splitlines() if '"entry"' in line
        ]

    def test_walk_profile_totals_match_registry_histograms(self, profiled_run):
        """The differential ISSUE pins: per table, the registry's
        log2-bucketed ``walk.cache_lines`` totals must equal the exact
        profile's line totals — they are two views of one tracer feed."""
        profile_doc = json.loads(
            (profiled_run.run_dir / PROFILE_NAME).read_text()
        )
        registry = MetricsRegistry()
        registry.merge_state(profiled_run.registry_state)
        tables = profile_doc["tables"]
        assert tables, "profiled run saw no page-table walks"
        for name, table in tables.items():
            histogram = registry.histogram("walk.cache_lines", table=name)
            assert histogram.count == table["walks"], name
            assert histogram.total == table["total_lines"], name
            assert (sum(count for _, count in histogram.as_dict()["buckets"])
                    + histogram.zeros == histogram.count), name
            probes = registry.histogram("walk.probes", table=name)
            assert probes.total == table["total_probes"], name
        assert profile_doc["total_lines"] == sum(
            t["total_lines"] for t in tables.values()
        )


class TestTraceTimeline:
    def test_spans_nest_and_cover_the_run(self, profiled_run, tmp_path):
        """The module's ``--jobs 2`` run, and a small ``--jobs 1`` run
        whose tasks record their spans in the runner's process."""
        serial = runner.RunMetrics()
        common.clear_caches()
        try:
            runner.run_all(
                TRACE_LENGTH, jobs=1, cache_dir=str(tmp_path / "streams"),
                workloads=WORKLOADS, only=("table1",), profile=True,
                metrics=serial,
            )
        finally:
            common.clear_caches()
        export_chrome_trace(serial.spans, tmp_path / TRACE_NAME)
        parallel_spans = load_chrome_trace(profiled_run.run_dir / TRACE_NAME)
        serial_spans = load_chrome_trace(tmp_path / TRACE_NAME)
        for spans, metrics in (
            (parallel_spans, profiled_run.metrics), (serial_spans, serial),
        ):
            assert validate_nesting(spans) == []
            roots = [s for s in spans if s.name == "run"]
            assert len(roots) == 1
            run_span = roots[0]
            wall_us = metrics.wall_seconds * 1e6
            assert run_span.duration_us >= 0.99 * wall_us
            # Phases and tasks lie inside the run span on the parent track.
            for span in spans:
                if span.pid == run_span.pid:
                    assert span.start_us >= run_span.start_us
                    assert span.end_us <= run_span.end_us
            categories = {s.category for s in spans}
            assert {"run", "phase"} <= categories
            assert {"prewarm", "experiment"} & categories
        # Worker tasks landed on their own tracks ...
        runner_pids = {s.pid for s in parallel_spans if s.name == "run"}
        assert {s.pid for s in parallel_spans} - runner_pids, "no worker spans"
        # ... and in-process ones inside a phase on the runner's track.
        phases = [s for s in serial_spans if s.name.startswith("phase:")]
        tasks = [s for s in serial_spans if s.name.startswith("task:")]
        assert tasks
        for task in tasks:
            assert any(
                (phase.pid, phase.tid) == (task.pid, task.tid)
                and phase.start_us <= task.start_us
                and task.end_us <= phase.end_us
                for phase in phases
            ), task.name

    def test_span_summary_reports_full_coverage(self, profiled_run):
        summary = profiled_run.metrics.span_summary()
        assert summary["count"] == len(profiled_run.metrics.spans)
        assert summary["run_coverage"] >= 0.99

    def test_coverage_holds_when_the_progress_write_is_slow(
        self, tmp_path, monkeypatch
    ):
        """The tracker's final fsync'd write is part of the measured wall
        time, so a slow disk cannot open a gap under the run span."""
        from repro.obs.watch import ProgressTracker

        finish = ProgressTracker.finish

        def slow_finish(self, interrupted=False):
            time.sleep(0.05)
            finish(self, interrupted)

        monkeypatch.setattr(ProgressTracker, "finish", slow_finish)
        common.clear_caches()
        try:
            metrics = runner.RunMetrics()
            runner.run_all(
                TRACE_LENGTH, jobs=1, cache_dir=str(tmp_path / "streams"),
                workloads=WORKLOADS, only=("table1",),
                resilience=runner.ResilienceConfig(
                    run_dir=str(tmp_path / "run")
                ),
                profile=True,
                metrics=metrics,
            )
        finally:
            common.clear_caches()
        assert metrics.span_summary()["run_coverage"] >= 0.99


class TestReportCli:
    def test_report_command_writes_markdown_and_sidecar(
        self, profiled_run, capsys
    ):
        assert cli.main(["report", str(profiled_run.run_dir)]) == 0
        rendered = capsys.readouterr().out
        report_path = profiled_run.run_dir / REPORT_NAME
        sidecar_path = profiled_run.run_dir / REPORT_SIDECAR_NAME
        assert report_path.exists() and sidecar_path.exists()
        markdown = report_path.read_text()
        assert markdown.lstrip().startswith("# Run report")
        for heading in ("## Run summary", "## Experiments", "## Metrics",
                        "## Walk profile", "## Span timeline", "## Failures"):
            assert heading in markdown, heading
        assert "walk.cache_lines" in markdown
        assert markdown in rendered
        sidecar = json.loads(sidecar_path.read_text())
        assert sidecar["report_version"] == 1
        assert [t["experiment"] for t in sidecar["experiments"]] == list(SUBSET)
        assert sidecar["failures"] == []
        assert sidecar["walk_profile"], "sidecar dropped the walk profile"

    def test_run_summary_counts_replays_by_engine(self, profiled_run):
        from repro.analysis.report import render_run_report

        markdown, sidecar = render_run_report(profiled_run.run_dir)
        scalar = sum(
            value for name, labels, value in sidecar["metrics"]["counters"]
            if name == "engine.replays" and labels["engine"] == "scalar"
        )
        # fig11d replays four tables for its one workload.
        assert scalar >= 4
        assert f"- replays: 0 batch, {scalar} scalar (0 batch fallbacks)" in (
            markdown
        )

    def test_report_percentiles_match_profile_artifact(self, profiled_run):
        markdown, sidecar = __import__(
            "repro.analysis.report", fromlist=["render_run_report"]
        ).render_run_report(profiled_run.run_dir)
        profile_doc = json.loads(
            (profiled_run.run_dir / PROFILE_NAME).read_text()
        )
        for name, table in profile_doc["tables"].items():
            row = next(
                line for line in markdown.splitlines()
                if line.startswith(f"{name} ")
            )
            cells = row.split()
            # table walks faults mean p50 p95 p99 probes-p50 -p95 -p99
            assert [int(c) for c in cells[4:7]] == [
                table["lines_p50"], table["lines_p95"], table["lines_p99"]
            ], name
            assert [int(c) for c in cells[7:10]] == [
                table["probes_p50"], table["probes_p95"], table["probes_p99"]
            ], name
            assert sidecar["walk_profile"][name]["lines_p99"] == (
                table["lines_p99"]
            )

    def test_metrics_from_run_dir(self, profiled_run, capsys):
        assert cli.main(
            ["metrics", str(profiled_run.run_dir), "--json"]
        ) == 0
        dumped = json.loads(capsys.readouterr().out)
        rebuilt = MetricsRegistry()
        rebuilt.merge_state(
            json.loads(
                (profiled_run.run_dir / METRICS_NAME).read_text()
            )["registry"]
        )
        assert dumped == rebuilt.snapshot()

    def test_report_on_missing_dir_fails_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "never-ran"
        assert cli.main(["report", str(missing)]) == 1
        assert "no" in capsys.readouterr().out.lower()


class TestSidecarGate:
    def test_real_sidecar_validates(self, profiled_run):
        gate = load_bench_gate()
        assert cli.main(["report", str(profiled_run.run_dir)]) == 0
        sidecar = json.loads(
            (profiled_run.run_dir / REPORT_SIDECAR_NAME).read_text()
        )
        assert gate.validate_report_sidecar(sidecar) == []
        assert gate.main(
            ["--report-sidecar",
             str(profiled_run.run_dir / REPORT_SIDECAR_NAME)]
        ) == 0

    def test_malformed_sidecars_are_rejected(self, tmp_path):
        gate = load_bench_gate()
        assert gate.validate_report_sidecar([]) != []
        assert any(
            "report_version" in problem
            for problem in gate.validate_report_sidecar({"report_version": 9})
        )
        bad = {
            "report_version": 1, "run_dir": "x",
            "metrics": {"counters": [["a", {}, 1]], "gauges": [],
                        "histograms": [["h", {}]]},  # not a triple
            "run": {}, "phases": [], "experiments": [], "failures": [],
        }
        assert any(
            "triples" in problem
            for problem in gate.validate_report_sidecar(bad)
        )
        assert gate.main(["--report-sidecar", str(tmp_path / "nope.json")]) == 1
