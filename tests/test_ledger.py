"""Cross-run benchmark ledger: ingestion, noise bands, the family gate.

Pins the two ingestion invariants (`repro.obs.ledger`'s docstring):
jobs-invariance — a ``--jobs 1`` and a ``--jobs N`` bench document
flatten to byte-identical rows under one stamp — and idempotence —
re-appending an already-ingested (document, stamp) pair is a no-op.
On top: band math, improvement-event resets, torn-tail tolerance, and
a sabotage pass proving a doctored regression trips
``bench_gate.py --family ... --ledger`` both through noise bands and
through the committed-baseline fallback.
"""

import json

import pytest

from repro.obs.ledger import (
    BenchLedger,
    GATED_METRICS,
    LedgerEvent,
    LedgerRow,
    Stamp,
    compute_run_id,
    default_ledger_path,
    expected_task_seconds,
    noise_band,
    rows_from_bench,
    rows_from_run_dir,
)
from repro.resilience.journal import METRICS_NAME, PROFILE_NAME
from tests.conftest import load_bench_gate


NUMA_DOC = {
    "benchmark": "numa",
    "trace_length": 1000,
    "seed": 7,
    "configs": [
        {
            "workload/table": "mp3d/x86_64",
            "nodes": 4,
            "none cyc/miss": 100.0,
            "mitosis cyc/miss": 80.0,
            "migrate cyc/miss": 90.0,
            "local_fraction": 0.75,
        },
    ],
}

TENANCY_DOC = {
    "benchmark": "tenancy",
    "trace_length": 1000,
    "configs": [
        {
            "config": "100t/churn",
            "tenants": 100,
            "footprint_mb": 8,
            "p50_cycles": 40.0,
            "p95_cycles": 60.0,
            "p99_cycles": 80.0,
            "worst_tenant_p99": 90.0,
            "lines_per_miss": 1.5,
        },
    ],
}


class TestFlattening:
    def test_numa_rows_carry_config_metric_and_stamp(self):
        rows = rows_from_bench(
            NUMA_DOC, stamp=Stamp(git_sha="abc", engine="batch", jobs=2)
        )
        by_key = {(r.config, r.metric): r for r in rows}
        row = by_key[("mp3d/x86_64/4n", "mitosis cyc/miss")]
        assert row.value == 80.0
        assert row.family == "numa"
        assert row.trace_length == 1000
        assert (row.git_sha, row.engine, row.jobs) == ("abc", "batch", 2)
        # The seed is content-derived from the document.
        assert row.seed == 7
        # The grouping column is identity, not a metric.
        assert ("mp3d/x86_64/4n", "nodes") not in by_key
        # One document ingest = one run_id.
        assert len({r.run_id for r in rows}) == 1

    def test_batch_rows_split_aggregates_from_configs(self):
        doc = {
            "benchmark": "batch",
            "trace_length": 500,
            "aggregate_speedup": 40.0,
            "scalar_ms": 800.0,
            "batch_ms": 20.0,
            "configs": [
                {"workload": "gcc", "tlb": "direct", "table": "hashed",
                 "speedup": 35.0, "scalar_ms": 100.0, "batch_ms": 3.0},
            ],
        }
        rows = rows_from_bench(doc)
        by_key = {(r.config, r.metric): r.value for r in rows}
        assert by_key[("*", "aggregate_speedup")] == 40.0
        assert by_key[("gcc/direct/hashed", "speedup")] == 35.0

    def test_tenancy_and_modern_rows(self):
        tenancy = {
            (r.config, r.metric): r.value for r in rows_from_bench(TENANCY_DOC)
        }
        assert tenancy[("100t/churn", "p99_cycles")] == 80.0
        assert ("100t/churn", "tenants") not in tenancy
        modern_doc = {
            "benchmark": "modern",
            "trace_length": 2000,
            "configs": [
                {"config": "kv/4gb", "footprint_mb": 4096.0,
                 "lines_per_miss": 1.2, "size_vs_hashed": 0.9,
                 "tables": [
                     {"table": "x86_64", "lines_per_miss": 3.0},
                 ]},
            ],
        }
        modern = {
            (r.config, r.metric): r.value for r in rows_from_bench(modern_doc)
        }
        assert modern[("kv/4gb", "size_vs_hashed")] == 0.9
        assert modern[("kv/4gb/x86_64", "lines_per_miss")] == 3.0

    def test_unknown_family_is_rejected(self):
        with pytest.raises(ValueError, match="unknown bench family"):
            rows_from_bench({"benchmark": "nope"})

    def test_gated_metrics_exist_in_flattened_rows(self):
        """Every gated numa/tenancy metric actually appears when present."""
        for doc, family in ((NUMA_DOC, "numa"), (TENANCY_DOC, "tenancy")):
            metrics = {r.metric for r in rows_from_bench(doc)}
            assert set(GATED_METRICS[family]) <= metrics


class TestJobsInvariance:
    def test_bench_modern_rows_identical_across_jobs(self, tmp_path):
        from repro.cli import main

        stamp = Stamp(git_sha="abc123", engine="batch")
        serialized = {}
        for jobs in (1, 4):
            run_dir = tmp_path / f"jobs{jobs}"
            assert main([
                "experiment", "modern", "--trace-length", "2000",
                "--footprint", "2", "--engine", "batch", "--jobs", str(jobs),
                "--run-dir", str(run_dir),
            ]) == 0
            doc = json.loads((run_dir / "BENCH_modern.json").read_text())
            rows = rows_from_bench(doc, stamp=stamp)
            serialized[jobs] = json.dumps(
                [r.as_dict() for r in rows], sort_keys=True
            )
        assert serialized[1] == serialized[4]

    def test_run_id_excludes_recorded_at(self):
        early = Stamp(git_sha="abc", recorded_at=1.0)
        late = Stamp(git_sha="abc", recorded_at=9999.0)
        assert compute_run_id("numa", NUMA_DOC, early) == compute_run_id(
            "numa", NUMA_DOC, late
        )
        assert compute_run_id(
            "numa", NUMA_DOC, Stamp(git_sha="other")
        ) != compute_run_id("numa", NUMA_DOC, early)


class TestNoiseBand:
    def test_band_geometry_and_classification(self):
        band = noise_band([10.0, 10.0, 10.1, 9.9], k=4.0, rel_floor=0.01)
        assert band.median == pytest.approx(10.0)
        assert band.lo < 10.0 < band.hi
        assert band.classify(band.hi + 1.0, "lower") == "regression"
        assert band.classify(band.lo - 1.0, "lower") == "improvement"
        # Higher-is-better mirrors the verdicts.
        assert band.classify(band.hi + 1.0, "higher") == "improvement"
        assert band.classify(band.lo - 1.0, "higher") == "regression"
        assert band.classify(10.0, "lower") == "ok"

    def test_deterministic_series_keeps_relative_floor(self):
        band = noise_band([100.0] * 5, rel_floor=0.01)
        assert band.mad == 0.0
        assert (band.lo, band.hi) == (99.0, 101.0)

    def test_robust_to_single_outlier(self):
        calm = noise_band([10.0, 10.1, 9.9, 10.0, 10.05])
        spiked = noise_band([10.0, 10.1, 9.9, 10.0, 1000.0])
        # One wild run widens a std-dev band ~400x; MAD barely moves.
        assert spiked.hi < calm.hi * 2

    def test_direction_validated(self):
        band = noise_band([1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="lower|higher"):
            band.classify(1.0, "sideways")

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            noise_band([])


class TestLedgerFile:
    def _rows(self, value, jobs):
        stamp = Stamp(jobs=jobs)
        doc = dict(NUMA_DOC)
        doc["configs"] = [dict(NUMA_DOC["configs"][0])]
        doc["configs"][0]["none cyc/miss"] = value
        return rows_from_bench(doc, stamp=stamp)

    def test_round_trip_and_duplicate_skip(self, tmp_path):
        ledger = BenchLedger(tmp_path / "ledger.jsonl")
        rows = self._rows(100.0, jobs=1)
        assert ledger.append_rows(rows) == len(rows)
        # Same (document, stamp): idempotent.
        assert ledger.append_rows(rows) == 0
        # Different stamp: new history.
        assert ledger.append_rows(self._rows(100.0, jobs=2)) > 0
        state = ledger.load()
        assert len(state.runs) == 2
        assert state.history(
            "numa", "mp3d/x86_64/4n", "none cyc/miss"
        ) == [100.0, 100.0]
        loaded = state.rows[0]
        assert isinstance(loaded, LedgerRow)
        assert loaded.trace_length == 1000

    def test_mixed_run_ids_rejected(self, tmp_path):
        ledger = BenchLedger(tmp_path / "ledger.jsonl")
        mixed = self._rows(100.0, jobs=1) + self._rows(100.0, jobs=2)
        with pytest.raises(ValueError, match="one run_id"):
            ledger.append_rows(mixed)

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = BenchLedger(path)
        ledger.append_rows(self._rows(100.0, jobs=1))
        with path.open("a") as handle:
            handle.write('{"row": {"version": 1, "family": "nu')  # torn
        state = ledger.load()
        assert state.torn_lines == 1
        assert len(state.rows) == len(self._rows(100.0, jobs=1))

    def test_incompatible_version_counted_not_loaded(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        row = LedgerRow("numa", "c", "m", 1.0, run_id="x").as_dict()
        row["version"] = 999
        path.write_text(json.dumps({"row": row}) + "\n")
        state = BenchLedger(path).load()
        assert state.incompatible == 1
        assert state.rows == []

    def test_improvement_event_resets_band_history(self, tmp_path):
        ledger = BenchLedger(tmp_path / "ledger.jsonl")
        for jobs, value in enumerate((100.0, 100.0, 100.0, 100.0), start=1):
            ledger.append_rows(self._rows(value, jobs=jobs))
        key = ("numa", "mp3d/x86_64/4n", "none cyc/miss")
        state = ledger.load()
        assert state.band_for(*key).median == 100.0
        # A recorded speedup resets expectations...
        ledger.append_event(LedgerEvent(
            kind="improvement", family=key[0], config=key[1], metric=key[2],
            old=100.0, new=50.0,
        ))
        for jobs in (11, 12, 13):
            ledger.append_rows(self._rows(50.0, jobs=jobs))
        state = ledger.load()
        assert state.history(*key) == [50.0, 50.0, 50.0]
        assert state.band_for(*key).median == 50.0
        # ...while the full series stays queryable for trends.
        assert state.history(*key, since_reset=False) == [100.0] * 4 + [50.0] * 3
        # Other keys are untouched by the reset.
        other = ("numa", "mp3d/x86_64/4n", "mitosis cyc/miss")
        assert len(state.history(*other)) == 7

    def test_history_filters_by_trace_length(self, tmp_path):
        ledger = BenchLedger(tmp_path / "ledger.jsonl")
        ledger.append_rows(self._rows(100.0, jobs=1))
        long_doc = dict(NUMA_DOC)
        long_doc["trace_length"] = 9999
        ledger.append_rows(rows_from_bench(long_doc, stamp=Stamp(jobs=9)))
        state = ledger.load()
        key = ("numa", "mp3d/x86_64/4n", "none cyc/miss")
        assert state.history(*key, trace_length=1000) == [100.0]
        assert len(state.history(*key)) == 2


class TestRunDirIngestion:
    def test_metrics_and_sidecar_flatten(self, tmp_path):
        (tmp_path / METRICS_NAME).write_text(json.dumps({
            "run": {
                "jobs": 2, "engine": "batch", "wall_seconds": 12.5,
                "utilisation": 0.8,
                "timings": [
                    {"experiment": "fig9", "seconds": 4.0,
                     "cache_hits": 1, "cache_computed": 2},
                ],
            },
        }))
        (tmp_path / PROFILE_NAME).write_text(json.dumps({
            "tables": {
                "x86_64": {"walks": 100, "faults": 3,
                           "lines": {"4": 100}, "probes": {"1": 100}},
            },
        }))
        rows = rows_from_run_dir(tmp_path)
        by_key = {(r.family, r.config, r.metric): r for r in rows}
        assert by_key[("run", "*", "wall_seconds")].value == 12.5
        assert by_key[("run", "fig9", "seconds")].value == 4.0
        assert by_key[("run", "*", "wall_seconds")].engine == "batch"
        assert by_key[("run", "*", "wall_seconds")].jobs == 2
        assert by_key[("profile", "x86_64", "total_lines")].value == 400.0

    def test_profile_rows_need_no_report(self, tmp_path):
        """A run dir yields its ``profile`` rows before ``repro report``
        writes ``report.json``, and the same rows after it."""
        from repro import cli
        from repro.experiments import runner

        runner.run_all(
            2_000, workloads=("mp3d",), only=("fig11a",), profile=True,
            resilience=runner.ResilienceConfig(run_dir=str(tmp_path)),
        )

        def profile_rows():
            return [
                row for row in rows_from_run_dir(tmp_path)
                if row.family == "profile"
            ]

        before = profile_rows()
        assert {row.config for row in before} == {
            "linear-1lvl", "forward-mapped", "hashed", "clustered",
        }
        assert cli.main(["report", str(tmp_path)]) == 0
        assert profile_rows() == before

    def test_missing_run_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            rows_from_run_dir(tmp_path / "nope")

    def test_expected_task_seconds_is_median_history(self, tmp_path):
        ledger = BenchLedger(tmp_path / "ledger.jsonl")
        for jobs, seconds in ((1, 4.0), (2, 6.0), (3, 5.0)):
            run_id = f"run-{jobs}"
            ledger.append_rows([LedgerRow(
                "run", "fig9", "seconds", seconds, run_id=run_id,
            )])
        state = ledger.load()
        assert expected_task_seconds(state, ["fig9", "fig10"]) == {
            "fig9": 5.0
        }

    def test_default_ledger_path_precedence(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert default_ledger_path() is None
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "ledger.jsonl").write_text("")
        assert default_ledger_path(run_dir) == run_dir / "ledger.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "override.jsonl"))
        assert default_ledger_path(run_dir) == tmp_path / "override.jsonl"


class TestGateSabotage:
    """A doctored regression must trip the family gate, both paths."""

    def _doctor(self, tmp_path, factor):
        doc = json.loads(json.dumps(TENANCY_DOC))
        doc["configs"][0]["p99_cycles"] *= factor
        path = tmp_path / "BENCH_tenancy_fresh.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.fixture()
    def baseline_dir(self, tmp_path):
        directory = tmp_path / "baselines"
        directory.mkdir()
        (directory / "BENCH_tenancy.json").write_text(json.dumps(TENANCY_DOC))
        return directory

    def test_band_gate_trips_on_doctored_regression(
        self, tmp_path, baseline_dir, capsys
    ):
        gate = load_bench_gate()
        ledger_path = tmp_path / "ledger.jsonl"
        ledger = BenchLedger(ledger_path)
        for jobs in (1, 2, 3):
            ledger.append_rows(
                rows_from_bench(TENANCY_DOC, stamp=Stamp(jobs=jobs))
            )
        doctored = self._doctor(tmp_path, 1.5)
        rc = gate.main([
            "--family", f"tenancy={doctored}",
            "--ledger", str(ledger_path),
            "--baseline-dir", str(baseline_dir),
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "REGRESSION" in out and "p99_cycles" in out
        assert "outside band" in out

    def test_baseline_fallback_trips_without_history(
        self, tmp_path, baseline_dir, capsys
    ):
        gate = load_bench_gate()
        doctored = self._doctor(tmp_path, 1.5)
        rc = gate.main([
            "--family", f"tenancy={doctored}",
            "--ledger", str(tmp_path / "empty.jsonl"),
            "--baseline-dir", str(baseline_dir),
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "REGRESSION" in out and "baseline-gated" not in out.split(
            "REGRESSION"
        )[0]

    def test_clean_document_passes_and_records(
        self, tmp_path, baseline_dir, capsys
    ):
        gate = load_bench_gate()
        ledger_path = tmp_path / "ledger.jsonl"
        fresh = tmp_path / "BENCH_tenancy_fresh.json"
        fresh.write_text(json.dumps(TENANCY_DOC))
        rc = gate.main([
            "--family", f"tenancy={fresh}",
            "--ledger", str(ledger_path), "--record",
            "--baseline-dir", str(baseline_dir),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "tenancy OK" in out
        assert "recorded" in out
        assert BenchLedger(ledger_path).load().rows

    def test_improvement_records_band_resetting_event(
        self, tmp_path, baseline_dir, capsys
    ):
        gate = load_bench_gate()
        ledger_path = tmp_path / "ledger.jsonl"
        improved = self._doctor(tmp_path, 0.5)
        rc = gate.main([
            "--family", f"tenancy={improved}",
            "--ledger", str(ledger_path),
            "--baseline-dir", str(baseline_dir),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "improvement" in out
        events = BenchLedger(ledger_path).load().events
        assert any(
            e.kind == "improvement" and e.metric == "p99_cycles"
            for e in events
        )

    def test_trace_length_mismatch_refuses_the_baseline(
        self, tmp_path, baseline_dir, capsys
    ):
        gate = load_bench_gate()
        doc = json.loads(json.dumps(TENANCY_DOC))
        doc["trace_length"] = 777
        fresh = tmp_path / "BENCH_tenancy_fresh.json"
        fresh.write_text(json.dumps(doc))
        rc = gate.main([
            "--family", f"tenancy={fresh}",
            "--ledger", str(tmp_path / "empty.jsonl"),
            "--baseline-dir", str(baseline_dir),
        ])
        out = capsys.readouterr().out
        assert rc == 2
        assert "not comparable" in out
        assert "tenancy OK" not in out

    def test_banded_metrics_pass_beside_a_mismatched_baseline(
        self, tmp_path, baseline_dir, capsys
    ):
        """Bands need no baseline, so its trace length does not matter."""
        gate = load_bench_gate()
        doc = json.loads(json.dumps(TENANCY_DOC))
        doc["trace_length"] = 777
        ledger_path = tmp_path / "ledger.jsonl"
        ledger = BenchLedger(ledger_path)
        for jobs in (1, 2, 3):
            ledger.append_rows(rows_from_bench(doc, stamp=Stamp(jobs=jobs)))
        fresh = tmp_path / "BENCH_tenancy_fresh.json"
        fresh.write_text(json.dumps(doc))
        rc = gate.main([
            "--family", f"tenancy={fresh}",
            "--ledger", str(ledger_path),
            "--baseline-dir", str(baseline_dir),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "not comparable" not in out
        assert "0 baseline-gated, 0 ungated" in out

    @pytest.mark.parametrize("aggregate, expected", [(9.0, 1), (11.0, 0)])
    def test_batch_family_enforces_the_speedup_floor(
        self, tmp_path, capsys, aggregate, expected
    ):
        gate = load_bench_gate()
        doc = {
            "benchmark": "batch",
            "trace_length": 500,
            "aggregate_speedup": aggregate,
            "scalar_ms": 90.0,
            "batch_ms": 10.0,
            "configs": [
                {"workload": "gcc", "tlb": "direct", "table": "hashed",
                 "speedup": aggregate, "scalar_ms": 90.0, "batch_ms": 10.0},
            ],
        }
        fresh = tmp_path / "BENCH_batch.json"
        fresh.write_text(json.dumps(doc))
        no_baselines = tmp_path / "baselines"
        no_baselines.mkdir()
        rc = gate.main([
            "--family", f"batch={fresh}",
            "--baseline-dir", str(no_baselines),
        ])
        out = capsys.readouterr().out
        assert rc == expected
        assert ("below the 10.0x floor" in out) == bool(expected)
