"""Celled experiments on the runner's scheduler, and their documents.

numa, tenancy and modern declare their sweeps as ordered cells.  The
runner runs each cell as its own task, journals it under a digest of
the whole cell, and merges the experiment in sweep order when its last
cell lands.  A run with a run directory that completes one also writes
its bench document there, ``BENCH_<id>.json``: ``repro experiment ID
PRESET --run-dir DIR`` is the bench command line.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.experiments import modern, numa, tenancy
from repro.experiments.runner import (
    ResilienceConfig,
    RunMetrics,
    run_all,
)
from repro.obs.watch import PROGRESS_NAME, snapshot
from repro.resilience.journal import METRICS_NAME, RunJournal
from tests.conftest import load_bench_gate

BASELINES = Path(__file__).resolve().parents[1] / "benchmarks" / "baselines"


def _run_tenancy(tmp_path, tables, resume=False, jobs=1):
    metrics = RunMetrics()
    results = run_all(
        2_000, jobs=jobs, only=("tenancy",), metrics=metrics,
        cells={"tenancy": tenancy.cells(tenants=(6,), tables=tables)},
        resilience=ResilienceConfig(run_dir=str(tmp_path), resume=resume),
    )
    return results["tenancy"], metrics


#: A small numa sweep: two workload cells, each over the default tables.
NUMA_SWEEP = dict(topologies=("1-node", "2-node"), miss_limit=500)


def _run_numa(tmp_path, resume=False, **change):
    metrics = RunMetrics()
    cells = numa.cells(("mp3d", "gcc"), **{**NUMA_SWEEP, **change})
    results = run_all(
        2_000, only=("numa",), metrics=metrics, cells={"numa": cells},
        resilience=ResilienceConfig(run_dir=str(tmp_path), resume=resume),
    )
    return results["numa"], metrics


def _tasks_and_skips(metrics):
    """(experiment tasks run, experiments resumed), from the run summary."""
    run = metrics.summary_dict()
    return run["experiment_tasks"], run["resumed_skips"]


def _interrupt_after(monkeypatch, module, cells_done):
    """Make ``module.measure`` raise KeyboardInterrupt after N cells."""
    real = module.measure
    calls = []

    def measure(cell, trace_length):
        if len(calls) == cells_done:
            raise KeyboardInterrupt
        calls.append(cell["id"])
        return real(cell, trace_length)

    monkeypatch.setattr(module, "measure", measure)
    return calls


def _count_cells(monkeypatch, module):
    real = module.measure
    calls = []

    def measure(cell, trace_length):
        calls.append(cell["id"])
        return real(cell, trace_length)

    monkeypatch.setattr(module, "measure", measure)
    return calls


class TestSweepCells:
    def test_runner_cells_merge_to_the_serial_run(self, tmp_path):
        result, metrics = _run_tenancy(tmp_path, ("hashed",))
        serial = tenancy.run(2_000, tenants=(6,), tables=("hashed",))
        assert result.rows == serial.rows
        assert result.records == serial.records
        assert _tasks_and_skips(metrics) == (2, 0)
        assert metrics.completed == ["tenancy"]

    def test_numa_cells_merge_to_the_serial_run(self, tmp_path):
        result, metrics = _run_numa(tmp_path)
        serial = numa.run(("mp3d", "gcc"), 2_000, **NUMA_SWEEP)
        assert result.rows == serial.rows
        assert result.records == serial.records
        assert _tasks_and_skips(metrics) == (2, 0)
        assert metrics.completed == ["numa"]

    @pytest.mark.parametrize("build", [
        lambda: numa.cells(topologies=("nowhere",)),
        lambda: numa.cells(policies=("none", "bogus")),
        lambda: numa.cells(policies=()),
        lambda: tenancy.cells(tenants=(0,)),
        lambda: tenancy.cells(tables=("bogus",)),
        lambda: modern.cells(footprints=(float("nan"),)),
        lambda: modern.cells(footprints=(-4,)),
        lambda: modern.cells(tables=("hashed", "bogus")),
        lambda: run_all(2_000, only=("tenancy",), cells={
            "tenancy": tenancy.cells(tenants=(10,)) * 2,
        }),
    ], ids=[
        "topology-nowhere", "policy-bogus", "policies-empty",
        "tenants-0", "tables-bogus", "footprint-nan", "footprint-negative",
        "tables-partly-bogus", "repeated-cells",
    ])
    def test_bad_restrictions_are_configuration_errors(self, build):
        with pytest.raises(ConfigurationError):
            build()

    def test_cells_for_an_uncelled_experiment_are_rejected(self):
        with pytest.raises(ConfigurationError, match="do not run as cells"):
            run_all(2_000, only=("fig9",), cells={"fig9": [{"id": "x"}]})


class TestCellJournal:
    def test_one_entry_per_cell_and_progress_counts_cells(self, tmp_path):
        _run_tenancy(tmp_path, ("hashed",))
        entries = RunJournal(tmp_path).load().entries
        assert list(entries) == ["tenancy/6t/static", "tenancy/6t/churn"]
        progress = json.loads((tmp_path / PROGRESS_NAME).read_text())
        assert progress["phases"]["experiments"]["total"] == 2
        assert progress["phases"]["experiments"]["done"] == 2
        assert progress["completed"] == ["tenancy"]
        snap = snapshot(tmp_path)
        assert (snap.state, snap.done, snap.total) == ("finished", 1, 1)

    def test_a_changed_table_list_recomputes_the_cell(self, tmp_path):
        fresh, _ = _run_tenancy(tmp_path, ("hashed",))
        resumed, same = _run_tenancy(tmp_path, ("hashed",), resume=True)
        assert _tasks_and_skips(same) == (0, 1)
        assert resumed == fresh
        changed, metrics = _run_tenancy(
            tmp_path, ("hashed", "clustered"), resume=True
        )
        assert _tasks_and_skips(metrics) == (2, 0)
        assert [t["table"] for t in changed.records[0]["tables"]] == [
            "hashed", "clustered",
        ]

    @pytest.mark.parametrize("change", [
        {"miss_limit": 400},
        {"topologies": ("1-node", "4-node")},
    ], ids=["miss-limit", "topologies"])
    def test_a_changed_numa_input_recomputes_the_cells(
        self, tmp_path, change
    ):
        _run_numa(tmp_path)
        entries = RunJournal(tmp_path).load().entries
        assert list(entries) == ["numa/mp3d", "numa/gcc"]
        _, same = _run_numa(tmp_path, resume=True)
        assert _tasks_and_skips(same) == (0, 1)
        changed, metrics = _run_numa(tmp_path, resume=True, **change)
        assert _tasks_and_skips(metrics) == (2, 0)
        assert changed.rows == numa.run(
            ("mp3d", "gcc"), 2_000, **{**NUMA_SWEEP, **change}
        ).rows

    def test_a_partial_resume_runs_only_the_missing_cells(
        self, tmp_path, monkeypatch
    ):
        with monkeypatch.context() as patch:
            _interrupt_after(patch, tenancy, 1)
            with pytest.raises(KeyboardInterrupt):
                _run_tenancy(tmp_path, ("hashed",))
        assert list(RunJournal(tmp_path).load().entries) == [
            "tenancy/6t/static",
        ]
        calls = _count_cells(monkeypatch, tenancy)
        resumed, metrics = _run_tenancy(tmp_path, ("hashed",), resume=True)
        assert calls == ["6t/churn"]
        assert metrics.completed == ["tenancy"]
        assert resumed.rows == tenancy.run(
            2_000, tenants=(6,), tables=("hashed",)
        ).rows


#: The fast bench presets: each family's command line.
PRESETS = {
    "numa": ["--trace-length", "20000", "--workloads", "mp3d,gcc",
             "--topology", "1-node,4-node"],
    "tenancy": ["--trace-length", "20000", "--tenants", "100"],
    "modern": ["--trace-length", "20000", "--footprint", "4,8"],
}


def _preset(name, *options):
    """``repro experiment NAME`` at its fast preset, batch engine."""
    return ["experiment", name, *PRESETS[name], "--engine", "batch", *options]


class TestBenchDocument:
    def test_an_interrupted_run_writes_no_document(
        self, tmp_path, monkeypatch
    ):
        with monkeypatch.context() as patch:
            _interrupt_after(patch, tenancy, 1)
            with pytest.raises(KeyboardInterrupt):
                _run_tenancy(tmp_path, ("hashed",))
        assert list(RunJournal(tmp_path).load().entries)
        assert not list(tmp_path.glob("BENCH_*.json"))
        result, _ = _run_tenancy(tmp_path, ("hashed",), resume=True)
        document = json.loads((tmp_path / "BENCH_tenancy.json").read_text())
        assert document == tenancy.document(
            result, 2_000, tenancy.cells(tenants=(6,), tables=("hashed",))
        )

    def test_only_celled_experiments_write_documents(self, tmp_path):
        run_all(
            2_000, only=("table1", "numa"), workloads=("mp3d",),
            cells={"numa": numa.cells(("mp3d",), **NUMA_SWEEP)},
            resilience=ResilienceConfig(run_dir=str(tmp_path)),
        )
        assert [path.name for path in tmp_path.glob("BENCH_*.json")] == [
            "BENCH_numa.json",
        ]
        document = json.loads((tmp_path / "BENCH_numa.json").read_text())
        assert document["workloads"] == ["mp3d"]
        assert document["topologies"] == ["1-node", "2-node"]


class TestBenchCommandLine:
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            cli_main(_preset("modern", "--jobs", "0",
                             "--run-dir", str(run_dir)))
        assert exc.value.code == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err
        assert not run_dir.exists()

    def test_resume_and_run_dir_must_agree(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(_preset("tenancy", "--resume", str(tmp_path / "a"),
                             "--run-dir", str(tmp_path / "b")))
        assert exc.value.code == 2
        assert "must agree" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_interrupted_bench_exits_130_with_the_interrupt_line(
        self, tmp_path, monkeypatch, capsys
    ):
        _interrupt_after(monkeypatch, modern, 1)
        run_dir = tmp_path / "run"
        assert cli_main(_preset("modern", "--run-dir", str(run_dir))) == 130
        assert (
            f"[interrupted: 0/1 experiments completed; resume with "
            f"--resume {run_dir}]"
        ) in capsys.readouterr().out
        assert not list(run_dir.glob("BENCH_*.json"))
        assert snapshot(run_dir).state == "interrupted"

    @pytest.mark.parametrize("name, module, stop, total", [
        ("modern", modern, 3, 8),
        ("tenancy", tenancy, 1, 2),
    ], ids=["modern", "tenancy"])
    def test_resumed_fast_sweep_matches_the_baseline(
        self, name, module, stop, total, tmp_path, monkeypatch
    ):
        run_dir = tmp_path / "run"
        with monkeypatch.context() as patch:
            _interrupt_after(patch, module, stop)
            assert cli_main(_preset(name, "--run-dir", str(run_dir))) == 130
        calls = _count_cells(monkeypatch, module)
        assert cli_main(_preset(name, "--resume", str(run_dir))) == 0
        assert len(calls) == total - stop
        baseline = BASELINES / f"BENCH_{name}.json"
        assert (run_dir / f"BENCH_{name}.json").read_bytes() == (
            baseline.read_bytes()
        )

    def test_resumed_fast_numa_sweep_matches_a_fresh_one(
        self, tmp_path, monkeypatch
    ):
        """The committed baseline's gcc rows differ from a fresh
        document (within the gate's 10%), so the resumed document is
        held to a fresh one byte for byte and to the baseline through
        the gate."""
        fresh, run_dir = tmp_path / "fresh", tmp_path / "run"
        assert cli_main(_preset("numa", "--run-dir", str(fresh))) == 0
        with monkeypatch.context() as patch:
            _interrupt_after(patch, numa, 1)
            assert cli_main(_preset("numa", "--run-dir", str(run_dir))) == 130
        calls = _count_cells(monkeypatch, numa)
        assert cli_main(_preset("numa", "--resume", str(run_dir))) == 0
        assert calls == ["gcc"]
        out = run_dir / "BENCH_numa.json"
        assert out.read_bytes() == (fresh / "BENCH_numa.json").read_bytes()
        document = json.loads(out.read_text())
        baseline = json.loads((BASELINES / "BENCH_numa.json").read_text())
        for key in ("benchmark", "trace_length", "workloads", "topologies"):
            assert document[key] == baseline[key]
        assert "wall_seconds" not in document
        assert load_bench_gate().main(["--family", f"numa={out}"]) == 0

    def test_finished_bench_run_dir_is_a_finished_run(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert cli_main([
            "experiment", "modern", "--trace-length", "2000",
            "--footprint", "2", "--engine", "batch", "--run-dir", str(run_dir),
        ]) == 0
        capsys.readouterr()
        assert cli_main(["watch", str(run_dir), "--once"]) == 0
        assert "state=finished" in capsys.readouterr().out
        assert (run_dir / METRICS_NAME).exists()
        assert cli_main(["report", str(run_dir)]) == 0
        report = capsys.readouterr().out
        assert f"No `{METRICS_NAME}`" not in report
        assert "BENCH_modern.json" in report

    def test_journaled_elapsed_is_each_cells_own_time(self, tmp_path):
        """Under --jobs 2, at most two cells run at once, so their own
        times sum to at most twice the sweep's wall time.  Times since
        the sweep began would sum to far more."""
        run_dir = tmp_path / "run"
        started = time.perf_counter()
        assert cli_main([
            "experiment", "modern", "--trace-length", "2000",
            "--footprint", "2,3", "--engine", "batch", "--jobs", "2",
            "--run-dir", str(run_dir),
        ]) == 0
        wall = time.perf_counter() - started
        entries = RunJournal(run_dir).load().entries.values()
        assert len(entries) == 8
        assert sum(entry["elapsed"] for entry in entries) <= 2 * wall
