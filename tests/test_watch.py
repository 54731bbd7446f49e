"""Live monitoring: the heartbeat tracker, snapshots, and stall detection.

The contract under test (`repro.obs.watch`): the runner's
``progress.json`` is atomic and rate-limited, never touches stdout, and
stamps a terminal state; ``repro watch`` fuses heartbeat + journal into
one snapshot whose ETA prefers ledger history, and **reports a SIGKILLed
run as stalled instead of hanging** — the observer exits 3, loudly.
"""

import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import cli
from repro.experiments import common, runner
from repro.obs.ledger import BenchLedger, LedgerRow
from repro.obs.watch import (
    DEFAULT_STALL_TIMEOUT,
    PROGRESS_NAME,
    ProgressTracker,
    render_snapshot,
    snapshot,
    watch,
)
from repro.resilience.journal import JOURNAL_NAME


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now


def _read_progress(run_dir):
    return json.loads((Path(run_dir) / PROGRESS_NAME).read_text())


class TestProgressTracker:
    def test_initial_write_and_phases(self, tmp_path):
        clock = FakeClock()
        tracker = ProgressTracker(
            tmp_path, plan=["fig9", "table2"], clock=clock
        )
        doc = _read_progress(tmp_path)
        assert doc["progress_version"] == 1
        assert doc["state"] == "running"
        assert doc["total"] == 2 and doc["done"] == 0
        tracker.begin_phase("experiments", 2)
        clock.now += 10
        tracker.task_done("fig9", seconds=4.0)
        doc = _read_progress(tmp_path)
        assert doc["completed"] == ["fig9"]
        assert doc["phases"]["experiments"]["done"] == 1
        assert doc["phases"]["experiments"]["throughput"] == 0.25

    def test_rate_limited_then_forced(self, tmp_path):
        clock = FakeClock()
        tracker = ProgressTracker(tmp_path, plan=["a", "b"], clock=clock)
        tracker.begin_phase("experiments", 2)
        first = _read_progress(tmp_path)["updated_at"]
        clock.now += 0.5  # inside the heartbeat interval
        tracker.heartbeat()
        assert _read_progress(tmp_path)["updated_at"] == first
        clock.now += 10.0
        tracker.heartbeat()
        assert _read_progress(tmp_path)["updated_at"] > first
        # Terminal states always force a write.
        clock.now += 0.1
        tracker.finish()
        assert _read_progress(tmp_path)["state"] == "finished"

    def test_skip_counts_resumed_work(self, tmp_path):
        clock = FakeClock()
        tracker = ProgressTracker(tmp_path, plan=["a", "b"], clock=clock)
        clock.now += 10.0  # past the heartbeat rate limit
        tracker.skip("a")
        assert _read_progress(tmp_path)["done"] == 1

    def test_abandon_records_the_error(self, tmp_path):
        tracker = ProgressTracker(tmp_path, plan=["a"], clock=FakeClock())
        tracker.abandon("ValueError: boom")
        doc = _read_progress(tmp_path)
        assert doc["state"] == "failed"
        assert doc["error"] == "ValueError: boom"

    def test_unwritable_directory_does_not_raise(self, tmp_path):
        tracker = ProgressTracker(tmp_path, plan=["a"], clock=FakeClock())
        tracker.path = tmp_path / "gone" / PROGRESS_NAME
        tracker.finish()  # must swallow the OSError


class TestSnapshot:
    def _running(self, tmp_path, clock, plan=("a", "b", "c")):
        tracker = ProgressTracker(tmp_path, plan=list(plan), clock=clock)
        tracker.begin_phase("experiments", len(plan))
        return tracker

    def test_missing_directory(self, tmp_path):
        snap = snapshot(tmp_path)
        assert snap.state == "missing"
        assert snap.exit_code == 2
        assert "watch:" in render_snapshot(snap)

    def test_running_with_throughput_eta(self, tmp_path):
        clock = FakeClock()
        tracker = self._running(tmp_path, clock)
        clock.now += 8
        tracker.task_done("a", seconds=4.0)
        snap = snapshot(tmp_path, now=clock.now + 1)
        assert snap.state == "running"
        assert snap.done == 1 and snap.total == 3
        assert snap.pending == ["b", "c"]
        assert snap.eta_source == "throughput"
        assert snap.eta_seconds == pytest.approx(8.0)

    def test_ledger_eta_preferred_over_throughput(self, tmp_path):
        clock = FakeClock()
        tracker = self._running(tmp_path, clock)
        clock.now += 8
        tracker.task_done("a", seconds=4.0)
        ledger = BenchLedger(tmp_path / "ledger.jsonl")
        for key, seconds in (("b", 10.0), ("c", 20.0)):
            ledger.append_rows([LedgerRow(
                "run", key, "seconds", seconds, run_id=f"r-{key}",
            )])
        snap = snapshot(tmp_path, ledger=ledger.load(), now=clock.now + 1)
        assert snap.eta_source == "ledger"
        assert snap.eta_seconds == pytest.approx(30.0)

    def test_partial_ledger_history_scales(self, tmp_path):
        clock = FakeClock()
        ProgressTracker(tmp_path, plan=["a", "b"], clock=clock)
        ledger = BenchLedger(tmp_path / "ledger.jsonl")
        ledger.append_rows([LedgerRow(
            "run", "a", "seconds", 10.0, run_id="r-a",
        )])
        snap = snapshot(tmp_path, ledger=ledger.load(), now=clock.now)
        assert snap.eta_source == "ledger-partial"
        assert snap.eta_seconds == pytest.approx(20.0)

    def test_no_history_says_so(self, tmp_path):
        clock = FakeClock()
        ProgressTracker(tmp_path, plan=["a"], clock=clock)
        snap = snapshot(tmp_path, now=clock.now)
        assert snap.eta_source == "none"
        assert any("no history" in note for note in snap.notes)

    def test_stall_flips_state_and_exit_code(self, tmp_path):
        clock = FakeClock()
        self._running(tmp_path, clock)
        snap = snapshot(
            tmp_path, stall_timeout=60.0, now=clock.now + 1000.0
        )
        assert snap.state == "stalled"
        assert snap.exit_code == 3
        assert "STALLED" in render_snapshot(snap)

    def test_finished_state_wins_over_idleness(self, tmp_path):
        clock = FakeClock()
        tracker = self._running(tmp_path, clock)
        tracker.finish()
        snap = snapshot(tmp_path, now=clock.now + 10_000.0)
        assert snap.state == "finished"
        assert snap.exit_code == 0

    def test_journal_is_authoritative_for_completions(self, tmp_path):
        clock = FakeClock()
        self._running(tmp_path, clock, plan=("a", "b"))
        # Heartbeat lagging: the journal already has "a" fsync'd.
        journal_line = json.dumps(
            {"entry": {"key": "a", "payload": {}, "digest": ""}}
        )
        (tmp_path / JOURNAL_NAME).write_text(journal_line + "\n")
        from repro.resilience.journal import RunJournal

        state = RunJournal(tmp_path).load()
        if "a" in state.entries:
            snap = snapshot(tmp_path, now=clock.now)
            assert "a" in snap.completed


class TestWatchLoop:
    def test_once_returns_snapshot_exit_code(self, tmp_path):
        clock = FakeClock()
        tracker = ProgressTracker(tmp_path, plan=["a"], clock=clock)
        tracker.finish()
        stream = io.StringIO()
        assert watch(tmp_path, once=True, stream=stream) == 0
        assert "state=finished" in stream.getvalue()

    def test_cli_watch_once(self, tmp_path):
        tracker = ProgressTracker(tmp_path, plan=["a"], clock=FakeClock())
        tracker.finish()
        assert cli.main(["watch", str(tmp_path), "--once"]) == 0

    def test_missing_run_dir_exits_2_not_hangs(self, tmp_path):
        stream = io.StringIO()
        assert watch(tmp_path / "nope", once=True, stream=stream) == 2

    def test_max_polls_bounds_a_running_watch(self, tmp_path):
        ProgressTracker(tmp_path, plan=["a"], clock=FakeClock(time.time()))
        stream = io.StringIO()
        rc = watch(
            tmp_path, once=False, stream=stream, interval=0.0, max_polls=3
        )
        assert rc == 0
        assert stream.getvalue().count("watch:") == 3


class TestRunnerIntegration:
    def test_run_all_writes_finished_progress(self, tmp_path):
        common.clear_caches()
        try:
            runner.run_all(
                2_000, jobs=1, cache_dir=str(tmp_path / "cache"),
                workloads=("mp3d",), only=["table1"],
                resilience=runner.ResilienceConfig(
                    run_dir=str(tmp_path / "run")
                ),
            )
        finally:
            common.clear_caches()
            common.configure_stream_cache(None)
        doc = _read_progress(tmp_path / "run")
        assert doc["state"] == "finished"
        assert doc["completed"] == ["table1"]
        assert doc["phases"]["experiments"]["done"] == 1


@pytest.mark.slow
def test_sigkilled_run_reports_stall_not_hang(tmp_path):
    """SIGKILL the runner mid-run; ``repro watch`` must exit 3, fast."""
    repo_root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(repo_root / "src"))
    run_dir = tmp_path / "run"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "experiment", "all",
            "--trace-length", "2000", "--workloads", "mp3d",
            "--only", "table1,fig9,fig10,fig11a,fig11b",
            "--cache-dir", str(tmp_path / "cache"),
            "--run-dir", str(run_dir),
        ],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env=env, cwd=repo_root,
    )
    journal_path = run_dir / JOURNAL_NAME
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if journal_path.exists() and '"entry"' in journal_path.read_text():
                break
            if proc.poll() is not None:
                break
            time.sleep(0.02)
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGKILL)
    finally:
        proc.wait(timeout=60)
    assert journal_path.exists(), "runner made no durable progress"

    # The heartbeat froze mid-run: everything idles from here on.  A
    # tiny stall timeout keeps the test fast; the watcher must *return*.
    started = time.monotonic()
    rc = cli.main([
        "watch", str(run_dir), "--once", "--stall-timeout", "0.5",
    ])
    assert time.monotonic() - started < 30.0
    if rc != 3:
        # The kill may have landed after the final journal append but
        # before the terminal heartbeat — then the run looks interrupted
        # or still mid-write.  Wait out the stall window and re-observe.
        time.sleep(1.0)
        rc = cli.main([
            "watch", str(run_dir), "--once", "--stall-timeout", "0.5",
        ])
    assert rc == 3, f"SIGKILLed run not reported as stalled (rc={rc})"
