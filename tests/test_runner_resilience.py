"""Resilient execution in the experiment runner: retries, timeouts,
keep-going degradation, checkpoint/resume, and graceful interrupts."""

import errno
import multiprocessing
import time

import pytest

from repro import cli
from repro.errors import ConfigurationError
from repro.experiments import runner
from repro.resilience import (
    FaultPlan,
    FaultRule,
    RetryPolicy,
    RunJournal,
    task_digest,
)
from repro.resilience.retry import AttemptRecord

TRACE_LENGTH = 2_000
WORKLOADS = ("mp3d",)


def _run(tmp_path, only, *, jobs=1, resilience=None, cache="cache"):
    metrics = runner.RunMetrics()
    results = runner.run_all(
        TRACE_LENGTH,
        jobs=jobs,
        cache_dir=str(tmp_path / cache),
        workloads=WORKLOADS,
        only=only,
        resilience=resilience,
        metrics=metrics,
    )
    return results, metrics


def _renders(results):
    return {key: results[key].render(precision=3) for key in results}


class TestSerialRetry:
    def test_transient_fault_is_retried_and_recovers(self, tmp_path):
        plan = FaultPlan(
            (
                FaultRule(
                    "runner.experiment", "raise-enospc",
                    match="table1", max_attempt=1,
                ),
            )
        )
        cfg = runner.ResilienceConfig(
            retry=RetryPolicy(max_retries=2, base_delay=0.0),
            fault_plan=plan,
        )
        results, metrics = _run(tmp_path, ["table1"], resilience=cfg)
        assert "table1" in results
        assert metrics.summary_dict()["task_retries"] == 1
        assert metrics.registry.counter(
            "runner.task_retries", experiment="table1"
        ) == 1

    def test_result_after_retry_matches_fault_free_run(self, tmp_path):
        baseline, _ = _run(tmp_path, ["table1"])
        plan = FaultPlan(
            (
                FaultRule(
                    "runner.experiment", "raise-eio",
                    match="table1", max_attempt=1,
                ),
            )
        )
        cfg = runner.ResilienceConfig(
            retry=RetryPolicy(max_retries=1, base_delay=0.0),
            fault_plan=plan,
        )
        retried, _ = _run(tmp_path, ["table1"], resilience=cfg)
        assert _renders(retried) == _renders(baseline)

    def test_budget_exhaustion_raises_original_with_history(self, tmp_path):
        plan = FaultPlan(
            (FaultRule("runner.experiment", "raise-eio", times=99),)
        )
        cfg = runner.ResilienceConfig(
            retry=RetryPolicy(max_retries=1, base_delay=0.0),
            fault_plan=plan,
        )
        with pytest.raises(OSError) as excinfo:
            _run(tmp_path, ["table1"], resilience=cfg)
        assert len(excinfo.value.retry_history) == 2

    def test_zero_retry_config_fails_fast(self, tmp_path):
        plan = FaultPlan((FaultRule("runner.experiment", "raise-eio"),))
        cfg = runner.ResilienceConfig(fault_plan=plan)
        with pytest.raises(OSError):
            _run(tmp_path, ["table1"], resilience=cfg)

    def test_fatal_error_is_not_retried(self, tmp_path):
        cfg = runner.ResilienceConfig(retry=RetryPolicy(max_retries=3))
        with pytest.raises(
            ConfigurationError, match="[Uu]nknown workload"
        ) as excinfo:
            runner.run_all(
                TRACE_LENGTH, jobs=1, cache_dir=str(tmp_path / "cache"),
                workloads=("no-such-workload",), only=["table1"],
                resilience=cfg,
            )
        assert len(excinfo.value.retry_history) == 1

    def test_retry_history_follows_the_backoff_schedule(self, tmp_path):
        plan = FaultPlan(
            (FaultRule("runner.experiment", "raise-eio", times=99),)
        )
        cfg = runner.ResilienceConfig(
            retry=RetryPolicy(
                max_retries=3, base_delay=0.01, multiplier=2, jitter=0
            ),
            fault_plan=plan,
        )
        with pytest.raises(OSError) as excinfo:
            _run(tmp_path, ["table1"], resilience=cfg)
        history = excinfo.value.retry_history
        assert [record.attempt for record in history] == [1, 2, 3, 4]
        assert [record.delay for record in history] == pytest.approx(
            [0.01, 0.02, 0.04, 0.0]
        )

    def test_exhaustion_reraises_the_final_error_with_history(self, tmp_path):
        plan = FaultPlan(
            (
                FaultRule(
                    "runner.experiment", "raise-enospc", max_attempt=1,
                ),
                FaultRule("runner.experiment", "raise-eio", times=99),
            )
        )
        cfg = runner.ResilienceConfig(
            retry=RetryPolicy(max_retries=2, base_delay=0.0, jitter=0.0),
            fault_plan=plan,
        )
        with pytest.raises(OSError) as excinfo:
            _run(tmp_path, ["table1"], resilience=cfg)
        # The last attempt's own error surfaces, unwrapped.
        assert excinfo.value.errno == errno.EIO
        history = excinfo.value.retry_history
        assert all(isinstance(record, AttemptRecord) for record in history)
        assert [record.attempt for record in history] == [1, 2, 3]
        assert "no space left" in history[0].error
        assert history[-1].error == repr(excinfo.value)

    def test_prewarm_faults_are_survivable(self, tmp_path):
        plan = FaultPlan(
            (
                FaultRule(
                    "runner.prewarm", "raise-enospc", max_attempt=1,
                ),
            )
        )
        cfg = runner.ResilienceConfig(
            retry=RetryPolicy(max_retries=1, base_delay=0.0),
            fault_plan=plan,
        )
        results, metrics = _run(tmp_path, ["table1"], resilience=cfg)
        assert "table1" in results
        assert metrics.summary_dict()["task_retries"] == 1


class TestKeepGoing:
    def test_completes_around_the_failure_with_a_manifest(self, tmp_path):
        plan = FaultPlan(
            (
                FaultRule(
                    "runner.experiment", "raise-eio",
                    match="table1", times=99,
                ),
            )
        )
        cfg = runner.ResilienceConfig(keep_going=True, fault_plan=plan)
        results, metrics = _run(
            tmp_path, ["table1", "fig9"], resilience=cfg
        )
        assert "table1" not in results and "fig9" in results
        assert len(metrics.failures) == 1
        record = metrics.failures[0]
        assert record.key == "table1"
        assert record.stage == "experiment"
        assert record.error_type == "OSError"
        assert record.attempts == 1
        assert record.seed == plan.seed

    def test_manifest_renders(self, tmp_path):
        from repro.analysis.report import render_failure_manifest

        plan = FaultPlan(
            (FaultRule("runner.experiment", "raise-eio", times=99),)
        )
        cfg = runner.ResilienceConfig(keep_going=True, fault_plan=plan)
        _, metrics = _run(tmp_path, ["table1"], resilience=cfg)
        rendered = render_failure_manifest(metrics.failures)
        assert "table1" in rendered and "OSError" in rendered

    def test_default_run_has_no_resilience_line(self, tmp_path):
        from repro.analysis.report import render_run_metrics

        _, metrics = _run(tmp_path, ["table1"])
        assert "resilience:" not in render_run_metrics(metrics)


class TestResume:
    def test_journal_written_and_resume_skips(self, tmp_path):
        run_dir = tmp_path / "run"
        cfg = runner.ResilienceConfig(run_dir=str(run_dir))
        first, m1 = _run(tmp_path, ["table1", "fig9"], resilience=cfg)
        assert RunJournal(run_dir).completed_count() == 2
        cfg2 = runner.ResilienceConfig(run_dir=str(run_dir), resume=True)
        second, m2 = _run(tmp_path, ["table1", "fig9"], resilience=cfg2)
        assert m2.summary_dict()["resumed_skips"] == 2
        assert m2.timings == []  # nothing re-ran
        assert _renders(second) == _renders(first)

    def test_resume_reruns_on_digest_mismatch(self, tmp_path):
        run_dir = tmp_path / "run"
        cfg = runner.ResilienceConfig(run_dir=str(run_dir))
        _run(tmp_path, ["table1"], resilience=cfg)
        cfg2 = runner.ResilienceConfig(run_dir=str(run_dir), resume=True)
        metrics = runner.RunMetrics()
        runner.run_all(
            3_000,  # different trace length: journal entry must not satisfy
            jobs=1,
            cache_dir=str(tmp_path / "cache"),
            workloads=WORKLOADS,
            only=["table1"],
            resilience=cfg2,
            metrics=metrics,
        )
        assert metrics.summary_dict()["resumed_skips"] == 0
        assert len(metrics.timings) == 1

    def test_resumed_skips_reach_the_registry(self, tmp_path):
        run_dir = tmp_path / "run"
        cfg = runner.ResilienceConfig(run_dir=str(run_dir))
        _run(tmp_path, ["table1"], resilience=cfg)
        cfg2 = runner.ResilienceConfig(run_dir=str(run_dir), resume=True)
        _, metrics = _run(tmp_path, ["table1"], resilience=cfg2)
        assert metrics.registry.counter(
            "runner.resumed_skips", experiment="table1"
        ) == 1


class TestParallelResilience:
    def test_worker_crash_is_retried_and_recovers(self, tmp_path):
        plan = FaultPlan(
            (
                FaultRule(
                    "runner.experiment", "crash",
                    match="table1", max_attempt=1,
                ),
            )
        )
        cfg = runner.ResilienceConfig(
            retry=RetryPolicy(max_retries=3, base_delay=0.0),
            fault_plan=plan,
        )
        results, metrics = _run(
            tmp_path, ["table1", "fig9"], jobs=2, resilience=cfg
        )
        assert "table1" in results and "fig9" in results
        assert metrics.summary_dict()["task_retries"] >= 1

    def test_hung_worker_times_out_and_recovers(self, tmp_path):
        plan = FaultPlan(
            (
                FaultRule(
                    "runner.experiment", "hang",
                    match="table1", max_attempt=1,
                ),
            ),
            hang_seconds=60.0,
        )
        cfg = runner.ResilienceConfig(
            retry=RetryPolicy(max_retries=1, base_delay=0.0),
            task_timeout=3.0,
            fault_plan=plan,
        )
        started = time.monotonic()
        results, metrics = _run(
            tmp_path, ["table1", "fig9"], jobs=2, resilience=cfg
        )
        assert time.monotonic() - started < 30.0  # never waits out the hang
        assert "table1" in results and "fig9" in results
        assert metrics.summary_dict()["task_timeouts"] == 1
        assert metrics.registry.counter(
            "runner.task_timeouts", experiment="table1"
        ) == 1

    def test_timeout_without_budget_fails_explicitly(self, tmp_path):
        plan = FaultPlan(
            (FaultRule("runner.experiment", "hang", match="table1"),),
            hang_seconds=60.0,
        )
        cfg = runner.ResilienceConfig(task_timeout=2.0, fault_plan=plan)
        with pytest.raises(runner.TaskTimeoutError):
            _run(tmp_path, ["table1"], jobs=2, resilience=cfg)

    def test_crash_without_budget_fails_fast(self, tmp_path):
        plan = FaultPlan(
            (FaultRule("runner.experiment", "crash", match="table1"),)
        )
        cfg = runner.ResilienceConfig(fault_plan=plan)
        with pytest.raises(Exception):
            _run(tmp_path, ["table1"], jobs=2, resilience=cfg)


class TestGracefulInterrupt:
    """A worker self-signals SIGINT to the parent mid-run (the regression
    shape for Ctrl-C): the pool must drain without dangling workers and
    the completed experiments must be reported and journaled."""

    def test_parallel_sigint_drains_and_reports(self, tmp_path):
        run_dir = tmp_path / "run"
        plan = FaultPlan(
            (FaultRule("runner.experiment", "sigint", match="fig11a"),)
        )
        cfg = runner.ResilienceConfig(
            run_dir=str(run_dir), fault_plan=plan
        )
        with pytest.raises(runner.RunInterrupted) as excinfo:
            _run(
                tmp_path,
                ["table1", "fig9", "fig10", "fig11a", "fig11b"],
                jobs=2,
                resilience=cfg,
            )
        interrupted = excinfo.value
        assert isinstance(interrupted, KeyboardInterrupt)
        # every reported completion is durably journaled
        state = RunJournal(run_dir).load()
        for key in interrupted.completed:
            digest = task_digest(key, TRACE_LENGTH, WORKLOADS)
            assert state.result_for(key, digest) is not None
        # the pool was shut down: no dangling worker processes
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children():
            assert time.monotonic() < deadline, "dangling workers"
            time.sleep(0.05)

    def test_resume_after_interrupt_completes_the_run(self, tmp_path):
        run_dir = tmp_path / "run"
        only = ["table1", "fig9", "fig10", "fig11a", "fig11b"]
        baseline, _ = _run(tmp_path, only)
        plan = FaultPlan(
            (FaultRule("runner.experiment", "sigint", match="fig11a"),)
        )
        cfg = runner.ResilienceConfig(run_dir=str(run_dir), fault_plan=plan)
        with pytest.raises(runner.RunInterrupted):
            _run(tmp_path, only, jobs=2, resilience=cfg)
        completed_before = RunJournal(run_dir).completed_count()
        cfg2 = runner.ResilienceConfig(run_dir=str(run_dir), resume=True)
        resumed, metrics = _run(tmp_path, only, resilience=cfg2)
        assert metrics.summary_dict()["resumed_skips"] == completed_before
        assert _renders(resumed) == _renders(baseline)

    def test_serial_interrupt_reports_completed(self, tmp_path):
        plan = FaultPlan(
            (FaultRule("runner.experiment", "sigint", match="fig9"),)
        )
        cfg = runner.ResilienceConfig(fault_plan=plan)
        metrics = runner.RunMetrics()
        with pytest.raises(runner.RunInterrupted) as excinfo:
            runner.run_all(
                TRACE_LENGTH, jobs=1, cache_dir=str(tmp_path / "cache"),
                workloads=WORKLOADS, only=["table1", "fig9", "fig10"],
                metrics=metrics, resilience=cfg,
            )
        assert "table1" in excinfo.value.completed
        assert metrics.interrupted is True

    def test_interrupted_profiled_run_keeps_its_walks(self, tmp_path):
        # The walk histograms are derived from the run's profile when the
        # run ends, so an interrupted run must still report the walks of
        # the experiments it completed.
        plan = FaultPlan(
            (FaultRule("runner.experiment", "sigint", match="fig11b"),)
        )
        cfg = runner.ResilienceConfig(fault_plan=plan)
        metrics = runner.RunMetrics()
        with pytest.raises(runner.RunInterrupted):
            runner.run_all(
                TRACE_LENGTH, jobs=1, cache_dir=str(tmp_path / "cache"),
                workloads=WORKLOADS, only=["fig11a", "fig11b"],
                metrics=metrics, resilience=cfg, profile=True,
            )
        tables = metrics.walk_profile.tables
        assert sum(table.walks for table in tables.values()) > 0
        counts = {
            labels["table"]: payload["count"]
            for name, labels, payload in metrics.registry.state()["histograms"]
            if name == "walk.cache_lines"
        }
        assert counts == {name: t.walks for name, t in tables.items()}

    def test_interrupted_phase_is_still_observed(self, tmp_path):
        plan = FaultPlan(
            (FaultRule("runner.experiment", "sigint", match="fig9"),)
        )
        cfg = runner.ResilienceConfig(fault_plan=plan)
        metrics = runner.RunMetrics()
        with pytest.raises(runner.RunInterrupted):
            runner.run_all(
                TRACE_LENGTH, jobs=1, cache_dir=str(tmp_path / "cache"),
                workloads=WORKLOADS, only=["table1", "fig9"],
                metrics=metrics, resilience=cfg,
            )
        # The interrupted experiments phase lands in the run's registry
        # alongside the prewarm phase that finished.
        for phase in ("prewarm", "experiments"):
            assert metrics.registry.histogram(
                "runner.phase_seconds", phase=phase
            ).count == 1


class TestCliFlags:
    def test_main_rejects_negative_retries(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            cli.main(["experiment", "all", "--max-retries", "-1"])

    def test_main_rejects_conflicting_dirs(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(
                ["experiment", "all", "--resume", str(tmp_path / "a"),
                 "--run-dir", str(tmp_path / "b")]
            )

    def test_keep_going_run_exits_nonzero_with_manifest(
        self, tmp_path, capsys
    ):
        plan = FaultPlan(
            (FaultRule("runner.experiment", "raise-eio", times=99),)
        )
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(plan.to_json())
        code = cli.main(
            [
                "experiment", "all",
                "--trace-length", str(TRACE_LENGTH),
                "--workloads", "mp3d",
                "--only", "table1,fig9",
                "--cache-dir", str(tmp_path / "cache"),
                "--keep-going",
                "--fault-plan", str(plan_file),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "Failure manifest" in out
        assert "resilience:" in out
        assert "Figure 9" in out or "fig9" in out  # the rest still ran

    def test_resume_flag_skips_completed(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        args = [
            "experiment", "all",
            "--trace-length", str(TRACE_LENGTH),
            "--workloads", "mp3d",
            "--only", "table1",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert cli.main(args + ["--run-dir", str(run_dir)]) == 0
        capsys.readouterr()
        assert cli.main(args + ["--resume", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "1 resumed" in out
