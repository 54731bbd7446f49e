"""Chaos suite: the resilience invariant under seeded fault plans.

The invariant (ISSUE 4): under ANY seeded fault plan, a run either
produces output **byte-identical** to the fault-free paper-order run or
terminates with an **explicit per-experiment failure record** — never
silently wrong, never hung.

Three layers:

- a ≥50-seed serial sweep over every injectable-in-process fault
  (I/O errors at the runner and cache sites, artefact bit rot), each
  seed on a cold cache of its own so that stores happen and the store
  and bit-rot sites fire;
- a parallel sweep adding the process-level faults only a multi-process
  scheduler can survive (worker crashes, hung workers);
- a kill-and-resume smoke: SIGKILL the runner mid-run, ``--resume``,
  and require the final output to equal the uninterrupted run's without
  re-running completed experiments.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import runner
from repro.resilience import FaultPlan, RetryPolicy, RunJournal
from repro.resilience.faults import PROCESS_ACTIONS, FaultInjector

TRACE_LENGTH = 2_000
WORKLOADS = ("mp3d",)
EXPERIMENTS = ("table1", "fig9")

#: Sites the serial sweep draws from: everything that can fault without
#: killing the (single) process.  The replica-divergence and ring-
#: overflow behaviour hooks are exercised by their own differential
#: tests (`tests/test_resilience_faults.py`) — they model *detected*
#: corruption, not output-preserving recovery.
SERIAL_SITES = (
    "runner.prewarm",
    "runner.experiment",
    "cache.store_stream",
    "cache.load_stream",
    "cache.artifact_stored",
)

#: Seeded plans for the serial sweep — the acceptance floor is 50.
SERIAL_SEEDS = tuple(range(50))

#: Seeds the serial sweep also runs with one retry.  Every drawn rule is
#: armed in a task's first two attempts only, so the sweep's two retries
#: always outlive it; with one, a rule that fails both attempts fails the
#: task for good, and the run must record it.
SHORT_BUDGET_SEEDS = SERIAL_SEEDS[:10]

#: Parallel sweep: worker crashes and hangs included, ``sigint``
#: excluded (an interrupt *stops* a run by design; the completion
#: invariant below is about faults a run must survive).
PARALLEL_SITES = ("runner.prewarm", "runner.experiment")
PARALLEL_SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def chaos_env(tmp_path_factory):
    """A warm cache directory (for the parallel sweep) plus the
    fault-free baseline renders."""
    cache_dir = str(tmp_path_factory.mktemp("chaos-cache"))
    results = runner.run_all(
        TRACE_LENGTH,
        jobs=1,
        cache_dir=cache_dir,
        workloads=WORKLOADS,
        only=list(EXPERIMENTS),
    )
    baseline = {
        key: results[key].render(precision=3) for key in EXPERIMENTS
    }
    return cache_dir, baseline


def _assert_invariant(results, metrics, baseline):
    """Every experiment either byte-matches the baseline or failed loudly."""
    failed_keys = {record.key for record in metrics.failures}
    for key in EXPERIMENTS:
        if key in results:
            assert results[key].render(precision=3) == baseline[key], (
                f"{key}: output diverged from the fault-free run"
            )
        else:
            assert key in failed_keys, (
                f"{key}: missing from the results with no failure record"
            )
    for record in metrics.failures:
        assert record.error_type and record.attempts >= 1


@pytest.fixture(scope="module")
def fired_sites():
    """Serial sweep seed → the sites whose rules fired in its run."""
    return {}


def _serial_chaos_run(seed, chaos_env, max_retries, cache_dir):
    """One serial run under seed ``seed``'s plan on a cold cache in
    ``cache_dir``; returns its metrics and the sites that fired."""
    _, baseline = chaos_env
    plan = FaultPlan.random(
        seed,
        sites=SERIAL_SITES,
        max_rules=3,
        max_attempt=2,
        exclude_actions=PROCESS_ACTIONS,
    )
    cfg = runner.ResilienceConfig(
        retry=RetryPolicy(max_retries=max_retries, base_delay=0.0),
        keep_going=True,
        fault_plan=plan,
    )
    metrics = runner.RunMetrics()
    fired = set()
    fire = FaultInjector._fire

    def counted_fire(injector, rule, path):
        fired.add(rule.site)
        return fire(injector, rule, path)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FaultInjector, "_fire", counted_fire)
        results = runner.run_all(
            TRACE_LENGTH,
            jobs=1,
            cache_dir=str(cache_dir),
            workloads=WORKLOADS,
            only=list(EXPERIMENTS),
            resilience=cfg,
            metrics=metrics,
        )
    _assert_invariant(results, metrics, baseline)
    return metrics, fired


@pytest.mark.parametrize("seed", SERIAL_SEEDS)
def test_serial_chaos_sweep(seed, chaos_env, fired_sites, tmp_path):
    _, fired_sites[seed] = _serial_chaos_run(
        seed, chaos_env, max_retries=2, cache_dir=tmp_path
    )


def test_serial_chaos_sweep_fires_every_site(
    chaos_env, fired_sites, tmp_path
):
    """Over the sweep, a rule fires at every serial site, the store and
    bit-rot sites included.  Seeds the sweep did not run in this
    session (a ``-k`` selection) are run here."""
    for seed in SERIAL_SEEDS:
        if seed not in fired_sites:
            _, fired_sites[seed] = _serial_chaos_run(
                seed, chaos_env, max_retries=2, cache_dir=tmp_path / str(seed)
            )
    fired = set().union(*fired_sites.values())
    assert fired == set(SERIAL_SITES), sorted(set(SERIAL_SITES) - fired)


def test_serial_chaos_sweep_past_the_retry_budget(chaos_env, tmp_path):
    """With one retry, some seeds fail a task for good: the failure
    record half of the invariant is reached, not only the byte match."""
    failed = [
        seed for seed in SHORT_BUDGET_SEEDS
        if _serial_chaos_run(
            seed, chaos_env, max_retries=1, cache_dir=tmp_path / str(seed)
        )[0].failures
    ]
    assert failed, "no seed's plan outlived a one-retry budget"


@pytest.mark.slow
@pytest.mark.parametrize("seed", PARALLEL_SEEDS)
def test_parallel_chaos_sweep(seed, chaos_env):
    cache_dir, baseline = chaos_env
    plan = FaultPlan.random(
        seed,
        sites=PARALLEL_SITES,
        max_rules=2,
        hang_seconds=30.0,  # far beyond the timeout: must be preempted
        max_attempt=2,
        exclude_actions=("sigint",),
    )
    cfg = runner.ResilienceConfig(
        retry=RetryPolicy(max_retries=3, base_delay=0.0),
        task_timeout=3.0,
        keep_going=True,
        fault_plan=plan,
    )
    started = time.monotonic()
    metrics = runner.RunMetrics()
    results = runner.run_all(
        TRACE_LENGTH,
        jobs=2,
        cache_dir=cache_dir,
        workloads=WORKLOADS,
        only=list(EXPERIMENTS),
        resilience=cfg,
        metrics=metrics,
    )
    assert time.monotonic() - started < 120.0  # terminated, never hung
    _assert_invariant(results, metrics, baseline)


def _journal_entries(journal_path: Path) -> int:
    if not journal_path.exists():
        return 0
    count = 0
    for line in journal_path.read_text().splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and "entry" in record:
            count += 1
    return count


@pytest.mark.slow
def test_sigkill_then_resume_reproduces_uninterrupted_output(tmp_path):
    """SIGKILL mid-run + ``--resume`` equals the uninterrupted run."""
    repo_root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(repo_root / "src"))
    cache_dir = tmp_path / "cache"
    run_dir = tmp_path / "run"
    base_args = [
        sys.executable, "-m", "repro", "experiment", "all",
        "--trace-length", str(TRACE_LENGTH),
        "--workloads", "mp3d",
        "--only", "table1,fig9,fig10,fig11a,fig11b",
        "--cache-dir", str(cache_dir),
    ]

    reference = subprocess.run(
        base_args, capture_output=True, text=True, env=env, cwd=repo_root,
        timeout=300,
    )
    assert reference.returncode == 0, reference.stderr
    reference_results = reference.stdout.split("Run metrics")[0]

    # Start the journaled run and SIGKILL it once progress is durable.
    journal_path = run_dir / "journal.jsonl"
    proc = subprocess.Popen(
        base_args + ["--run-dir", str(run_dir)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env=env, cwd=repo_root,
    )
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if _journal_entries(journal_path) >= 1 or proc.poll() is not None:
                break
            time.sleep(0.02)
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGKILL)
    finally:
        proc.wait(timeout=60)
    completed_before = _journal_entries(journal_path)
    assert completed_before >= 1, "no progress was journaled before the kill"

    resumed = subprocess.run(
        base_args + ["--resume", str(run_dir)],
        capture_output=True, text=True, env=env, cwd=repo_root,
        timeout=300,
    )
    assert resumed.returncode == 0, resumed.stderr
    # Byte-identical results, without re-running completed experiments.
    assert resumed.stdout.split("Run metrics")[0] == reference_results
    assert f"{completed_before} resumed" in resumed.stdout
    assert RunJournal(run_dir).completed_count() == 5
