"""Run every experiment and collect the results in paper order.

:func:`run_all` regenerates all reproduced tables and figures; ``python
-m repro experiment all`` is its command line.  The orchestration is a
small two-stage dependency graph over the experiments of
:data:`CATALOGUE`, the one table that says how each runner key
produces its result, which miss streams it replays and which workloads
it covers:

1. **Stream collection** — every (workload, TLB configuration) miss
   stream the selected experiments will replay, fanned out across worker
   processes and persisted to the on-disk cache
   (:mod:`repro.cache.stream_cache`);
2. **Replays / report rows** — the experiments themselves, fanned out
   once their stream artefacts exist, each worker reading phase-1 results
   from the shared cache instead of re-simulating.  A *celled*
   experiment (:data:`CELLED`: numa, tenancy, modern) runs each cell of
   its sweep as one task, labelled ``<key>/<cell id>``.

One scheduler runs both stages at every ``jobs`` setting.  ``jobs=N``
submits the tasks to a pool of N worker processes; ``jobs=1`` submits
them to an in-process executor that runs each task as it is submitted,
so retries, failure records, journaling, progress and telemetry take
the same path either way: every task counts, records its spans and
traces its walks in a scope of its own, which the runner keeps only
when the task succeeds.  Results are merged deterministically in paper
order, so ``jobs=8`` produces byte-identical output to ``jobs=1``.
With a warm cache a repeat invocation performs *zero* phase-1
simulations — run time is bounded by the cheap phase-2 replay cost.

Execution is **resilient** (:mod:`repro.resilience`, configured by a
:class:`ResilienceConfig`): transient task failures (worker crashes,
hung workers, cache I/O errors) are retried with jittered exponential
backoff; a per-task timeout bounds each pool task's wall clock (worker
pools are recycled around hung tasks); ``keep_going`` completes the DAG
around permanently failed tasks and emits an explicit failure manifest
instead of all-or-nothing; a run directory journals every completed
task to an append-only fsync'd JSONL so a resumed run skips finished
work after a crash or SIGINT; and Ctrl-C drains gracefully — pending
tasks are cancelled, the journal is flushed, and
:class:`RunInterrupted` carries the completed experiments.
"""

from __future__ import annotations

import json
import random
import signal
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial
from heapq import heappop, heappush
from itertools import count
from pathlib import Path
from types import ModuleType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cache.stream_cache import CacheStats
from repro.errors import ConfigurationError
from repro.obs import spans as _spans
from repro.obs import trace as _trace
from repro.obs.metrics import HistogramStats, MetricsRegistry, use_registry
from repro.obs.profile import WalkProfile
from repro.obs.spans import SpanRecord, record_span
from repro.obs.watch import DEFAULT_HEARTBEAT_INTERVAL, ProgressTracker
from repro.resilience.faults import (
    FaultPlan,
    fault_point,
    inject,
    mark_worker_process,
)
from repro.resilience.journal import RunJournal, task_digest
from repro.resilience.retry import (
    AttemptRecord,
    RetryPolicy,
    TaskTimeoutError,
    backoff_delay,
    classify_error,
    task_rng,
)
from repro.experiments import (
    cachesim,
    fig9,
    fig10,
    fig11,
    guarded,
    multiprog,
    multisize,
    numa,
    pressure,
    modern,
    promotion_scan,
    sasos,
    sensitivity,
    softtlb,
    table1,
    table2,
    tenancy,
)
from repro.experiments import common
from repro.experiments.common import (
    ExperimentResult,
    LINEAR_TLB_ENTRIES,
    SIZE_WORKLOADS,
    TLB_ENTRIES,
    TRACED_WORKLOADS,
)


@dataclass(frozen=True)
class Experiment:
    """One runner key of :data:`CATALOGUE`.

    The key produces its result through ``run(workloads,
    trace_length)``, ``workloads`` being the ``--workloads`` subset or
    ``None``, or, when it runs as cells, through its ``celled`` module:
    ``cells(workloads)`` (its sweep), ``measure(cell, trace_length)``
    (one JSON-safe record), ``merge(records)`` (the result) and
    ``document(result, trace_length, cells)`` (the ``BENCH_<key>.json``
    a run with a run directory writes).  ``workloads`` are the ones it
    covers when no subset is given, or ``None`` when it reads no
    ``--workloads``; it replays its ``streams``, (TLB kind, entries)
    pairs, for each of them.
    """

    run: Optional[Callable[..., ExperimentResult]] = None
    workloads: Optional[Tuple[str, ...]] = None
    streams: Tuple[Tuple[str, int], ...] = ()
    celled: Optional[ModuleType] = None


#: The base TLB's stream: 64 entries, fully associative.
_SINGLE = (("single", TLB_ENTRIES),)


def _fig11(figure: str) -> Experiment:
    """Figure 11a–d: its TLB's reference stream, plus the linear tables'
    56-entry stream (reserved-entry opportunity cost, §6.1)."""
    kind = fig11.SUBFIGURES[figure]["tlb"]
    return Experiment(
        partial(fig11.run_subfigure, figure), TRACED_WORKLOADS,
        ((kind, TLB_ENTRIES), (kind, LINEAR_TLB_ENTRIES)),
    )


def _fixed(study: Callable[[], ExperimentResult]) -> Experiment:
    """A synthetic-space or analytic study: it picks its own workloads
    and trace length."""
    return Experiment(lambda w, n: study())


#: Every experiment the runner knows, one entry per runner key, in paper
#: order: the merge order of every report, serial or parallel.  Adding
#: an experiment is adding its entry here.
CATALOGUE: Dict[str, Experiment] = {
    "table1": Experiment(table1.run, TRACED_WORKLOADS, _SINGLE),
    "fig9": Experiment(lambda w, n: fig9.run(w), SIZE_WORKLOADS),
    "fig10": Experiment(lambda w, n: fig10.run(w), SIZE_WORKLOADS),
    "fig11a": _fig11("11a"),
    "fig11b": _fig11("11b"),
    "fig11c": _fig11("11c"),
    "fig11d": _fig11("11d"),
    "table2": Experiment(lambda w, n: table2.run(w), SIZE_WORKLOADS),
    "sens_cacheline": _fixed(sensitivity.cache_line_sweep),
    "sens_subblock": _fixed(sensitivity.subblock_factor_sweep),
    "sens_buckets": _fixed(sensitivity.bucket_count_sweep),
    "sens_tlb_geometry": _fixed(sensitivity.tlb_geometry_sweep),
    "sens_hash_quality": _fixed(sensitivity.hash_quality_sweep),
    "sens_shared_private": _fixed(sensitivity.shared_vs_private_tables),
    "softtlb": Experiment(softtlb.run, TRACED_WORKLOADS, _SINGLE),
    "multisize": _fixed(multisize.run),
    "multiprog": Experiment(multiprog.run, multiprog.MULTIPROG_WORKLOADS),
    "guarded": Experiment(guarded.run, guarded.GUARDED_WORKLOADS, _SINGLE),
    "sasos": _fixed(sasos.run),
    "cachesim": Experiment(cachesim.run, cachesim.DEFAULT_WORKLOADS, _SINGLE),
    "pressure": _fixed(pressure.run),
    "promotion_scan": Experiment(
        lambda w, n: promotion_scan.run(w), promotion_scan.SCAN_WORKLOADS,
    ),
    "numa": Experiment(
        workloads=numa.DEFAULT_WORKLOADS, streams=_SINGLE, celled=numa,
    ),
    "tenancy": Experiment(celled=tenancy),
    "modern": Experiment(workloads=modern.DEFAULT_WORKLOADS, celled=modern),
}

#: The runner keys in paper order.
EXPERIMENT_ORDER: Tuple[str, ...] = tuple(CATALOGUE)

#: The experiments that run as cells, one task each.
CELLED = {
    key: entry.celled for key, entry in CATALOGUE.items() if entry.celled
}

#: One cell of a celled experiment: JSON-safe, with a unique ``id``.
Cell = Dict[str, object]


def select_experiments(only: Optional[Sequence[str]] = None) -> Tuple[str, ...]:
    """The experiment ids to run, validated, in paper order."""
    if not only:
        return EXPERIMENT_ORDER
    unknown = sorted(set(only) - set(EXPERIMENT_ORDER))
    if unknown:
        raise ConfigurationError(
            f"unknown experiment ids {unknown}; known: {EXPERIMENT_ORDER}"
        )
    wanted = set(only)
    return tuple(key for key in EXPERIMENT_ORDER if key in wanted)


# ---------------------------------------------------------------------------
# Stage 1: the stream-collection plan
# ---------------------------------------------------------------------------
#: One phase-1 task: (workload name, TLB kind, TLB entries).
StreamTask = Tuple[str, str, int]


def stream_prewarm_plan(
    keys: Sequence[str],
    workloads: Optional[Sequence[str]] = None,
) -> Tuple[StreamTask, ...]:
    """Every miss stream the selected experiments replay: each key's
    catalogue streams over ``workloads``, or over its own workloads when
    no subset is given, first occurrence first.

    This is the dependency frontier of the run: each task is independent
    of every other, and every experiment in ``keys`` depends only on its
    tasks' artefacts (plus cheap phase-2 work).  Experiments outside this
    plan (synthetic-space studies, quantum sweeps) compute any remaining
    streams in their own worker, still through the persistent cache.
    """
    return tuple(dict.fromkeys(
        (name, kind, entries)
        for key in keys
        for name in workloads or CATALOGUE[key].workloads or ()
        for kind, entries in CATALOGUE[key].streams
    ))


# ---------------------------------------------------------------------------
# Task entry point (module-level: picklable by the process pool)
# ---------------------------------------------------------------------------
def _worker_init(cache_dir: Optional[str], engine: str = "scalar") -> None:
    """Per-worker setup: fresh memo caches, shared persistent cache.

    The parent's replay-engine selection is re-applied here (the flag is
    process-wide state), so ``--engine batch --jobs N`` replays batched
    in every worker.  The worker is flagged as one, so an injected
    ``sigint`` signals the runner.
    """
    common.clear_caches()
    common.configure_stream_cache(cache_dir)
    common.configure_engine(engine)
    mark_worker_process()


@dataclass
class TaskTelemetry:
    """Observability a task ships back with its result.

    ``state`` is the structured dump of the task's own registry, which
    counted exactly this task; ``spans`` are its completed wall-clock
    spans (PID attached, so a worker's land on their own track in the
    merged timeline); ``profile`` counts the walks it traced, and
    ``tracer`` carries their ring events too, only when a ``--trace-out``
    tracer waits for them.  The runner folds them in on task success —
    a failed attempt's telemetry is discarded with the attempt.
    """

    state: Dict[str, object] = field(default_factory=dict)
    spans: List[SpanRecord] = field(default_factory=list)
    profile: Optional[WalkProfile] = None
    tracer: Optional[_trace.WalkTracer] = None


@contextmanager
def _task_scope(
    label: str,
    stage: str,
    ring: Optional[int],
    plan: Optional[FaultPlan],
    attempt: int,
):
    """Telemetry and fault scope around one task attempt; yields its
    :class:`TaskTelemetry`.

    In the runner's process as in a pool worker, the attempt counts into
    a fresh registry and records its spans, under a ``task:<label>``
    span, into a fresh recorder, and exactly the run's fault ``plan`` is
    armed for it (nothing without one), counting its visits from this
    attempt's first.  Unless ``ring`` is ``None`` it traces its walks
    into a fresh tracer too: ``ring`` is the capacity of the
    ``--trace-out`` ring that takes the tracer's events, or ``0`` when
    only the run's walk profile wants the walks (the tracer then keeps
    a one-event ring, and only its profile leaves the task).
    """
    telemetry = TaskTelemetry()
    registry = MetricsRegistry()
    walks = nullcontext() if ring is None else _trace.trace_walks(ring or 1)
    with use_registry(registry), _spans.record_spans() as recorder:
        with inject(plan, label, attempt), walks as tracer:
            with record_span(f"task:{label}", category=stage):
                yield telemetry
    telemetry.state = registry.state()
    telemetry.spans = recorder.spans
    if tracer is not None:
        telemetry.profile = tracer.profile
        telemetry.tracer = tracer if ring else None


def _prewarm_label(task: StreamTask) -> str:
    """Stable task label for fault matching, metrics, and manifests."""
    return "/".join(str(part) for part in task)


def _cell_label(key: str, cell: Optional[Cell]) -> str:
    """A task's label and journal key: the experiment, or
    ``<experiment>/<cell id>`` for a cell."""
    return key if cell is None else f"{key}/{cell['id']}"


def _run_task(
    stage: str,
    key: object,
    label: str,
    trace_length: int,
    workloads: Optional[Tuple[str, ...]],
    attempt: int = 1,
    ring: Optional[int] = None,
    plan: Optional[FaultPlan] = None,
) -> Tuple[object, float, TaskTelemetry]:
    """One task of either stage, in a pool worker or in the runner.

    A ``prewarm`` task materialises one miss stream (``key`` is a
    :data:`StreamTask`) into the shared cache; an ``experiment`` task
    (``key`` is an (experiment, cell) pair) produces one experiment's
    result table, or one cell's record.  With a stream cache the
    stream memo is dropped first, so the task's cache traffic depends
    only on (key, disk state) — not on which tasks ran before it in the
    same process — keeping the accounting identical across ``--jobs``.
    Without one there is no traffic anyway, and ``--jobs 1``
    experiments keep sharing in-process streams.  ``ring`` says how the
    task traces its walks, and ``plan`` is the run's fault plan, armed
    for this ``attempt`` (:func:`_task_scope`).
    """
    with _task_scope(label, stage, ring, plan, attempt) as telemetry:
        fault_point(f"runner.{stage}")
        if common.stream_cache() is not None:
            common.clear_stream_memo()
        started = time.perf_counter()
        result = None
        if stage == "prewarm":
            name, tlb_kind, entries = key
            workload = common.get_workload(name, trace_length)
            common.get_miss_stream(workload, tlb_kind, entries)
        else:
            name, cell = key
            entry = CATALOGUE[name]
            result = (
                entry.run(workloads, trace_length) if cell is None
                else entry.celled.measure(cell, trace_length)
            )
        elapsed = time.perf_counter() - started
    return result, elapsed, telemetry


class _InlineExecutor(Executor):
    """The ``--jobs 1`` executor: runs each task in the runner's process.

    ``submit`` runs the task at once and returns a finished future that
    holds its result or its exception, so the scheduler handles it like
    a pool task.  ``KeyboardInterrupt`` is not stored: it propagates out
    of ``submit``, and the run drains as it does for a pool.  A process
    pool of one worker would not do: in-process probes would miss the
    walks, and without a cache the streams could not cross processes.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


# ---------------------------------------------------------------------------
# Resilience configuration and failure reporting
# ---------------------------------------------------------------------------
@dataclass
class FailureRecord:
    """One permanently failed task in a ``keep_going`` run's manifest."""

    key: str
    stage: str  # "prewarm" | "experiment"
    error_type: str
    message: str
    attempts: int
    seed: Optional[int] = None  # the run's fault-plan seed, if any

    def as_dict(self) -> Dict[str, object]:
        return {
            "experiment": self.key,
            "stage": self.stage,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "seed": self.seed,
        }


@dataclass
class ResilienceConfig:
    """Retry / timeout / resume / degradation knobs for one run.

    The default configuration is exactly the historical behaviour:
    fail-fast, no timeouts, no journal.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Per-task wall-clock budget (parallel runs only: a serial task
    #: cannot be preempted in-process).
    task_timeout: Optional[float] = None
    #: Complete the DAG around failed tasks; report a failure manifest.
    keep_going: bool = False
    #: Journal completed experiments into ``<run_dir>/journal.jsonl``.
    run_dir: Optional[str] = None
    #: Skip experiments already journaled (with matching digests).
    resume: bool = False
    #: Fault plan every task attempt arms (tests/chaos).
    fault_plan: Optional[FaultPlan] = None


class RunInterrupted(KeyboardInterrupt):
    """SIGINT/SIGTERM drained gracefully; carries the completed keys."""

    def __init__(self, completed: Sequence[str]):
        self.completed = tuple(completed)
        super().__init__(
            f"run interrupted after {len(self.completed)} completed "
            f"experiment(s)"
        )


@contextmanager
def sigterm_drains():
    """Within the block, SIGTERM drains the run as Ctrl-C does."""
    try:
        previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    except ValueError:  # not the main thread
        previous = None
    try:
        yield
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


def interrupt_line(
    metrics: "RunMetrics", total: int, run_dir: Optional[str]
) -> str:
    """What a drained run prints: experiments done, and how to resume."""
    done = len(metrics.completed) + metrics.summary_dict()["resumed_skips"]
    resume = f"; resume with --resume {run_dir}" if run_dir else ""
    return f"[interrupted: {done}/{total} experiments completed{resume}]"


def _record_failure(
    metrics: "RunMetrics",
    journal: Optional[RunJournal],
    label: str,
    stage: str,
    exc: BaseException,
    seed: Optional[int],
) -> FailureRecord:
    """Append one permanent failure to the manifest (and the journal);
    ``seed`` is the run's fault-plan seed."""
    record = FailureRecord(
        key=str(label),
        stage=stage,
        error_type=type(exc).__name__,
        message=str(exc),
        attempts=max(1, len(getattr(exc, "retry_history", ()))),
        seed=seed,
    )
    metrics.failures.append(record)
    metrics.registry.inc("runner.task_failures", experiment=str(label))
    if journal is not None and stage == "experiment":
        journal.append_failure(record.as_dict())
    return record


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
@dataclass
class ExperimentTiming:
    """Wall time of one experiment, and the registries of its tasks."""

    key: str
    seconds: float
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def cache(self) -> CacheStats:
        """The experiment's stream-cache traffic."""
        return CacheStats.of(self.registry)


@dataclass
class RunMetrics:
    """Instrumentation of one ``run_all`` invocation; every count it
    makes lives in ``registry`` alone, where :meth:`summary_dict` reads
    it."""

    jobs: int = 1
    cache_dir: Optional[str] = None
    engine: str = "scalar"
    wall_seconds: float = 0.0
    #: One entry per experiment; a celled experiment's sums its cells.
    timings: List[ExperimentTiming] = field(default_factory=list)
    #: Permanent failures a ``keep_going`` run completed around.
    failures: List[FailureRecord] = field(default_factory=list)
    #: Experiment keys completed *this* run, in completion order — the
    #: graceful-interrupt report and the journal agree on this list.
    completed: List[str] = field(default_factory=list)
    interrupted: bool = False
    #: Profiling (``--profile-out`` / ``--run-dir``): every span recorded
    #: across parent and workers, and the merged per-table walk profile.
    profiled: bool = False
    spans: List[SpanRecord] = field(default_factory=list)
    walk_profile: Optional[WalkProfile] = None
    #: What this run and its successful tasks counted, and nothing else.
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def cache(self) -> CacheStats:
        """The run's stream-cache traffic."""
        return CacheStats.of(self.registry)

    @property
    def prewarm_tasks(self) -> int:
        return self._task_seconds("prewarm").count

    @property
    def prewarm_seconds(self) -> float:
        return self._task_seconds("prewarm").total

    def _task_seconds(self, stage: str) -> HistogramStats:
        return self.registry.histogram("runner.task_seconds", stage=stage)

    @property
    def busy_seconds(self) -> float:
        """Summed task time (prewarm + experiments) across workers."""
        return self.prewarm_seconds + sum(t.seconds for t in self.timings)

    @property
    def utilisation(self) -> float:
        """busy / (jobs × wall): how well the fan-out filled the pool."""
        if self.wall_seconds <= 0 or self.jobs <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (self.jobs * self.wall_seconds))

    def cache_summary(self) -> str:
        """The one-line cache report (stable format, parsed by tooling)."""
        c = self.cache
        where = f" dir={self.cache_dir}" if self.cache_dir else " disabled"
        return (
            f"[stream cache: hits={c.hits} computed={c.misses} "
            f"stored={c.stores} errors={c.errors}{where}]"
        )

    def span_summary(self) -> Dict[str, object]:
        """Span counts and summed durations, grouped by category."""
        by_category: Dict[str, Dict[str, object]] = {}
        for span in self.spans:
            entry = by_category.setdefault(
                span.category, {"count": 0, "seconds": 0.0}
            )
            entry["count"] = int(entry["count"]) + 1
            entry["seconds"] = (
                float(entry["seconds"]) + span.duration_us / 1e6
            )
        run_seconds = sum(
            span.duration_us / 1e6
            for span in self.spans
            if span.category == "run"
        )
        coverage = (
            min(1.0, self.wall_seconds / run_seconds)
            if run_seconds > 0 and self.wall_seconds > 0
            else 0.0
        )
        return {
            "count": len(self.spans),
            "by_category": by_category,
            #: measured wall time ÷ root-span time: ~1.0 means the
            #: timeline accounts for the whole run.
            "run_coverage": coverage,
        }

    def summary_dict(self) -> Dict[str, object]:
        """JSON-safe run summary, persisted as the ``run`` block of
        ``metrics.json`` and consumed by ``repro.cli report``.  Its
        counts are read from the run's registry."""
        registry = self.registry

        def phase_seconds(phase: str) -> float:
            return registry.histogram(
                "runner.phase_seconds", phase=phase
            ).total

        def total(name: str) -> int:
            return sum(registry.values(name).values())

        return {
            "jobs": self.jobs,
            "cache_dir": self.cache_dir,
            "engine": self.engine,
            "wall_seconds": self.wall_seconds,
            "prewarm_tasks": self.prewarm_tasks,
            "prewarm_seconds": self.prewarm_seconds,
            "experiment_tasks": self._task_seconds("experiment").count,
            "prewarm_wall_seconds": phase_seconds("prewarm"),
            "experiments_wall_seconds": phase_seconds("experiments"),
            "busy_seconds": self.busy_seconds,
            "utilisation": self.utilisation,
            "cache_summary": self.cache_summary(),
            "timings": [
                {"experiment": t.key, "seconds": t.seconds,
                 "cache_hits": t.cache.hits, "cache_computed": t.cache.misses}
                for t in self.timings
            ],
            "task_retries": total("runner.task_retries"),
            "task_timeouts": total("runner.task_timeouts"),
            "resumed_skips": total("runner.resumed_skips"),
            "failures": [f.as_dict() for f in self.failures],
            "completed": list(self.completed),
            "interrupted": self.interrupted,
            "profiled": self.profiled,
            "spans": self.span_summary(),
        }


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------
def _absorb_telemetry(metrics: RunMetrics, telemetry: TaskTelemetry) -> None:
    """Fold one successful task's telemetry into the run's aggregates.

    The task's registry always merges into the run's (its counters —
    cache traffic, injected faults — must survive ``--jobs N``); spans,
    walk profile and walk events land only where the run collects them:
    the run's recorder, ``metrics.walk_profile`` and the installed
    (``--trace-out``) tracer.
    """
    metrics.registry.merge_state(telemetry.state)
    recorder = _spans.active_recorder()
    if recorder is not None:
        recorder.extend(telemetry.spans)
    if metrics.walk_profile is not None and telemetry.profile is not None:
        metrics.walk_profile.merge(telemetry.profile)
    tracer = _trace.active_tracer()
    if tracer is not None and telemetry.tracer is not None:
        tracer.absorb(telemetry.tracer)


def _write_run_artifacts(
    run_dir: str, metrics: RunMetrics, documents: Mapping[str, dict]
) -> None:
    """Persist ``metrics.json``, the walk profile and each celled
    experiment's bench document (``BENCH_<key>.json``) into the run dir.

    Written on the success path only — a failed run keeps whatever the
    previous completed run left, rather than masking the failure with a
    half-true artefact.
    """
    from repro.resilience.journal import METRICS_NAME, PROFILE_NAME
    from repro.util.atomic_io import atomic_write_text, atomic_writer

    payload = {
        "metrics_version": 1,
        "registry": metrics.registry.state(),
        "run": metrics.summary_dict(),
    }
    with atomic_writer(Path(run_dir) / METRICS_NAME) as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")
    if metrics.walk_profile is not None:
        with atomic_writer(Path(run_dir) / PROFILE_NAME) as handle:
            json.dump(metrics.walk_profile.as_dict(), handle, sort_keys=True)
            handle.write("\n")
    for key, document in documents.items():
        atomic_write_text(
            Path(run_dir) / f"BENCH_{key}.json",
            json.dumps(document, indent=2, sort_keys=True) + "\n",
        )


def _sweeps(
    keys: Sequence[str],
    workloads: Optional[Tuple[str, ...]],
    cells: Optional[Mapping[str, Sequence[Cell]]],
) -> Dict[str, List[Optional[Cell]]]:
    """Each experiment's tasks in sweep order: a celled one's cells (given,
    or its own sweep), and one ``None`` cell for any other."""
    cells = dict(cells or {})
    unknown = sorted(set(cells) - set(CELLED))
    if unknown:
        raise ConfigurationError(
            f"{unknown} do not run as cells; celled: {sorted(CELLED)}"
        )
    sweeps: Dict[str, List[Optional[Cell]]] = {key: [None] for key in keys}
    for key in [key for key in keys if key in CELLED]:
        sweeps[key] = list(cells.get(key) or CELLED[key].cells(workloads))
        ids = [cell["id"] for cell in sweeps[key]]
        if len(set(ids)) < len(ids):
            raise ConfigurationError(f"{key} repeats cells: {ids}")
    return sweeps


def run_all(
    trace_length: int = 200_000,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    workloads: Optional[Sequence[str]] = None,
    only: Optional[Sequence[str]] = None,
    metrics: Optional[RunMetrics] = None,
    resilience: Optional[ResilienceConfig] = None,
    profile: bool = False,
    engine: str = "scalar",
    cells: Optional[Mapping[str, Sequence[Cell]]] = None,
) -> Dict[str, ExperimentResult]:
    """Regenerate every table and figure; returns results keyed by id.

    ``jobs > 1`` fans the work out over a process pool; results are
    identical to ``jobs=1``, which runs the same scheduler in this
    process (experiments are deterministic, and the merge is always in
    paper order).  ``cache_dir`` enables the persistent miss-stream
    cache for this run; pass a ``metrics`` object
    to receive timing and cache instrumentation, and a ``resilience``
    config for retries, timeouts, checkpoint/resume, and keep-going
    degradation (the default is the historical fail-fast behaviour).

    Every task attempt, in this process or a worker, counts into a fresh
    registry, records its spans into a fresh recorder, arms the
    resilience config's fault plan afresh and, when the run wants them,
    traces its walks into a fresh tracer.  The runner folds them
    into the run's when the task succeeds and drops them when it fails,
    at every ``jobs``.  ``profile=True`` turns on the run profiler: a
    span recorder covers the whole run (exported via ``--profile-out``),
    and the tasks' walks are merged into the per-table
    :class:`~repro.obs.profile.WalkProfile` on ``metrics.walk_profile``,
    the run's one record of walk costs (a run directory's
    ``walk_profile.json``).  A walk tracer installed when the run starts
    (``--trace-out``'s) takes in each successful task's walks and ring
    events, in completion order.

    ``engine`` selects the phase-2 replay engine (``scalar`` or
    ``batch``); the choice is re-applied inside every worker process and
    restored in this process when the run finishes.  Batch replay is
    exact, so results are identical either way.

    ``cells`` maps a :data:`CELLED` experiment to the cells to run in
    place of its own sweep.  Each cell is one task and one journal entry
    (a resume recomputes only missing cells), and the result carries the
    cell records in sweep order (``ExperimentResult.records``).  A run
    with a run directory that completes a celled experiment writes its
    bench document there, ``BENCH_<key>.json``, the same bytes at any
    ``jobs`` and after a resume.
    """
    keys = select_experiments(only)
    workloads = tuple(workloads) if workloads else None
    sweeps = _sweeps(keys, workloads, cells)
    cfg = resilience if resilience is not None else ResilienceConfig()
    metrics = metrics if metrics is not None else RunMetrics()
    metrics.jobs = max(1, jobs)
    metrics.cache_dir = str(cache_dir) if cache_dir else None
    metrics.profiled = bool(profile)
    previous_engine = common.active_engine()
    previous_cache = common.stream_cache()
    metrics.engine = common.configure_engine(engine)

    recorder: Optional[_spans.SpanRecorder] = None
    if profile:
        metrics.walk_profile = WalkProfile()
        recorder = _spans.install_recorder(_spans.SpanRecorder())
        recorder.begin(
            "run", category="run",
            jobs=metrics.jobs, trace_length=trace_length,
        )
    started = time.perf_counter()

    try:
        common.configure_stream_cache(cache_dir)
        journal: Optional[RunJournal] = None
        # Experiment → {task label: result, or a cell's record} of its
        # finished tasks, journaled or fresh.
        records: Dict[str, Dict[str, object]] = {key: {} for key in keys}
        if cfg.run_dir:
            journal = RunJournal(cfg.run_dir)
            journal.ensure_header(
                {
                    "trace_length": trace_length,
                    "workloads": list(workloads) if workloads else None,
                    "jobs": metrics.jobs,
                }
            )
            if cfg.resume:
                state = journal.load()
                for key in keys:
                    for cell in sweeps[key]:
                        label = _cell_label(key, cell)
                        doc = state.result_for(label, task_digest(
                            key, trace_length, workloads, cell
                        ))
                        if doc is not None:
                            records[key][label] = (
                                ExperimentResult.from_dict(doc)
                                if cell is None else doc
                            )
        resumed = [
            key for key in keys if len(records[key]) == len(sweeps[key])
        ]
        for key in resumed:
            metrics.registry.inc("runner.resumed_skips", experiment=key)
        pending = tuple(key for key in keys if key not in resumed)

        # Heartbeat progress (progress.json) for `repro watch`: only when
        # the run has a directory to put it in.  The tracker is silent on
        # stdout and swallows its own I/O errors — monitoring never kills
        # the run it monitors.
        tracker: Optional[ProgressTracker] = None
        if cfg.run_dir:
            tracker = ProgressTracker(cfg.run_dir, keys)
            for key in resumed:
                tracker.skip(key)

        try:
            with use_registry(metrics.registry):
                if pending:
                    _run_stages(
                        pending, trace_length, cache_dir, workloads,
                        metrics, cfg, journal, tracker, sweeps, records,
                    )
        except RunInterrupted:
            if tracker is not None:
                tracker.finish(interrupted=True)
            raise
        except BaseException as exc:
            if tracker is not None:
                tracker.abandon(f"{type(exc).__name__}: {exc}")
            raise
        # Merge in sweep order: a celled experiment from its records,
        # any other is its one task's result.
        results = {}
        for key in keys:
            done = [records[key].get(_cell_label(key, c)) for c in sweeps[key]]
            if None not in done:
                results[key] = (
                    CELLED[key].merge(done) if key in CELLED else done[0]
                )
        # The tracker's final fsync'd write is part of the run, so it
        # happens before wall_seconds is read.
        if tracker is not None:
            tracker.finish()
        metrics.wall_seconds = time.perf_counter() - started
    finally:
        # The run span closes *after* wall_seconds is measured, so the
        # root span always covers the full measured wall time.
        if recorder is not None:
            recorder.end()
            metrics.spans = list(recorder.spans)
            _spans.uninstall_recorder(recorder)
        common.set_stream_cache(previous_cache)
        common.configure_engine(previous_engine)
    if cfg.run_dir:
        _write_run_artifacts(cfg.run_dir, metrics, {
            key: CELLED[key].document(results[key], trace_length, sweeps[key])
            for key in results if key in CELLED
        })
    return results


# ---------------------------------------------------------------------------
# The scheduler (a process pool, or in-process at --jobs 1)
# ---------------------------------------------------------------------------
@dataclass
class _Task:
    """One schedulable unit (prewarm stream or experiment) plus its state."""

    stage: str  # "prewarm" | "experiment"
    key: object
    label: str
    rng: random.Random
    attempts: int = 0
    history: List[AttemptRecord] = field(default_factory=list)


def _terminate_pool(pool: Executor) -> None:
    """Kill the pool's workers and discard its queue.

    Used when abandoning hung or doomed work: cache writes are atomic
    (temp + rename), so terminating a worker mid-task can strand a temp
    file at worst, never a half-written artefact.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _drain(
    pool_ref: Dict[str, object],
    tasks: Sequence[_Task],
    submit: Callable[[Executor, _Task], Future],
    on_success: Callable[[_Task, object], None],
    cfg: ResilienceConfig,
    metrics: RunMetrics,
    journal: Optional[RunJournal],
    tracker: Optional[ProgressTracker] = None,
) -> None:
    """Run one stage's tasks to completion under the resilience policy.

    At most ``jobs`` tasks are in flight (self-throttled submission, so
    a wall-clock deadline approximates *running* time, not queue time).
    Transient failures are re-queued after a jittered backoff while the
    retry budget lasts; a hung task past ``task_timeout`` has its pool
    recycled (workers terminated, collateral tasks re-run without an
    attempt charge); a worker crash (``BrokenExecutor``) likewise
    recycles and retries.  Permanent failures either abort the stage
    (default) or land in the failure manifest (``keep_going``).  The
    in-process executor of ``--jobs 1`` finishes each task inside
    ``submit``, so there a deadline never expires.
    """
    registry = metrics.registry
    queue = deque(tasks)
    waiting: List[Tuple[float, int, _Task]] = []  # (ready_at, seq, task)
    running: Dict[Future, Tuple[_Task, Optional[float]]] = {}
    tiebreak = count()
    need_recycle = False

    def recycle() -> None:
        _terminate_pool(pool_ref["pool"])
        pool_ref["pool"] = pool_ref["factory"]()

    def handle_error(task: _Task, exc: BaseException) -> Optional[BaseException]:
        """Schedule a retry, record a failure, or return an abort error."""
        nonlocal need_recycle
        if isinstance(exc, TaskTimeoutError):
            registry.inc("runner.task_timeouts", experiment=str(task.label))
        if isinstance(exc, (TaskTimeoutError, BrokenExecutor)):
            need_recycle = True
        if (
            classify_error(exc) == "transient"
            and task.attempts <= cfg.retry.max_retries
        ):
            delay = backoff_delay(cfg.retry, task.attempts, task.rng)
            task.history.append(
                AttemptRecord(task.attempts, repr(exc), delay)
            )
            registry.inc("runner.task_retries", experiment=str(task.label))
            heappush(
                waiting, (time.monotonic() + delay, next(tiebreak), task)
            )
            return None
        exc.retry_history = tuple(
            task.history + [AttemptRecord(task.attempts, repr(exc), 0.0)]
        )
        if cfg.keep_going:
            _record_failure(
                metrics, journal, task.label, task.stage, exc,
                cfg.fault_plan.seed if cfg.fault_plan else None,
            )
            return None
        return exc

    while queue or waiting or running:
        now = time.monotonic()
        while waiting and waiting[0][0] <= now:
            _, _, ready = heappop(waiting)
            queue.append(ready)
        if need_recycle and not running:
            recycle()
            need_recycle = False
        while queue and len(running) < metrics.jobs and not need_recycle:
            task = queue.popleft()
            task.attempts += 1
            try:
                future = submit(pool_ref["pool"], task)
            except BrokenExecutor:
                task.attempts -= 1
                queue.appendleft(task)
                need_recycle = True
                break
            deadline = (
                time.monotonic() + cfg.task_timeout
                if cfg.task_timeout
                else None
            )
            running[future] = (task, deadline)
        if not running:
            if queue:
                continue  # a recycle just happened; resubmit
            if waiting:
                time.sleep(max(0.0, waiting[0][0] - time.monotonic()))
            continue

        deadlines = [dl for _, dl in running.values() if dl is not None]
        horizons = deadlines + [ready_at for ready_at, _, _ in waiting[:1]]
        wait_timeout = (
            max(0.0, min(horizons) - time.monotonic()) if horizons else None
        )
        if tracker is not None:
            # Cap the wait so the heartbeat keeps proving liveness even
            # while every in-flight task is long-running.
            wait_timeout = (
                DEFAULT_HEARTBEAT_INTERVAL if wait_timeout is None
                else min(wait_timeout, DEFAULT_HEARTBEAT_INTERVAL)
            )
        done, _ = wait(
            list(running), timeout=wait_timeout, return_when=FIRST_COMPLETED
        )
        if tracker is not None:
            tracker.heartbeat()
        abort: Optional[BaseException] = None
        for future in done:
            task, _ = running.pop(future)
            if future.cancelled():
                # Collateral of a recycle: re-run without an attempt charge.
                task.attempts -= 1
                queue.append(task)
                continue
            exc = future.exception()
            if exc is None:
                on_success(task, future.result())
            else:
                abort = handle_error(task, exc)
                if abort is not None:
                    break
        if abort is not None:
            _terminate_pool(pool_ref["pool"])
            raise abort
        if done:
            continue

        # Nothing completed before the horizon: look for expired tasks.
        now = time.monotonic()
        expired = [
            (future, task)
            for future, (task, deadline) in running.items()
            if deadline is not None and deadline <= now
        ]
        if not expired:
            continue
        expired_futures = {future for future, _ in expired}
        for future, (task, _) in list(running.items()):
            if future not in expired_futures:
                task.attempts -= 1
                queue.append(task)
        running.clear()
        recycle()  # hung workers are terminated here
        need_recycle = False
        for _, task in expired:
            abort = handle_error(
                task, TaskTimeoutError(task.label, cfg.task_timeout)
            )
            if abort is not None:
                _terminate_pool(pool_ref["pool"])
                raise abort


def _run_stages(
    keys: Sequence[str],
    trace_length: int,
    cache_dir: Optional[str],
    workloads: Optional[Tuple[str, ...]],
    metrics: RunMetrics,
    cfg: ResilienceConfig,
    journal: Optional[RunJournal],
    tracker: Optional[ProgressTracker],
    sweeps: Dict[str, List[Optional[Cell]]],
    records: Dict[str, Dict[str, object]],
) -> None:
    """Run the prewarm stage (with a stream cache) and then the experiments.

    Every task of both stages goes through :func:`_drain` on one
    executor — :class:`_InlineExecutor` at ``--jobs 1``, a process pool
    otherwise — and lands through one success handler, so metrics,
    registry, journal and progress are fed the same way at every
    ``--jobs``.  An experiment contributes one task per cell of its
    sweep not yet in ``records`` (resumed cells), and completes when its
    last task lands there.  Each stage runs under a ``phase:<name>``
    span and is observed into ``runner.phase_seconds{phase}``, even when
    it is interrupted.
    """
    def executor_factory() -> Executor:
        if metrics.jobs == 1:
            return _InlineExecutor()
        return ProcessPoolExecutor(
            max_workers=metrics.jobs,
            initializer=_worker_init,
            initargs=(cache_dir, common.active_engine()),
        )

    registry = metrics.registry
    stages: List[Tuple[str, List[_Task]]] = []
    # Stage 1: the stream-collection frontier.  Only useful when
    # artefacts persist — without a cache directory the streams could
    # not cross process boundaries.
    if common.stream_cache() is not None:
        stages.append(("prewarm", [
            _Task(
                "prewarm", task, _prewarm_label(task),
                task_rng(cfg.retry, _prewarm_label(task)),
            )
            for task in stream_prewarm_plan(keys, workloads)
        ]))
    # Stage 2: the experiments themselves, celled ones cell by cell.
    labelled = [
        (key, cell, _cell_label(key, cell))
        for key in keys for cell in sweeps[key]
    ]
    stages.append(("experiments", [
        _Task("experiment", (key, cell), label, task_rng(cfg.retry, label))
        for key, cell, label in labelled
        if label not in records[key]
    ]))
    # An experiment's timing sums its tasks until the last one lands.
    timings: Dict[str, ExperimentTiming] = {}
    # Tasks trace their walks for the run's profile, and keep their
    # events too when a --trace-out tracer waits for them.
    tracer = _trace.active_tracer()
    ring = (
        tracer.capacity if tracer is not None
        else 0 if metrics.profiled else None
    )

    def submit(pool: Executor, task: _Task) -> Future:
        return pool.submit(
            _run_task, task.stage, task.key, task.label, trace_length,
            workloads, task.attempts, ring, cfg.fault_plan,
        )

    def on_success(task: _Task, value) -> None:
        result, elapsed, telemetry = value
        _absorb_telemetry(metrics, telemetry)
        registry.observe("runner.task_seconds", elapsed, stage=task.stage)
        done: Optional[str] = None  # the experiment this task completes
        if task.stage == "experiment":
            key, cell = task.key
            if journal is not None:
                journal.append_result(
                    task.label,
                    task_digest(key, trace_length, workloads, cell),
                    result.as_dict() if cell is None else result,
                    elapsed, task.attempts,
                )
            records[key][task.label] = result
            timing = timings.setdefault(key, ExperimentTiming(key, 0.0))
            timing.seconds += elapsed
            timing.registry.merge_state(telemetry.state)
            if len(records[key]) == len(sweeps[key]):
                metrics.timings.append(timing)
                metrics.completed.append(key)
                done = key
        if tracker is not None:
            tracker.task_done(done, elapsed)

    pool_ref: Dict[str, object] = {
        "pool": executor_factory(), "factory": executor_factory,
    }
    try:
        for phase, tasks in stages:
            with record_span(f"phase:{phase}", category="phase"):
                started = time.perf_counter()
                try:
                    if tracker is not None:
                        tracker.begin_phase(phase, len(tasks))
                    _drain(
                        pool_ref, tasks, submit, on_success, cfg, metrics,
                        journal, tracker,
                    )
                finally:
                    seconds = time.perf_counter() - started
                    registry.observe(
                        "runner.phase_seconds", seconds, phase=phase
                    )
    except KeyboardInterrupt:
        # Graceful drain: cancel pending work, kill the workers (their
        # results are discarded; cache/journal writes are atomic), and
        # surface which experiments finished — the journal already holds
        # them, so ``--resume`` picks up exactly here.
        _terminate_pool(pool_ref["pool"])
        metrics.interrupted = True
        raise RunInterrupted(metrics.completed)
    pool_ref["pool"].shutdown(wait=True)
    # Deterministic merge: paper order, not completion order.
    order = {key: index for index, key in enumerate(EXPERIMENT_ORDER)}
    metrics.timings.sort(key=lambda t: order.get(t.key, len(order)))
    # The failure manifest too, in task order.
    labels = [task.label for _, tasks in stages for task in tasks]
    metrics.failures.sort(key=lambda record: labels.index(record.key))
