"""Live run monitoring: heartbeat progress records and ``repro watch``.

Long sweeps (10k-tenant consolidation, TB-scale footprints) used to run
dark: the fsync'd journal recorded *completed* experiments, but nothing
showed progress, throughput, or whether the run had silently died.  Two
pieces fix that:

- :class:`ProgressTracker` — the runner's side.  It maintains an atomic
  ``progress.json`` heartbeat in the run directory (tasks done/total,
  per-phase throughput, pid, timestamps) rewritten through
  :func:`repro.util.atomic_io.atomic_writer` so a reader never observes
  a torn document.  Writes are rate-limited; a run that finishes, is
  interrupted, or dies on an error stamps its terminal state.
- :func:`snapshot` / :func:`watch` — the observer's side, behind
  ``repro watch RUN_DIR``.  A snapshot fuses ``progress.json`` with the
  journal: state (running/finished/interrupted/failed/stalled/missing),
  completed and pending experiments, ETA, and seconds since the last
  sign of life.  ETA prefers *historical* per-task durations from the
  benchmark ledger (:func:`repro.obs.ledger.expected_task_seconds`);
  with no history it falls back to the current run's throughput and says
  so.  **Stall detection is loud**: when neither the heartbeat nor the
  journal has moved within ``--stall-timeout`` seconds, the state flips
  to ``stalled`` and the watcher exits non-zero instead of hanging — a
  SIGKILLed run is reported, not waited on forever.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.obs.ledger import (
    BenchLedger,
    LedgerState,
    default_ledger_path,
    expected_task_seconds,
)
from repro.resilience.journal import JOURNAL_NAME, RunJournal
from repro.util.atomic_io import atomic_writer

#: Bump when the progress.json document shape changes incompatibly.
PROGRESS_VERSION = 1

#: The heartbeat file name inside a run directory.
PROGRESS_NAME = "progress.json"

#: Default seconds of silence before a run is declared stalled.
DEFAULT_STALL_TIMEOUT = 60.0

#: Default seconds between heartbeat rewrites (and watch polls).
DEFAULT_HEARTBEAT_INTERVAL = 2.0


# ---------------------------------------------------------------------------
# Writer side: the runner's heartbeat
# ---------------------------------------------------------------------------
@dataclass
class _PhaseStats:
    done: int = 0
    total: int = 0
    seconds: float = 0.0


class ProgressTracker:
    """Atomic ``progress.json`` heartbeat for one run directory.

    The tracker never touches stdout (CI asserts byte-identical runner
    logs) and never throws past the runner: a heartbeat that cannot be
    written is dropped, because monitoring must not kill the run it
    monitors.  ``clock`` is injectable for deterministic tests.
    """

    def __init__(
        self,
        run_dir: os.PathLike,
        plan: Sequence[str],
        interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        clock: Callable[[], float] = time.time,
    ):
        self.path = Path(run_dir) / PROGRESS_NAME
        self._plan = list(plan)
        self._interval = float(interval)
        self._clock = clock
        self._completed: List[str] = []
        self._phases: Dict[str, _PhaseStats] = {}
        self._phase_order: List[str] = []
        self._phase: Optional[str] = None
        self._started_at = clock()
        self._last_write = float("-inf")
        self._state = "running"
        self._error: Optional[str] = None
        self._write(force=True)

    # -- lifecycle ---------------------------------------------------------
    def begin_phase(self, name: str, total: int) -> None:
        """Enter a phase (``prewarm``, ``experiments``) with ``total`` tasks."""
        self._phase = name
        if name not in self._phases:
            self._phases[name] = _PhaseStats(total=int(total))
            self._phase_order.append(name)
        else:
            self._phases[name].total = int(total)
        self._write(force=True)

    def task_done(self, key: Optional[str], seconds: float = 0.0) -> None:
        """Record one completed task of the current phase; experiments
        land in ``completed`` (``key`` is ``None`` for a task that
        completes none)."""
        name = self._phase
        if name is not None:
            stats = self._phases.setdefault(name, _PhaseStats())
            stats.done += 1
            stats.seconds += max(0.0, float(seconds))
            if (
                name == "experiments" and key is not None
                and key not in self._completed
            ):
                self._completed.append(key)
        self._write()

    def skip(self, key: str) -> None:
        """Record a resume-skipped experiment as already completed."""
        if key not in self._completed:
            self._completed.append(key)
        self._write()

    def heartbeat(self) -> None:
        """Prove liveness between task completions (rate-limited)."""
        self._write()

    def finish(self, interrupted: bool = False) -> None:
        """Stamp the terminal state on a clean or interrupted exit."""
        self._state = "interrupted" if interrupted else "finished"
        self._write(force=True)

    def abandon(self, error: str) -> None:
        """Stamp the terminal state when the run died on an error."""
        self._state = "failed"
        self._error = str(error)
        self._write(force=True)

    # -- serialisation -----------------------------------------------------
    def _write(self, force: bool = False) -> None:
        now = self._clock()
        if not force and now - self._last_write < self._interval:
            return
        self._last_write = now
        doc = {
            "progress_version": PROGRESS_VERSION,
            "pid": os.getpid(),
            "state": self._state,
            "plan": self._plan,
            "completed": self._completed,
            "done": len(self._completed),
            "total": len(self._plan),
            "phase": self._phase,
            "phases": {
                name: {
                    "done": stats.done,
                    "total": stats.total,
                    "seconds": round(stats.seconds, 6),
                    "throughput": (
                        round(stats.done / stats.seconds, 6)
                        if stats.seconds > 0 else None
                    ),
                }
                for name, stats in (
                    (name, self._phases[name]) for name in self._phase_order
                )
            },
            "started_at": self._started_at,
            "updated_at": now,
            "error": self._error,
        }
        try:
            with atomic_writer(self.path) as handle:
                json.dump(doc, handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Reader side: snapshots and the watch loop
# ---------------------------------------------------------------------------
@dataclass
class WatchSnapshot:
    """One observation of a run directory's liveness and progress."""

    state: str  # running|finished|interrupted|failed|stalled|missing
    done: int = 0
    total: int = 0
    phase: Optional[str] = None
    completed: List[str] = field(default_factory=list)
    pending: List[str] = field(default_factory=list)
    failures: int = 0
    idle_seconds: Optional[float] = None
    eta_seconds: Optional[float] = None
    eta_source: str = "none"  # ledger|throughput|none
    error: Optional[str] = None
    notes: List[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """0 finished · 1 interrupted/failed · 2 missing · 3 stalled."""
        if self.state == "finished":
            return 0
        if self.state in ("interrupted", "failed"):
            return 1
        if self.state == "missing":
            return 2
        if self.state == "stalled":
            return 3
        return 0


def _load_progress(run_dir: Path) -> Optional[Dict[str, object]]:
    path = run_dir / PROGRESS_NAME
    if not path.exists():
        return None
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None


def _last_activity(run_dir: Path, progress: Optional[Dict]) -> Optional[float]:
    """Newest sign of life: heartbeat timestamp or journal mtime."""
    stamps = []
    if progress is not None and isinstance(
        progress.get("updated_at"), (int, float)
    ):
        stamps.append(float(progress["updated_at"]))
    journal_path = run_dir / JOURNAL_NAME
    if journal_path.exists():
        try:
            stamps.append(journal_path.stat().st_mtime)
        except OSError:
            pass
    return max(stamps) if stamps else None


def snapshot(
    run_dir: os.PathLike,
    ledger: Optional[LedgerState] = None,
    stall_timeout: float = DEFAULT_STALL_TIMEOUT,
    now: Optional[float] = None,
) -> WatchSnapshot:
    """Observe a run directory once (pure read; ``now`` injectable)."""
    root = Path(run_dir)
    now = time.time() if now is None else now
    progress = _load_progress(root)
    journal = RunJournal(root)
    journal_state = journal.load() if journal.path.exists() else None

    if progress is None and journal_state is None:
        return WatchSnapshot(
            state="missing",
            notes=[f"no {PROGRESS_NAME} or {JOURNAL_NAME} in {root}"],
        )

    snap = WatchSnapshot(state="running")
    if progress is not None:
        snap.phase = progress.get("phase")
        plan = [str(key) for key in progress.get("plan", [])]
        snap.completed = [str(key) for key in progress.get("completed", [])]
        snap.total = len(plan) or int(progress.get("total", 0) or 0)
        state = str(progress.get("state", "running"))
        if state in ("finished", "interrupted", "failed"):
            snap.state = state
        snap.error = progress.get("error")
    else:
        plan = []
        snap.notes.append(f"no {PROGRESS_NAME}; journal only")

    if journal_state is not None:
        snap.failures = len(journal_state.failures)
        # The journal is authoritative for completions: a heartbeat may
        # lag one task behind the last fsync'd entry.  Only planned
        # experiments count; one cell's entry completes none.
        for key in journal_state.entries:
            if key not in snap.completed and (not plan or key in plan):
                snap.completed.append(key)
        if not plan:
            plan = list(journal_state.entries)
            snap.total = max(snap.total, len(plan))
    snap.done = len(snap.completed)
    snap.total = max(snap.total, snap.done)
    snap.pending = [key for key in plan if key not in snap.completed]

    if snap.state == "running":
        last = _last_activity(root, progress)
        snap.idle_seconds = None if last is None else max(0.0, now - last)
        if snap.idle_seconds is not None and snap.idle_seconds > stall_timeout:
            snap.state = "stalled"
            snap.notes.append(
                f"no journal append or heartbeat for "
                f"{snap.idle_seconds:.0f}s (timeout {stall_timeout:.0f}s)"
            )

    # ETA for whatever is still pending.
    if snap.pending and snap.state in ("running", "stalled"):
        expected: Dict[str, float] = {}
        if ledger is not None:
            expected = expected_task_seconds(ledger, snap.pending)
        if expected and len(expected) == len(snap.pending):
            snap.eta_seconds = sum(expected.values())
            snap.eta_source = "ledger"
        else:
            remaining = [k for k in snap.pending if k not in expected]
            rate = None
            if progress is not None:
                stats = progress.get("phases", {}).get("experiments", {})
                throughput = stats.get("throughput")
                if isinstance(throughput, (int, float)) and throughput > 0:
                    rate = 1.0 / float(throughput)
            if rate is not None:
                snap.eta_seconds = sum(expected.values()) + rate * len(remaining)
                snap.eta_source = "throughput" if not expected else "mixed"
            elif expected:
                # Partial history only: scale the known median to the rest.
                per_task = sum(expected.values()) / len(expected)
                snap.eta_seconds = (
                    sum(expected.values()) + per_task * len(remaining)
                )
                snap.eta_source = "ledger-partial"
            else:
                snap.eta_source = "none"
                snap.notes.append("no history for ETA")
    return snap


def _format_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "unknown"
    seconds = max(0.0, seconds)
    if seconds < 120:
        return f"{seconds:.0f}s"
    minutes, rem = divmod(seconds, 60)
    if minutes < 120:
        return f"{int(minutes)}m{rem:02.0f}s"
    hours, minutes = divmod(minutes, 60)
    return f"{int(hours)}h{int(minutes):02d}m"


def render_snapshot(snap: WatchSnapshot) -> str:
    """One human line per snapshot (the watch loop's output unit)."""
    if snap.state == "missing":
        return "watch: " + "; ".join(snap.notes or ["run directory is empty"])
    bar_width = 20
    filled = (
        int(bar_width * snap.done / snap.total) if snap.total else bar_width
    )
    bar = "#" * filled + "-" * (bar_width - filled)
    parts = [
        f"[{bar}] {snap.done}/{snap.total}",
        f"state={snap.state}",
    ]
    if snap.phase and snap.state == "running":
        parts.append(f"phase={snap.phase}")
    if snap.state in ("running", "stalled"):
        if snap.eta_seconds is not None:
            parts.append(
                f"eta={_format_eta(snap.eta_seconds)} ({snap.eta_source})"
            )
        elif snap.pending:
            parts.append("eta=unknown (no history)")
        if snap.idle_seconds is not None:
            parts.append(f"idle={snap.idle_seconds:.0f}s")
    if snap.failures:
        parts.append(f"failures={snap.failures}")
    if snap.error:
        parts.append(f"error={snap.error}")
    line = "watch: " + "  ".join(parts)
    if snap.state == "stalled":
        line += "\nwatch: *** STALLED — " + "; ".join(
            note for note in snap.notes if "timeout" in note
        ) + " ***"
    return line


def watch(
    run_dir: os.PathLike,
    ledger_path: Optional[os.PathLike] = None,
    stall_timeout: float = DEFAULT_STALL_TIMEOUT,
    interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    once: bool = False,
    stream=None,
    max_polls: Optional[int] = None,
) -> int:
    """Tail a run directory until it reaches a terminal state.

    Prints one status line per poll; returns the snapshot's exit code
    (0 finished, 1 interrupted/failed, 2 missing, 3 stalled).  ``once``
    takes a single snapshot and returns — the scriptable form CI and the
    tests use.  ``max_polls`` bounds the loop for tests.
    """
    stream = stream if stream is not None else sys.stdout
    resolved = (
        Path(ledger_path) if ledger_path is not None
        else default_ledger_path(run_dir)
    )
    ledger_state = (
        BenchLedger(resolved).load()
        if resolved is not None and Path(resolved).exists() else None
    )
    polls = 0
    while True:
        snap = snapshot(
            run_dir, ledger=ledger_state, stall_timeout=stall_timeout
        )
        print(render_snapshot(snap), file=stream, flush=True)
        polls += 1
        terminal = snap.state in (
            "finished", "interrupted", "failed", "stalled", "missing"
        )
        if once or terminal or (max_polls is not None and polls >= max_polls):
            return snap.exit_code
        time.sleep(interval)
