"""Append-only run journal: checkpoint/resume for experiment runs.

One ``journal.jsonl`` per run directory.  The first line is a header
record describing the run configuration; every completed task then
appends one ``entry`` record and every permanently failed one (under
``--keep-going``) one ``failure`` record.  A task is one experiment, or
one cell of a celled experiment (numa, tenancy, modern), whose entry is keyed
``<experiment>/<cell id>`` and holds the cell's record.  Appends are
single-``write`` fsync'd lines
(:func:`repro.util.atomic_io.append_line_fsync`), so a SIGKILL
mid-append can tear at most the final line — which the loader detects
and discards.

Entries are keyed by a **content digest** over everything that
determines a task's output — the task key, the trace length, the
workload subset, a cell's whole content, and the stream cache's
:data:`~repro.cache.stream_cache.SCHEMA_VERSION` (the same version that
invalidates on-disk stream artefacts when simulation semantics change).
``--resume`` only trusts a journal entry whose digest matches the
resuming run's configuration; anything else is silently re-run.

Record shapes::

    {"journal": {"version": 1, "trace_length": ..., "workloads": [...],
                 "schema": ...}}
    {"entry": {"experiment": "fig11d", "digest": "...", "elapsed": 1.2,
               "attempts": 1, "result": {"experiment": ..., "headers":
               [...], "rows": [...], "notes": ...}}}
    {"failure": {"experiment": "numa", "stage": "experiment", "site":
                 ..., "error_type": ..., "message": ..., "attempts": 3,
                 "seed": ...}}
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.util.atomic_io import append_line_fsync

#: Bump when the journal record shapes change incompatibly.
JOURNAL_VERSION = 1

#: The journal file name inside a run directory.
JOURNAL_NAME = "journal.jsonl"

#: The other artefacts a run directory may hold, all written by the
#: runner or ``repro.cli report`` (the journal is the only append-only
#: one; the rest are atomic whole-file writes):
#: merged metrics registry + run summary (``--run-dir``, at run end).
METRICS_NAME = "metrics.json"
#: per-table walk profile (written when the run was profiled).
PROFILE_NAME = "walk_profile.json"
#: Chrome trace-event span timeline (``--profile-out`` default name).
TRACE_NAME = "trace.json"
#: rendered run report and its machine-readable sidecar.
REPORT_NAME = "report.md"
REPORT_SIDECAR_NAME = "report.json"


def task_digest(
    key: str,
    trace_length: int,
    workloads: Optional[Sequence[str]] = None,
    cell: Optional[Dict[str, object]] = None,
) -> str:
    """Content digest of one experiment task's inputs.

    ``cell`` is a celled experiment's whole cell, so a cell whose inputs
    changed (its table list, say) never satisfies a resume.  Folds in
    the stream cache's schema version so journals written under older
    simulation semantics can never satisfy one either.
    """
    from repro.cache.stream_cache import SCHEMA_VERSION

    payload = json.dumps(
        {
            "experiment": key,
            "trace_length": int(trace_length),
            "workloads": sorted(workloads) if workloads else None,
            "schema": SCHEMA_VERSION,
            "journal": JOURNAL_VERSION,
            **({} if cell is None else {"cell": cell}),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class JournalState:
    """Everything a loaded journal knows."""

    header: Dict[str, object] = field(default_factory=dict)
    #: experiment id → its latest entry record (digest, result, ...).
    entries: Dict[str, Dict[str, object]] = field(default_factory=dict)
    failures: List[Dict[str, object]] = field(default_factory=list)
    #: Torn/undecodable lines skipped during the load (crash artefacts).
    torn_lines: int = 0

    def result_for(self, key: str, digest: str) -> Optional[Dict[str, object]]:
        """The journaled result dict for ``key`` iff its digest matches."""
        entry = self.entries.get(key)
        if entry is None or entry.get("digest") != digest:
            return None
        result = entry.get("result")
        return result if isinstance(result, dict) else None


class RunJournal:
    """The append-only journal of one run directory."""

    def __init__(self, run_dir: os.PathLike):
        self.run_dir = Path(run_dir)
        self.path = self.run_dir / JOURNAL_NAME

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def ensure_header(self, config: Dict[str, object]) -> None:
        """Write the header record if this journal is new."""
        if self.path.exists():
            return
        record = {"journal": {"version": JOURNAL_VERSION, **config}}
        append_line_fsync(self.path, json.dumps(record, sort_keys=True))

    def append_result(
        self,
        key: str,
        digest: str,
        result: Dict[str, object],
        elapsed: float,
        attempts: int = 1,
    ) -> None:
        """Durably record one completed experiment."""
        record = {
            "entry": {
                "experiment": key,
                "digest": digest,
                "elapsed": round(float(elapsed), 6),
                "attempts": int(attempts),
                "result": result,
            }
        }
        append_line_fsync(self.path, json.dumps(record, sort_keys=True))

    def append_failure(self, failure: Dict[str, object]) -> None:
        """Durably record one permanently failed experiment."""
        append_line_fsync(
            self.path, json.dumps({"failure": failure}, sort_keys=True)
        )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def load(self) -> JournalState:
        """Parse the journal, tolerating a torn final line."""
        state = JournalState()
        if not self.path.exists():
            return state
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    state.torn_lines += 1
                    continue
                if not isinstance(record, dict):
                    state.torn_lines += 1
                elif "journal" in record:
                    state.header = dict(record["journal"])
                elif "entry" in record:
                    entry = record["entry"]
                    state.entries[str(entry.get("experiment"))] = entry
                elif "failure" in record:
                    state.failures.append(dict(record["failure"]))
                else:
                    state.torn_lines += 1
        return state

    def completed_count(self) -> int:
        """Completed-experiment entries currently journaled."""
        return len(self.load().entries)

    def summary(self) -> Dict[str, object]:
        """One JSON-safe digest of the journal, for the run report.

        Carries the header configuration, the completed experiments (in
        journal order, with elapsed seconds and attempt counts), the
        failure records, and the torn-line count — everything the report
        needs without re-exposing the full result payloads.
        """
        state = self.load()
        return {
            "header": dict(state.header),
            "completed": [
                {
                    "experiment": key,
                    "elapsed": entry.get("elapsed"),
                    "attempts": entry.get("attempts"),
                }
                for key, entry in state.entries.items()
            ],
            "failures": [dict(failure) for failure in state.failures],
            "torn_lines": state.torn_lines,
        }
