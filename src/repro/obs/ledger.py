"""Cross-run benchmark ledger: the repository's performance memory.

Every benchmark artefact (``BENCH_numa.json``, ``BENCH_batch.json``,
``BENCH_tenancy.json``, ``BENCH_modern.json``) and every run directory's
``metrics.json``/``report.json`` sidecars flatten into **ledger rows**
keyed by ``(family, config, metric)`` and stamped with the git SHA, the
replay engine, ``--jobs``, the sweep seed, and the trace length.  Rows
append to one schema-versioned JSONL ledger (fsync'd batches through
:func:`repro.util.atomic_io.append_lines_fsync`, torn-tail tolerant like
the run journal), so the performance trajectory of the repo accumulates
across runs instead of evaporating with each CI workspace.

On top of the history sit **noise bands**: for one ``(family, config,
metric)`` series, the expected range is ``median ± max(k·MAD,
rel_floor·|median|, abs_floor)`` over the last *N* entries.  Fully
deterministic metrics (the simulated-cycle families) have ``MAD == 0``
and collapse to near-exact equality; wall-clock metrics widen to their
measured noise.  ``benchmarks/bench_gate.py --ledger`` gates fresh
documents against these bands, falling back to the committed single
baseline while history is thin.

**Improvement events** are part of the schema: when a gated metric
improves beyond its band/threshold, the gate records an ``event`` row.
Band derivation restarts *after* the latest improvement event for that
key, so an intentional speedup refreshes the band instead of inflating
MAD (and therefore tolerated drift) forever.

Two ingestion invariants the tests pin down:

- **jobs-invariance** — bench documents are deterministic for any
  ``--jobs``, and the stamps fold in nothing wall-clock by default, so
  ingesting a ``--jobs 1`` and a ``--jobs N`` document produces
  byte-identical rows;
- **idempotence** — every ingest carries a content-digest ``run_id``;
  re-appending an already-ingested (document, stamp) pair is skipped, so
  replaying a CI step cannot double-weight a band.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.util.atomic_io import append_lines_fsync

#: Bump when the row/event record shapes change incompatibly.  Rows with
#: a different version are counted but never enter band derivation.
LEDGER_VERSION = 1

#: Default ledger file name (CI uploads it as an artifact).
LEDGER_NAME = "ledger.jsonl"

#: Environment override for the default ledger location.
LEDGER_ENV = "REPRO_LEDGER"

#: The bench families the ledger understands, in gate order.
BENCH_FAMILIES = ("numa", "batch", "tenancy", "modern")

#: Regression-gated metrics per family: metric name → the direction that
#: is *better* ("lower" or "higher").  Everything else ingested is
#: informational history (trends, ETA) but never trips a gate.
GATED_METRICS: Dict[str, Dict[str, str]] = {
    "numa": {
        "none cyc/miss": "lower",
        "mitosis cyc/miss": "lower",
        "migrate cyc/miss": "lower",
    },
    # Wall-clock milliseconds are machine-specific, so the batch family
    # gates only the scalar/batch *ratio* (and bench_gate.py keeps its
    # absolute speedup floor).
    "batch": {"aggregate_speedup": "higher"},
    "tenancy": {
        "p50_cycles": "lower",
        "p95_cycles": "lower",
        "p99_cycles": "lower",
        "worst_tenant_p99": "lower",
        "lines_per_miss": "lower",
    },
    "modern": {
        "lines_per_miss": "lower",
        "size_vs_hashed": "lower",
    },
}

#: Band geometry defaults (see :func:`noise_band`).
DEFAULT_BAND_K = 4.0
DEFAULT_BAND_FLOOR = 0.01
DEFAULT_BAND_WINDOW = 20
#: Entries needed before bands replace the committed-baseline fallback.
DEFAULT_MIN_HISTORY = 3


# ---------------------------------------------------------------------------
# Stamps and rows
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Stamp:
    """Run context attached to every ingested row.

    Everything here is either caller-supplied or content-derived — a
    default ``Stamp()`` stamps nothing volatile, which is what makes
    ingestion jobs- and replay-invariant.  ``recorded_at`` is the one
    wall-clock field and defaults to absent.
    """

    git_sha: Optional[str] = None
    engine: Optional[str] = None
    jobs: Optional[int] = None
    seed: Optional[object] = None
    recorded_at: Optional[float] = None


def git_sha(cwd: Optional[os.PathLike] = None) -> Optional[str]:
    """The short git SHA of ``cwd``'s checkout, or None outside git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, cwd=cwd, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def current_stamp(
    engine: Optional[str] = None,
    jobs: Optional[int] = None,
    seed: Optional[object] = None,
    cwd: Optional[os.PathLike] = None,
) -> Stamp:
    """A stamp for "this run, here, now" (used by ``--record`` paths)."""
    return Stamp(
        git_sha=git_sha(cwd), engine=engine, jobs=jobs, seed=seed,
        recorded_at=time.time(),
    )


@dataclass(frozen=True)
class LedgerRow:
    """One ``(family, config, metric) = value`` observation."""

    family: str
    config: str
    metric: str
    value: float
    run_id: str = ""
    source: str = ""
    trace_length: Optional[int] = None
    git_sha: Optional[str] = None
    engine: Optional[str] = None
    jobs: Optional[int] = None
    seed: Optional[object] = None
    recorded_at: Optional[float] = None

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.family, self.config, self.metric)

    def as_dict(self) -> Dict[str, object]:
        return {
            "version": LEDGER_VERSION,
            "family": self.family,
            "config": self.config,
            "metric": self.metric,
            "value": self.value,
            "run_id": self.run_id,
            "source": self.source,
            "trace_length": self.trace_length,
            "git_sha": self.git_sha,
            "engine": self.engine,
            "jobs": self.jobs,
            "seed": self.seed,
            "recorded_at": self.recorded_at,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "LedgerRow":
        return cls(
            family=str(doc.get("family", "")),
            config=str(doc.get("config", "")),
            metric=str(doc.get("metric", "")),
            value=float(doc.get("value", 0.0)),
            run_id=str(doc.get("run_id", "")),
            source=str(doc.get("source", "")),
            trace_length=(
                int(doc["trace_length"])
                if doc.get("trace_length") is not None else None
            ),
            git_sha=doc.get("git_sha"),
            engine=doc.get("engine"),
            jobs=(
                int(doc["jobs"]) if doc.get("jobs") is not None else None
            ),
            seed=doc.get("seed"),
            recorded_at=doc.get("recorded_at"),
        )


@dataclass(frozen=True)
class LedgerEvent:
    """A band-affecting event; currently only ``improvement``.

    An improvement event marks "the expected value of this key moved on
    purpose": history *before* the event is excluded from band
    derivation for that key.
    """

    kind: str
    family: str
    config: str
    metric: str
    old: Optional[float] = None
    new: Optional[float] = None
    note: str = ""
    git_sha: Optional[str] = None
    recorded_at: Optional[float] = None

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.family, self.config, self.metric)

    def as_dict(self) -> Dict[str, object]:
        return {
            "version": LEDGER_VERSION,
            "kind": self.kind,
            "family": self.family,
            "config": self.config,
            "metric": self.metric,
            "old": self.old,
            "new": self.new,
            "note": self.note,
            "git_sha": self.git_sha,
            "recorded_at": self.recorded_at,
        }


# ---------------------------------------------------------------------------
# Flattening documents into rows
# ---------------------------------------------------------------------------
def _numeric_items(
    record: Mapping[str, object], skip: Sequence[str] = ()
) -> List[Tuple[str, float]]:
    """Sorted (name, value) numeric fields of one record (bools excluded)."""
    items = []
    for name in sorted(record):
        if name in skip:
            continue
        value = record[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        items.append((name, float(value)))
    return items


def compute_run_id(
    family: str, doc: Mapping[str, object], stamp: Stamp
) -> str:
    """Content digest identifying one (document, stamp) ingest.

    ``recorded_at`` is deliberately excluded: re-ingesting the same
    document under the same code/configuration at a later time is a
    duplicate, not new history.
    """
    payload = json.dumps(
        {
            "family": family,
            "doc": doc,
            "stamp": {
                "git_sha": stamp.git_sha,
                "engine": stamp.engine,
                "jobs": stamp.jobs,
                "seed": stamp.seed,
            },
            "version": LEDGER_VERSION,
        },
        sort_keys=True, default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _numa_rows(doc: Mapping[str, object]) -> List[Tuple[str, str, float]]:
    rows = []
    for record in doc.get("configs", []):
        config = f"{record['workload/table']}/{record['nodes']}n"
        for metric, value in _numeric_items(record, skip=("nodes",)):
            rows.append((config, metric, value))
    return rows


def _batch_rows(doc: Mapping[str, object]) -> List[Tuple[str, str, float]]:
    rows = []
    for metric in ("aggregate_speedup", "scalar_ms", "batch_ms"):
        if isinstance(doc.get(metric), (int, float)):
            rows.append(("*", metric, float(doc[metric])))
    for record in doc.get("configs", []):
        config = f"{record['workload']}/{record['tlb']}/{record['table']}"
        for metric, value in _numeric_items(record):
            rows.append((config, metric, value))
    return rows


def _tenancy_rows(doc: Mapping[str, object]) -> List[Tuple[str, str, float]]:
    rows = []
    for record in doc.get("configs", []):
        config = str(record["config"])
        for metric, value in _numeric_items(
            record, skip=("tenants", "footprint_mb")
        ):
            rows.append((config, metric, value))
    return rows


def _modern_rows(doc: Mapping[str, object]) -> List[Tuple[str, str, float]]:
    rows = []
    for record in doc.get("configs", []):
        config = str(record["config"])
        for metric, value in _numeric_items(
            record, skip=("footprint_mb",)
        ):
            rows.append((config, metric, value))
        for table in record.get("tables", []):
            sub = f"{config}/{table['table']}"
            for metric, value in _numeric_items(table):
                rows.append((sub, metric, value))
    return rows


_FAMILY_FLATTENERS = {
    "numa": _numa_rows,
    "batch": _batch_rows,
    "tenancy": _tenancy_rows,
    "modern": _modern_rows,
}


def rows_from_bench(
    doc: Mapping[str, object],
    source: str = "",
    stamp: Optional[Stamp] = None,
) -> List[LedgerRow]:
    """Flatten one ``BENCH_*.json`` document into ledger rows.

    The family comes from the document's ``benchmark`` field; seed and
    trace length come from the document (content-derived, so rows stay
    jobs-invariant); ``stamp`` supplies the rest.
    """
    family = str(doc.get("benchmark", ""))
    flatten = _FAMILY_FLATTENERS.get(family)
    if flatten is None:
        raise ValueError(
            f"unknown bench family {family!r}; "
            f"known: {sorted(_FAMILY_FLATTENERS)}"
        )
    stamp = stamp if stamp is not None else Stamp()
    if stamp.seed is None and "seed" in doc:
        stamp = replace(stamp, seed=doc["seed"])
    run_id = compute_run_id(family, doc, stamp)
    trace_length = doc.get("trace_length")
    return [
        LedgerRow(
            family=family, config=config, metric=metric, value=value,
            run_id=run_id, source=source or f"BENCH_{family}.json",
            trace_length=(
                int(trace_length) if trace_length is not None else None
            ),
            git_sha=stamp.git_sha, engine=stamp.engine, jobs=stamp.jobs,
            seed=stamp.seed, recorded_at=stamp.recorded_at,
        )
        for config, metric, value in flatten(doc)
    ]


#: ``metrics.json`` run-summary scalars worth trending (config "*").
_RUN_SUMMARY_METRICS = (
    "wall_seconds", "utilisation", "busy_seconds",
    "prewarm_wall_seconds", "experiments_wall_seconds",
    "prewarm_seconds", "task_retries", "task_timeouts", "resumed_skips",
)

#: ``walk_profile.json`` per-table scalars worth trending.
_PROFILE_METRICS = ("walks", "faults", "total_lines", "total_probes")


def rows_from_run_dir(
    run_dir: os.PathLike, stamp: Optional[Stamp] = None
) -> List[LedgerRow]:
    """Flatten a run directory's artefacts into ledger rows.

    Ingests the ``metrics.json`` run summary (family ``run``: wall
    seconds and utilisation at config ``*``, per-experiment task seconds
    — the history ``repro watch`` derives ETAs from), the walk profile
    of ``walk_profile.json`` (family ``profile``), and every
    ``BENCH_*.json`` found inside the directory.  Absent artefacts are
    skipped silently — a run dir always yields whatever it can.
    """
    from repro.obs.profile import WalkProfile
    from repro.resilience.journal import (
        METRICS_NAME,
        PROFILE_NAME,
        RunJournal,
    )

    root = Path(run_dir)
    if not root.is_dir():
        raise FileNotFoundError(f"run directory not found: {root}")
    stamp = stamp if stamp is not None else Stamp()
    rows: List[LedgerRow] = []

    trace_length = None
    journal = RunJournal(root)
    if journal.path.exists():
        header = journal.load().header
        if isinstance(header.get("trace_length"), int):
            trace_length = header["trace_length"]

    metrics_path = root / METRICS_NAME
    if metrics_path.exists():
        doc = json.loads(metrics_path.read_text(encoding="utf-8"))
        run = doc.get("run", {})
        run_stamp = replace(
            stamp,
            engine=stamp.engine or run.get("engine"),
            jobs=stamp.jobs if stamp.jobs is not None else run.get("jobs"),
        )
        run_id = compute_run_id("run", doc, run_stamp)

        def run_row(config: str, metric: str, value: float) -> LedgerRow:
            return LedgerRow(
                family="run", config=config, metric=metric, value=value,
                run_id=run_id, source=METRICS_NAME,
                trace_length=trace_length, git_sha=run_stamp.git_sha,
                engine=run_stamp.engine, jobs=run_stamp.jobs,
                seed=run_stamp.seed, recorded_at=run_stamp.recorded_at,
            )

        for metric in _RUN_SUMMARY_METRICS:
            value = run.get(metric)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                rows.append(run_row("*", metric, float(value)))
        for timing in run.get("timings", []):
            key = str(timing.get("experiment"))
            for metric in ("seconds", "cache_hits", "cache_computed"):
                value = timing.get(metric)
                if isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    rows.append(run_row(key, metric, float(value)))

    profile_path = root / PROFILE_NAME
    if profile_path.exists():
        # The per-table mapping a report's sidecar holds, so the rows and
        # their run id are the same before and after ``repro report``.
        profile = WalkProfile.from_dict(
            json.loads(profile_path.read_text(encoding="utf-8"))
        ).as_dict()["tables"]
        run_id = compute_run_id("profile", profile, stamp)
        for table_name, table in profile.items():
            for metric in _PROFILE_METRICS:
                rows.append(LedgerRow(
                    family="profile", config=table_name, metric=metric,
                    value=float(table[metric]), run_id=run_id,
                    source=PROFILE_NAME, trace_length=trace_length,
                    git_sha=stamp.git_sha, engine=stamp.engine,
                    jobs=stamp.jobs, seed=stamp.seed,
                    recorded_at=stamp.recorded_at,
                ))

    for bench_path in sorted(root.glob("BENCH_*.json")):
        doc = json.loads(bench_path.read_text(encoding="utf-8"))
        if isinstance(doc, dict) and doc.get("benchmark"):
            rows.extend(
                rows_from_bench(doc, source=bench_path.name, stamp=stamp)
            )
    return rows


# ---------------------------------------------------------------------------
# Noise bands
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class NoiseBand:
    """``median ± max(k·MAD, rel_floor·|median|, abs_floor)`` over history."""

    median: float
    mad: float
    count: int
    lo: float
    hi: float

    def classify(self, value: float, direction: str) -> str:
        """``"ok"`` | ``"regression"`` | ``"improvement"`` for one value.

        ``direction`` is the *better* direction of the metric: for a
        lower-is-better metric a value above ``hi`` regresses and one
        below ``lo`` improves; higher-is-better mirrors.
        """
        if direction not in ("lower", "higher"):
            raise ValueError(f"direction must be lower|higher, not {direction!r}")
        if self.lo <= value <= self.hi:
            return "ok"
        above = value > self.hi
        if direction == "lower":
            return "regression" if above else "improvement"
        return "improvement" if above else "regression"


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def noise_band(
    values: Sequence[float],
    k: float = DEFAULT_BAND_K,
    rel_floor: float = DEFAULT_BAND_FLOOR,
    abs_floor: float = 0.0,
) -> NoiseBand:
    """The expected band for one metric's history.

    MAD (median absolute deviation from the median) is the robust noise
    estimate — a single outlier run cannot widen the band the way it
    would widen a standard deviation.  The floors keep a fully
    deterministic series (MAD = 0) from demanding bit-exact equality of
    quantities that are rounded for the bench documents.
    """
    if not values:
        raise ValueError("noise_band needs at least one value")
    median = _median(values)
    mad = _median([abs(value - median) for value in values])
    slack = max(k * mad, rel_floor * abs(median), abs_floor)
    return NoiseBand(
        median=median, mad=mad, count=len(values),
        lo=median - slack, hi=median + slack,
    )


# ---------------------------------------------------------------------------
# The ledger file
# ---------------------------------------------------------------------------
@dataclass
class LedgerState:
    """Everything a loaded ledger knows, in append order."""

    rows: List[LedgerRow] = field(default_factory=list)
    events: List[LedgerEvent] = field(default_factory=list)
    #: run_id → number of rows it contributed.
    runs: Dict[str, int] = field(default_factory=dict)
    torn_lines: int = 0
    incompatible: int = 0
    #: Append position of the latest improvement event per key: rows
    #: ingested before it are excluded from that key's band history.
    _resets: Dict[Tuple[str, str, str], int] = field(default_factory=dict)
    _positions: Dict[Tuple[str, str, str], List[Tuple[int, LedgerRow]]] = (
        field(default_factory=dict)
    )

    def add_row(self, row: LedgerRow, position: int) -> None:
        self.rows.append(row)
        self.runs[row.run_id] = self.runs.get(row.run_id, 0) + 1
        self._positions.setdefault(row.key, []).append((position, row))

    def add_event(self, event: LedgerEvent, position: int) -> None:
        self.events.append(event)
        if event.kind == "improvement":
            self._resets[event.key] = position

    def keys(self) -> List[Tuple[str, str, str]]:
        return sorted(self._positions)

    def history(
        self,
        family: str,
        config: str,
        metric: str,
        last: Optional[int] = None,
        trace_length: Optional[int] = None,
        since_reset: bool = True,
    ) -> List[float]:
        """The key's values in append order (oldest first).

        ``trace_length`` filters to comparable runs; ``since_reset``
        (default) starts after the latest improvement event for the key,
        so refreshed expectations do not mix with pre-speedup history.
        """
        key = (family, config, metric)
        reset_at = self._resets.get(key, -1) if since_reset else -1
        values = [
            row.value
            for position, row in self._positions.get(key, [])
            if position > reset_at
            and (trace_length is None or row.trace_length == trace_length)
        ]
        if last is not None and last > 0:
            values = values[-last:]
        return values

    def band_for(
        self,
        family: str,
        config: str,
        metric: str,
        last: int = DEFAULT_BAND_WINDOW,
        trace_length: Optional[int] = None,
        min_history: int = DEFAULT_MIN_HISTORY,
        k: float = DEFAULT_BAND_K,
        rel_floor: float = DEFAULT_BAND_FLOOR,
    ) -> Optional[NoiseBand]:
        """The key's noise band, or None while history is thin."""
        values = self.history(
            family, config, metric, last=last, trace_length=trace_length
        )
        if len(values) < max(1, min_history):
            return None
        return noise_band(values, k=k, rel_floor=rel_floor)


class BenchLedger:
    """One append-only ledger file (JSONL, fsync'd, torn-tail tolerant)."""

    def __init__(self, path: os.PathLike):
        self.path = Path(path)

    def exists(self) -> bool:
        return self.path.exists()

    # -- writing -----------------------------------------------------------
    def append_rows(
        self, rows: Sequence[LedgerRow], skip_duplicates: bool = True
    ) -> int:
        """Append an ingest batch; returns the number of rows written.

        All rows of one call must share a ``run_id`` (one ingest = one
        document).  A run_id already present in the ledger is skipped
        when ``skip_duplicates`` — replaying a CI step is idempotent.
        """
        if not rows:
            return 0
        run_ids = {row.run_id for row in rows}
        if len(run_ids) != 1:
            raise ValueError(
                f"one append_rows call must carry one run_id, got {run_ids}"
            )
        if skip_duplicates and next(iter(run_ids)) in self.load().runs:
            return 0
        lines = [
            json.dumps({"row": row.as_dict()}, sort_keys=True)
            for row in rows
        ]
        append_lines_fsync(self.path, lines)
        return len(rows)

    def append_event(self, event: LedgerEvent) -> None:
        append_lines_fsync(
            self.path,
            [json.dumps({"event": event.as_dict()}, sort_keys=True)],
        )

    # -- reading -----------------------------------------------------------
    def load(self) -> LedgerState:
        """Parse the ledger, tolerating a torn final line."""
        state = LedgerState()
        if not self.path.exists():
            return state
        with self.path.open("r", encoding="utf-8") as handle:
            for position, line in enumerate(handle):
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
                elif "row" in record:
                    row_doc = record["row"]
                    if row_doc.get("version") != LEDGER_VERSION:
                        state.incompatible += 1
                        continue
                    state.add_row(LedgerRow.from_dict(row_doc), position)
                elif "event" in record:
                    event_doc = record["event"]
                    if event_doc.get("version") != LEDGER_VERSION:
                        state.incompatible += 1
                        continue
                    state.add_event(
                        LedgerEvent(
                            kind=str(event_doc.get("kind", "")),
                            family=str(event_doc.get("family", "")),
                            config=str(event_doc.get("config", "")),
                            metric=str(event_doc.get("metric", "")),
                            old=event_doc.get("old"),
                            new=event_doc.get("new"),
                            note=str(event_doc.get("note", "")),
                            git_sha=event_doc.get("git_sha"),
                            recorded_at=event_doc.get("recorded_at"),
                        ),
                        position,
                    )
                else:
                    state.torn_lines += 1
        return state


def default_ledger_path(
    run_dir: Optional[os.PathLike] = None,
) -> Optional[Path]:
    """Resolve the ledger to use when no ``--ledger`` flag was given.

    Precedence: ``$REPRO_LEDGER``, then ``<run_dir>/ledger.jsonl`` when a
    run directory is in play, then ``./ledger.jsonl`` — the last two only
    when they already exist (a default never *creates* history).
    """
    override = os.environ.get(LEDGER_ENV)
    if override:
        return Path(override)
    candidates = []
    if run_dir is not None:
        candidates.append(Path(run_dir) / LEDGER_NAME)
    candidates.append(Path(LEDGER_NAME))
    for candidate in candidates:
        if candidate.exists():
            return candidate
    return None


def expected_task_seconds(
    state: LedgerState, keys: Iterable[str]
) -> Dict[str, float]:
    """Median historical seconds per experiment key (ETA input).

    Keys with no history are simply absent — the watcher falls back to
    current-run throughput and says so.
    """
    expectations: Dict[str, float] = {}
    for key in keys:
        values = state.history("run", key, "seconds")
        if values:
            expectations[key] = _median(values)
    return expectations
