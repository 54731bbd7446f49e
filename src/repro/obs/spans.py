"""Hierarchical span tracing exported as Chrome trace-event JSON.

A :class:`SpanRecorder` captures nested wall-clock spans — the runner
wraps its DAG as ``run → phase → task → stage`` — in both the parent
process and every worker.  Spans carry **epoch-based** microsecond
timestamps, so spans recorded in different processes on one machine
share a time base and render as aligned tracks (one per worker PID) when
the merged trace is loaded into Perfetto or ``chrome://tracing``.

Protocol:

- the parent installs a recorder (:func:`install_recorder`) and emits
  its own spans via :func:`record_span` / :meth:`SpanRecorder.begin`;
- each runner task, in the parent or a worker, runs under a fresh
  recorder (:func:`record_spans`), and ships its completed
  :class:`SpanRecord` list back with the task result (records are plain
  picklable dataclasses);
- the parent folds a successful task's spans in with
  :meth:`SpanRecorder.extend` and finally writes everything with
  :func:`export_chrome_trace`.

With no recorder installed, :func:`record_span` is a no-op context
manager — instrumentation points (phase timers, the stream-cache stage
hook) cost one module-attribute check.

:func:`validate_nesting` is the correctness anchor: on every
``(pid, tid)`` track, each span must lie fully inside the enclosing
span at the recorded depth — the property the run-report tests assert
over real profiled runs.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Trace-event timestamps are microseconds.
_US = 1_000_000


#: This process's one epoch ↔ ``perf_counter`` mapping (see
#: :func:`_timestamp_us`).
_ANCHOR = (time.time_ns() // 1_000, time.perf_counter())


def _timestamp_us() -> int:
    """Epoch microseconds via the monotonic clock.

    Every boundary in the process comes from the one anchor, so spans
    from different recorders (a task's inside the runner's phase) nest
    exactly; independent ``time_ns`` reads could be off by a few
    microseconds of cross-clock jitter.
    """
    epoch_us, perf = _ANCHOR
    return epoch_us + int((time.perf_counter() - perf) * _US)


def _tid() -> int:
    get_native = getattr(threading, "get_native_id", None)
    return get_native() if get_native is not None else 1


@dataclass
class SpanRecord:
    """One completed span (picklable across the worker pool)."""

    name: str
    category: str
    start_us: int  # epoch microseconds (cross-process time base)
    duration_us: int
    pid: int
    tid: int
    depth: int
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def end_us(self) -> int:
        return self.start_us + self.duration_us

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "category": self.category,
            "start_us": self.start_us,
            "duration_us": self.duration_us,
            "pid": self.pid,
            "tid": self.tid,
            "depth": self.depth,
            "args": dict(self.args),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "SpanRecord":
        return cls(
            name=str(doc["name"]),
            category=str(doc.get("category", "runner")),
            start_us=int(doc["start_us"]),  # type: ignore[arg-type]
            duration_us=int(doc["duration_us"]),  # type: ignore[arg-type]
            pid=int(doc.get("pid", 0)),  # type: ignore[arg-type]
            tid=int(doc.get("tid", 0)),  # type: ignore[arg-type]
            depth=int(doc.get("depth", 0)),  # type: ignore[arg-type]
            args=dict(doc.get("args", {})),  # type: ignore[arg-type]
        )

    def to_chrome_event(self) -> Dict[str, object]:
        """This span as one Chrome trace-event ``"ph": "X"`` record."""
        event: Dict[str, object] = {
            "name": self.name,
            "cat": self.category,
            "ph": "X",
            "ts": self.start_us,
            "dur": self.duration_us,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.args:
            event["args"] = {k: str(v) for k, v in self.args.items()}
        return event


class SpanRecorder:
    """Collects completed spans; tracks the open-span stack for nesting.

    Every boundary comes from the process's one epoch-anchored monotonic
    clock (:func:`_timestamp_us`), so a child closed before its parent
    can never report a later end, in this recorder or another.
    """

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        #: Open spans: (name, category, start_us, args).
        self._open: List[Tuple[str, str, int, Dict[str, object]]] = []

    # ------------------------------------------------------------------
    def begin(self, name: str, category: str = "runner", **args: object) -> int:
        """Open a nested span; returns its depth (0 is the root)."""
        depth = len(self._open)
        self._open.append((name, category, _timestamp_us(), dict(args)))
        return depth

    def end(self) -> SpanRecord:
        """Close the innermost open span and record it."""
        if not self._open:
            raise RuntimeError("SpanRecorder.end() with no open span")
        name, category, start_us, args = self._open.pop()
        duration_us = max(0, _timestamp_us() - start_us)
        record = SpanRecord(
            name=name, category=category, start_us=start_us,
            duration_us=duration_us, pid=os.getpid(), tid=_tid(),
            depth=len(self._open), args=args,
        )
        self.spans.append(record)
        return record

    @contextmanager
    def span(
        self, name: str, category: str = "runner", **args: object
    ) -> Iterator["SpanRecorder"]:
        """``with recorder.span("task:fig11d"):`` — scoped begin/end."""
        self.begin(name, category, **args)
        try:
            yield self
        finally:
            self.end()

    @property
    def open_spans(self) -> int:
        """Currently open (unclosed) spans."""
        return len(self._open)

    # ------------------------------------------------------------------
    def extend(self, spans: Iterable[SpanRecord]) -> None:
        """Fold spans recorded elsewhere (another recorder) in."""
        self.spans.extend(spans)


# ---------------------------------------------------------------------------
# Chrome trace-event export
# ---------------------------------------------------------------------------
def to_chrome_events(
    spans: Sequence[SpanRecord], parent_pid: Optional[int] = None
) -> List[Dict[str, object]]:
    """Trace-event records: one ``X`` event per span plus track metadata.

    ``process_name`` metadata labels the exporting process as the runner
    and every other PID as a worker, so Perfetto's track names explain
    themselves.
    """
    if parent_pid is None:
        parent_pid = os.getpid()
    events: List[Dict[str, object]] = []
    for pid in sorted({span.pid for span in spans}):
        label = "repro runner" if pid == parent_pid else f"repro worker {pid}"
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": label},
        })
    events.extend(
        span.to_chrome_event()
        for span in sorted(spans, key=lambda s: (s.pid, s.tid, s.start_us))
    )
    return events


def export_chrome_trace(
    spans: Sequence[SpanRecord],
    path: os.PathLike,
    parent_pid: Optional[int] = None,
) -> Path:
    """Write spans as a self-contained Chrome trace-event JSON file.

    The output loads directly in Perfetto (https://ui.perfetto.dev) or
    ``chrome://tracing``; worker PIDs appear as separate tracks.
    """
    from repro.util.atomic_io import atomic_writer

    target = Path(path)
    document = {
        "traceEvents": to_chrome_events(spans, parent_pid=parent_pid),
        "displayTimeUnit": "ms",
    }
    with atomic_writer(target) as handle:
        json.dump(document, handle, sort_keys=True)
        handle.write("\n")
    return target


def load_chrome_trace(path: os.PathLike) -> List[SpanRecord]:
    """Rebuild :class:`SpanRecord` objects from an exported trace file.

    Metadata events are skipped; depth is not stored in the trace-event
    format, so it is reconstructed per track from interval containment.
    """
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    spans: List[SpanRecord] = []
    for event in document.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        spans.append(SpanRecord(
            name=str(event.get("name", "")),
            category=str(event.get("cat", "runner")),
            start_us=int(event["ts"]),
            duration_us=int(event.get("dur", 0)),
            pid=int(event.get("pid", 0)),
            tid=int(event.get("tid", 0)),
            depth=0,
            args=dict(event.get("args", {})),
        ))
    # Reconstruct depths: within a track, a span's depth is the number of
    # spans strictly containing it.
    by_track: Dict[Tuple[int, int], List[SpanRecord]] = {}
    for span in spans:
        by_track.setdefault((span.pid, span.tid), []).append(span)
    for track in by_track.values():
        track.sort(key=lambda s: (s.start_us, -s.duration_us))
        stack: List[SpanRecord] = []
        for span in track:
            while stack and span.start_us >= stack[-1].end_us:
                stack.pop()
            span.depth = len(stack)
            stack.append(span)
    return spans


def validate_nesting(spans: Sequence[SpanRecord]) -> List[str]:
    """Check that spans nest properly per track; returns violations.

    Within one ``(pid, tid)`` track, spans sorted by start must form a
    proper hierarchy: every span either starts after the previous open
    span ended, or lies entirely inside it.  An empty return value means
    the trace nests correctly.
    """
    problems: List[str] = []
    by_track: Dict[Tuple[int, int], List[SpanRecord]] = {}
    for span in spans:
        by_track.setdefault((span.pid, span.tid), []).append(span)
    for (pid, tid), track in sorted(by_track.items()):
        track = sorted(track, key=lambda s: (s.start_us, -s.duration_us))
        stack: List[SpanRecord] = []
        for span in track:
            while stack and span.start_us >= stack[-1].end_us:
                stack.pop()
            if stack and span.end_us > stack[-1].end_us:
                problems.append(
                    f"track {pid}/{tid}: span {span.name!r} "
                    f"[{span.start_us}, {span.end_us}] overflows enclosing "
                    f"{stack[-1].name!r} [{stack[-1].start_us}, "
                    f"{stack[-1].end_us}]"
                )
            stack.append(span)
    return problems


# ---------------------------------------------------------------------------
# The active recorder (module global: the hook is one attribute check)
# ---------------------------------------------------------------------------
_ACTIVE: Optional[SpanRecorder] = None


def install_recorder(recorder: SpanRecorder) -> SpanRecorder:
    """Make ``recorder`` receive every subsequent span in this process."""
    global _ACTIVE
    _ACTIVE = recorder
    return recorder


def uninstall_recorder(recorder: Optional[SpanRecorder] = None) -> None:
    """Stop recording (pass a recorder to uninstall only if still active)."""
    global _ACTIVE
    if recorder is None or _ACTIVE is recorder:
        _ACTIVE = None


def active_recorder() -> Optional[SpanRecorder]:
    """The installed recorder, if any."""
    return _ACTIVE


@contextmanager
def record_spans() -> Iterator[SpanRecorder]:
    """``with record_spans() as recorder:`` — a fresh recorder receives
    the block's spans; on exit the previously installed one is back."""
    global _ACTIVE
    recorder = SpanRecorder()
    previous, _ACTIVE = _ACTIVE, recorder
    try:
        yield recorder
    finally:
        _ACTIVE = previous


@contextmanager
def record_span(
    name: str, category: str = "runner", **args: object
) -> Iterator[Optional[SpanRecorder]]:
    """Scoped span into the active recorder; no-op when none installed.

    The recorder is resolved once at entry, so a recorder installed or
    removed mid-span cannot unbalance the begin/end pairing.
    """
    recorder = _ACTIVE
    if recorder is None:
        yield None
        return
    recorder.begin(name, category, **args)
    try:
        yield recorder
    finally:
        recorder.end()
