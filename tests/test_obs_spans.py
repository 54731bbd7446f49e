"""Span recording, Chrome trace export/load, and nesting validation."""

import json
import os

import pytest

from repro.obs.spans import (
    SpanRecord,
    SpanRecorder,
    active_recorder,
    export_chrome_trace,
    install_recorder,
    load_chrome_trace,
    record_span,
    record_spans,
    to_chrome_events,
    uninstall_recorder,
    validate_nesting,
)


@pytest.fixture(autouse=True)
def _no_ambient_recorder():
    uninstall_recorder()
    yield
    uninstall_recorder()


def _span(name, start, duration, pid=1, tid=1, depth=0):
    return SpanRecord(
        name=name, category="runner", start_us=start, duration_us=duration,
        pid=pid, tid=tid, depth=depth,
    )


class TestSpanRecorder:
    def test_begin_end_nesting_depths(self):
        recorder = SpanRecorder()
        assert recorder.begin("run") == 0
        assert recorder.begin("phase:prewarm", category="phase") == 1
        inner = recorder.end()
        outer = recorder.end()
        assert inner.name == "phase:prewarm" and inner.depth == 1
        assert outer.name == "run" and outer.depth == 0
        assert inner.start_us >= outer.start_us
        assert inner.end_us <= outer.end_us + 1  # clock granularity slack
        assert recorder.open_spans == 0
        assert validate_nesting(recorder.spans) == []

    def test_end_without_begin_raises(self):
        with pytest.raises(RuntimeError):
            SpanRecorder().end()

    def test_span_context_manager_closes_on_error(self):
        recorder = SpanRecorder()
        with pytest.raises(ValueError):
            with recorder.span("task:x", category="experiment"):
                raise ValueError("boom")
        assert recorder.open_spans == 0
        assert [s.name for s in recorder.spans] == ["task:x"]

    def test_extend_folds_spans_in(self):
        source = SpanRecorder()
        with source.span("a"):
            pass
        recorder = SpanRecorder()
        recorder.extend(source.spans)
        assert [s.name for s in recorder.spans] == ["a"]

    def test_record_spans_restores_the_previous_recorder(self):
        outer = install_recorder(SpanRecorder())
        with record_spans() as inner:
            assert active_recorder() is inner
            with record_span("task:x"):
                pass
        assert active_recorder() is outer
        assert [s.name for s in inner.spans] == ["task:x"]
        assert outer.spans == []

    def test_record_span_is_noop_without_recorder(self):
        assert active_recorder() is None
        with record_span("stage:miss_stream") as recorder:
            assert recorder is None

    def test_record_span_uses_installed_recorder(self):
        recorder = install_recorder(SpanRecorder())
        with record_span("stage:miss_stream", category="stage", tlb="single"):
            pass
        uninstall_recorder(recorder)
        assert [s.name for s in recorder.spans] == ["stage:miss_stream"]
        assert recorder.spans[0].args == {"tlb": "single"}
        # Uninstalling a specific recorder only removes that recorder.
        other = install_recorder(SpanRecorder())
        uninstall_recorder(recorder)
        assert active_recorder() is other


class TestChromeTrace:
    def test_round_trips_through_trace_file(self, tmp_path):
        spans = [
            _span("run", 100, 900, pid=10),
            _span("task:fig11d", 200, 300, pid=10, depth=1),
            _span("task:table1", 150, 400, pid=77),
        ]
        path = export_chrome_trace(spans, tmp_path / "trace.json",
                                   parent_pid=10)
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        metadata = [e for e in document["traceEvents"] if e["ph"] == "M"]
        names = {e["pid"]: e["args"]["name"] for e in metadata}
        assert names[10] == "repro runner"
        assert names[77] == "repro worker 77"
        loaded = load_chrome_trace(path)
        assert {(s.name, s.start_us, s.duration_us) for s in loaded} == {
            ("run", 100, 900), ("task:fig11d", 200, 300),
            ("task:table1", 150, 400),
        }
        # Depth is reconstructed from containment per track.
        depths = {s.name: s.depth for s in loaded}
        assert depths == {"run": 0, "task:fig11d": 1, "task:table1": 0}

    def test_args_are_stringified_in_events(self):
        span = SpanRecord(
            name="run", category="run", start_us=0, duration_us=1,
            pid=1, tid=1, depth=0, args={"jobs": 4},
        )
        event = span.to_chrome_event()
        assert event["ph"] == "X"
        assert event["args"] == {"jobs": "4"}
        assert json.loads(json.dumps(to_chrome_events([span]))) is not None

    def test_record_round_trips_as_dict(self):
        span = SpanRecord(
            name="phase:prewarm", category="phase", start_us=5,
            duration_us=7, pid=2, tid=3, depth=1, args={"k": "v"},
        )
        assert SpanRecord.from_dict(span.as_dict()) == span


class TestValidateNesting:
    def test_accepts_proper_hierarchy_and_siblings(self):
        spans = [
            _span("run", 0, 100),
            _span("a", 10, 20, depth=1),
            _span("b", 40, 20, depth=1),  # sibling after a closed
            _span("other-track", 0, 1000, pid=2),
        ]
        assert validate_nesting(spans) == []

    def test_flags_partial_overlap(self):
        spans = [
            _span("a", 0, 50),
            _span("b", 25, 50),  # overlaps a's tail without nesting
        ]
        problems = validate_nesting(spans)
        assert len(problems) == 1
        assert "overflows" in problems[0]

    def test_real_recorder_output_validates(self):
        recorder = SpanRecorder()
        with recorder.span("run"):
            for name in ("phase:prewarm", "phase:experiments"):
                with recorder.span(name, category="phase"):
                    with recorder.span("task:x", category="experiment"):
                        pass
        assert validate_nesting(recorder.spans) == []
        assert all(s.pid == os.getpid() for s in recorder.spans)
