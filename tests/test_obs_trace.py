"""The walk tracer: ring bounds, installation, suppression, JSONL export."""

import json

import pytest

from repro.obs.trace import (
    WalkEvent,
    WalkTracer,
    active_tracer,
    emit,
    install_tracer,
    suppressed,
    trace_walks,
    uninstall_tracer,
)


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    uninstall_tracer()
    yield
    uninstall_tracer()


def record_n(tracer, n, lines=2, fault=False, op="walk"):
    for i in range(n):
        tracer.record("hashed", op, 0x1000 + i, "BASE", lines, 1, fault, 0)


class TestRing:
    def test_capacity_bounds_retention_and_counts_drops(self):
        tracer = WalkTracer(capacity=4)
        record_n(tracer, 10)
        assert len(tracer) == 4
        assert tracer.recorded == 10
        assert tracer.dropped == 6
        # Oldest dropped first: the ring retains the last four sequences.
        assert [event.seq for event in tracer.events()] == [6, 7, 8, 9]

    def test_totals_survive_ring_overflow(self):
        tracer = WalkTracer(capacity=2)
        record_n(tracer, 8, lines=3)
        assert tracer.total_lines == 24  # all 8 events, not just retained
        assert tracer.total_probes == 8

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            WalkTracer(capacity=0)


class TestAbsorb:
    @staticmethod
    def walk(tracer, i):
        """The ``i``-th of a varied walk sequence; the fifth is a group
        of three ring-less walks."""
        if i == 4:
            tracer.record_groups("clustered", "block", "BASE", 2, 1, False,
                                 0, count=3)
        else:
            tracer.record("hashed" if i % 2 else "clustered", "walk",
                          0x1000 + i, "fault" if i == 7 else "BASE",
                          1 + i % 3, 1 + i % 2, i == 7, i % 2)

    def test_split_walks_absorbed_equal_one_tracer(self, tmp_path):
        one = WalkTracer(capacity=4)
        first, second = WalkTracer(capacity=4), WalkTracer(capacity=4)
        for i in range(10):
            self.walk(one, i)
            self.walk(first if i < 6 else second, i)
        merged = WalkTracer(capacity=4)
        merged.absorb(first)
        merged.absorb(second)

        assert merged.events() == one.events()
        assert [event.seq for event in merged] == [8, 9, 10, 11]
        assert (merged.recorded, merged.dropped) == (12, 8)
        assert merged.profile.as_dict() == one.profile.as_dict()
        assert (
            merged.export_jsonl(tmp_path / "merged.jsonl").read_bytes()
            == one.export_jsonl(tmp_path / "one.jsonl").read_bytes()
        )
        assert merged.summary() == one.summary()


class TestReplayLines:
    def test_faulting_walks_charge_no_replay_lines(self):
        tracer = WalkTracer()
        record_n(tracer, 3, lines=5, fault=False)
        record_n(tracer, 2, lines=7, fault=True)
        assert tracer.total_lines == 3 * 5 + 2 * 7
        assert tracer.replay_lines == 3 * 5  # replay charges no fault lines
        assert tracer.faults == 2

    def test_faulting_block_fetches_do_charge(self):
        # replay_misses adds block.cache_lines before its fault check, so
        # the replay-equivalent total must include faulting block ops.
        tracer = WalkTracer()
        record_n(tracer, 2, lines=4, fault=True, op="block")
        assert tracer.replay_lines == 8


class TestInstallation:
    def test_emit_routes_to_active_tracer_only(self):
        tracer = WalkTracer()
        emit("hashed", "walk", 1, "BASE", 1, 1, False, 0)
        assert tracer.recorded == 0  # not installed yet
        install_tracer(tracer)
        assert active_tracer() is tracer
        emit("hashed", "walk", 1, "BASE", 1, 1, False, 0)
        assert tracer.recorded == 1
        uninstall_tracer(tracer)
        assert active_tracer() is None
        emit("hashed", "walk", 1, "BASE", 1, 1, False, 0)
        assert tracer.recorded == 1

    def test_uninstall_of_inactive_tracer_is_a_noop(self):
        active = install_tracer(WalkTracer())
        uninstall_tracer(WalkTracer())  # someone else's tracer
        assert active_tracer() is active

    def test_context_manager_scopes_installation(self):
        for outer in (None, WalkTracer()):
            if outer is not None:
                install_tracer(outer)
            with trace_walks(capacity=16) as tracer:
                assert active_tracer() is tracer
                emit("linear", "walk", 2, "BASE", 1, 1, False, 0)
            assert active_tracer() is outer  # the previous one is back
            assert tracer.recorded == 1
        assert outer.recorded == 0

    def test_tracer_object_is_a_context_manager(self):
        tracer = WalkTracer()
        with tracer:
            assert active_tracer() is tracer
        assert active_tracer() is None

    def test_suppression_silences_nested_emission(self):
        with trace_walks() as tracer:
            with suppressed():
                emit("hashed", "walk", 1, "BASE", 1, 1, False, 0)
                with suppressed():
                    emit("hashed", "walk", 2, "BASE", 1, 1, False, 0)
                emit("hashed", "walk", 3, "BASE", 1, 1, False, 0)
            emit("hashed", "walk", 4, "BASE", 1, 1, False, 0)
        assert tracer.recorded == 1
        assert tracer.events()[0].vpn == 4


class TestExport:
    def test_jsonl_header_plus_events(self, tmp_path):
        tracer = WalkTracer(capacity=4)
        record_n(tracer, 6, lines=2)
        path = tracer.export_jsonl(tmp_path / "trace" / "walks.jsonl")
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])["trace_header"]
        assert header["recorded"] == 6
        assert header["dropped"] == 2
        assert header["retained"] == 4
        assert header["total_lines"] == 12
        events = [json.loads(line) for line in lines[1:]]
        assert len(events) == 4
        assert events[0]["table"] == "hashed"
        assert events[0]["op"] == "walk"
        assert {event["seq"] for event in events} == {2, 3, 4, 5}

    def test_event_json_round_trip(self):
        event = WalkEvent(
            seq=3, table="clustered", op="block", vpn=0x42, kind="BASE",
            lines=2, probes=1, fault=False, node=1,
        )
        assert json.loads(event.to_json()) == {
            "seq": 3, "table": "clustered", "op": "block", "vpn": 0x42,
            "kind": "BASE", "lines": 2, "probes": 1, "fault": False,
            "node": 1,
        }

    def test_summary_mentions_counts(self):
        tracer = WalkTracer()
        record_n(tracer, 3, lines=2, fault=True)
        text = tracer.summary()
        assert "3 events" in text and "6 lines" in text and "3 faults" in text


class TestHookIntegration:
    def test_single_lookup_emits_one_event(self):
        from repro.pagetables.hashed import HashedPageTable

        table = HashedPageTable(num_buckets=16)
        table.insert(0x10, 0x99)
        with trace_walks() as tracer:
            result = table.lookup(0x10)
        assert tracer.recorded == 1
        event = tracer.events()[0]
        assert event.table == table.name
        assert event.vpn == 0x10
        assert event.kind == result.kind.name
        assert not event.fault
        assert event.lines >= 1

    def test_faulting_lookup_emits_fault_event(self):
        from repro.errors import PageFaultError
        from repro.pagetables.hashed import HashedPageTable

        table = HashedPageTable(num_buckets=16)
        with trace_walks() as tracer:
            with pytest.raises(PageFaultError):
                table.lookup(0x123)
        assert tracer.recorded == 1
        assert tracer.events()[0].fault
        assert tracer.events()[0].kind == "fault"
        assert tracer.faults == 1

    def test_composite_table_emits_exactly_one_block_event(self):
        from repro.os.translation_map import TranslationMap
        from repro.pagetables.hashed import HashedPageTable
        from repro.pagetables.strategies import MultiplePageTables
        from repro.workloads.suite import load_workload

        workload = load_workload("mp3d", trace_length=2_000)
        tmap = TranslationMap.from_space(workload.union_space())
        table = MultiplePageTables(
            [HashedPageTable(num_buckets=64), HashedPageTable(num_buckets=64)]
        )
        tmap.populate(table, base_pages_only=True)
        vpbn = table.layout.vpbn(next(iter(workload.union_space().items()))[0])
        with trace_walks() as tracer:
            table.lookup_block(vpbn)
        assert tracer.recorded == 1  # constituents suppressed
        assert tracer.events()[0].op == "block"

    def test_numa_node_is_carried_on_events(self):
        from repro.numa.replication import ReplicatedPageTable
        from repro.numa.topology import PRESETS
        from repro.pagetables.hashed import HashedPageTable

        replicated = ReplicatedPageTable(
            lambda: HashedPageTable(num_buckets=16), PRESETS["2-node"]
        )
        replicated.insert(0x20, 0x80)
        with trace_walks() as tracer:
            replicated.lookup(0x20, node=0)
            replicated.lookup(0x20, node=1)
        assert [event.node for event in tracer.events()] == [0, 1]
        (profile,) = tracer.profile.tables.values()
        assert profile.lines_by_node[0] == profile.lines_by_node[1] > 0
