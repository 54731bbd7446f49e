"""Walk profiles: exact percentiles, heat rows, merging, tracer feed."""

import json
import random

from repro.obs.profile import (
    HEAT_CELLS,
    TableProfile,
    WalkProfile,
    _exact_percentile,
    heat_cell,
)
from repro.obs.trace import WalkTracer


class TestHeatCell:
    def test_range_and_determinism(self):
        cells = [heat_cell(vpn) for vpn in range(10_000)]
        assert all(0 <= cell < HEAT_CELLS for cell in cells)
        assert cells == [heat_cell(vpn) for vpn in range(10_000)]

    def test_sequential_vpns_scatter(self):
        # The Fibonacci fold must spread a dense VPN range over every
        # cell, or the heat row would just mirror address order.
        hit = {heat_cell(vpn) for vpn in range(256)}
        assert hit == set(range(HEAT_CELLS))

    def test_add_heat_matches_heat_cell_per_vpn(self):
        # The vectorised fold in wrapping uint64 arithmetic must land
        # every VPN of the 52-bit VPN space where heat_cell puts it.
        rng = random.Random(52)
        vpns = [0, 1, (1 << 52) - 1, 1 << 51] + [
            rng.getrandbits(52) for _ in range(2_000)
        ]
        lines = [rng.randrange(1, 40) for _ in vpns]
        profile = TableProfile()
        profile.add_heat(vpns, lines)
        expected = [0] * HEAT_CELLS
        for vpn, charged in zip(vpns, lines):
            expected[heat_cell(vpn)] += charged
        assert profile.heat == expected
        assert len({heat_cell(vpn) for vpn in vpns}) == HEAT_CELLS


class TestExactPercentile:
    def test_nearest_rank(self):
        values = {1: 5, 2: 3, 10: 2}  # ranks 1-5 → 1, 6-8 → 2, 9-10 → 10
        assert _exact_percentile(values, 0.50) == 1
        assert _exact_percentile(values, 0.80) == 2
        assert _exact_percentile(values, 0.95) == 10
        assert _exact_percentile(values, 1.0) == 10
        assert _exact_percentile({}, 0.5) == 0


class TestTableProfile:
    def test_record_accumulates_every_dimension(self):
        profile = TableProfile()
        profile.record(kind="base", lines=1, probes=1, fault=False)
        profile.record(kind="base", lines=3, probes=2, fault=False, node=1,
                       count=2)
        profile.record(kind="fault", lines=0, probes=4, fault=True)
        profile.record(kind="base", lines=9, probes=9, fault=False, count=0)
        assert profile.walks == 4 and profile.faults == 1
        assert profile.total_lines == 7 and profile.total_probes == 9
        assert profile.kinds == {"base": 3, "fault": 1}
        assert profile.lines_by_node == {1: 6}
        assert profile.lines == {1: 1, 3: 2, 0: 1}

    def test_merge_equals_combined_and_round_trips(self):
        left, right, combined = TableProfile(), TableProfile(), TableProfile()
        for i in range(40):
            target = left if i % 2 else right
            for profile in (target, combined):
                profile.record(kind="base", lines=i % 5, probes=1 + i % 3,
                               fault=False, node=i % 2)
                profile.add_heat([i], [i % 5])
        left.merge(right)
        assert left.as_dict() == combined.as_dict()
        doc = json.loads(json.dumps(combined.as_dict()))
        assert TableProfile.from_dict(doc).as_dict() == combined.as_dict()


class TestWalkProfile:
    def test_tables_are_independent_and_merge_dict_folds(self):
        parent, worker = WalkProfile(), WalkProfile()
        parent.table("hashed").record(kind="base", lines=2, probes=2,
                                      fault=False)
        worker.table("hashed").record(kind="base", lines=4, probes=3,
                                      fault=False)
        worker.table("clustered").record(kind="superpage", lines=1,
                                         probes=1, fault=False)
        parent.merge_dict(json.loads(json.dumps(worker.as_dict())))
        assert parent.total_walks == 3
        assert parent.total_lines == 7
        assert parent.table("hashed").walks == 2
        assert parent.table("clustered").kinds == {"superpage": 1}
        rebuilt = WalkProfile.from_dict(parent.as_dict())
        assert rebuilt.as_dict() == parent.as_dict()


class TestTracerFeed:
    """The tracer counts each walk once, into its profile: its totals
    cannot disagree with it."""

    def _drive(self, tracer, walks=50):
        for i in range(walks):
            tracer.record(
                table="hashed", op="translate", vpn=i, kind="base",
                lines=1 + i % 4, probes=1 + i % 2, fault=(i % 10 == 0),
                node=0,
            )

    def test_registry_and_profile_agree_with_totals(self):
        profile = WalkProfile()
        tracer = WalkTracer(capacity=8, profile=profile)
        self._drive(tracer)
        table = profile.table("hashed")
        assert table.walks == 50
        assert table.total_lines == tracer.total_lines == sum(
            1 + i % 4 for i in range(50)
        )
        assert table.total_probes == tracer.total_probes == sum(
            1 + i % 2 for i in range(50)
        )
        assert tracer.faults == table.faults == 5
        assert sum(table.heat) == table.total_lines

    def test_profile_assigned_after_construction(self):
        # A run hands its profile to an already-installed tracer: walks
        # from then on count into that profile, and the totals follow.
        tracer = WalkTracer(capacity=8)
        self._drive(tracer, walks=10)
        own = tracer.profile
        tracer.profile = WalkProfile()
        self._drive(tracer, walks=10)
        assert own.total_walks == 10
        assert tracer.profile.total_walks == 10
        assert tracer.total_lines == tracer.profile.total_lines
        assert tracer.recorded == 20
