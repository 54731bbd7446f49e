"""Experiment drivers: each reproduced table/figure shows the paper's shape.

These are the acceptance tests of the reproduction: they run the actual
experiment code (on reduced traces / workload subsets for speed) and
assert the qualitative claims the paper makes about each figure, each
§7 extension study, and each design choice DESIGN.md §7 ablates.
"""

import random

import pytest

from repro.addr.layout import AddressLayout
from repro.addr.space import AddressSpace
from repro.analysis.metrics import make_table
from repro.core.clustered import ClusteredPageTable
from repro.core.variable import VariableClusteredPageTable
from repro.experiments import (
    fig9,
    fig10,
    fig11,
    guarded,
    multiprog,
    multisize,
    sasos,
    sensitivity,
    softtlb,
    table1,
    table2,
)
from repro.experiments.common import (
    clear_caches,
    get_miss_stream,
    get_translation_map,
    get_workload,
)
from repro.mmu.simulate import replay_misses
from repro.os.translation_map import TranslationMap
from repro.pagetables.hashed import HashedPageTable
from repro.pagetables.linear import LinearPageTable

#: A fast but representative subset: one dense, one scientific, one sparse
#: multiprogrammed workload.
SUBSET = ("coral", "mp3d", "gcc")
TRACE_LENGTH = 30_000

#: The longer trace the shape checks are also held to.
LONG_TRACE_LENGTH = 40_000


@pytest.fixture(scope="module", autouse=True)
def _isolated_caches():
    clear_caches()
    # Pre-warm the subset at the reduced trace length.
    for name in SUBSET + ("kernel",):
        get_workload(name, TRACE_LENGTH)
    yield
    clear_caches()


class TestTable1:
    def test_structure_and_footprints(self):
        for trace_length in (TRACE_LENGTH, LONG_TRACE_LENGTH):
            result = table1.run(workloads=SUBSET, trace_length=trace_length)
            rows = result.by_label()
            assert set(rows) == set(SUBSET) | {"kernel"}
            for name in SUBSET:
                sim_kb = rows[name][5]
                paper_kb = rows[name][6]
                assert sim_kb == pytest.approx(paper_kb, rel=0.15)

    def test_miss_intensity_ordering(self):
        # coral must be the most TLB-intensive of the subset, gcc the least.
        result = table1.run(workloads=SUBSET, trace_length=TRACE_LENGTH)
        ratios = result.column("misses/1k refs")
        assert ratios["coral"] > ratios["mp3d"] > ratios["gcc"]


class TestFig9:
    def test_clustered_is_always_smallest(self):
        result = fig9.run(workloads=SUBSET + ("kernel",))
        for row in result.rows:
            label, *values = row
            by_series = dict(zip(result.headers[1:], values))
            assert by_series["clustered"] == min(values), label
            assert by_series["hashed"] == pytest.approx(1.0)

    def test_linear_explodes_for_sparse(self):
        result = fig9.run(workloads=("gcc", "coral"))
        sizes = result.column("linear-6lvl")
        assert sizes["gcc"] > 2.0       # paper truncates at 5
        assert sizes["coral"] < 1.0     # dense: fine

    def test_forward_mapped_tracks_linear(self):
        result = fig9.run(workloads=("gcc",))
        row = result.by_label()["gcc"]
        by_series = dict(zip(result.headers[1:], row))
        assert by_series["forward-mapped"] > 1.0


class TestFig10:
    def test_wide_ptes_shrink_clustered(self):
        result = fig10.run(workloads=SUBSET + ("kernel",))
        for row in result.rows:
            by_series = dict(zip(result.headers[1:], row[1:]))
            assert by_series["clustered+subblock"] <= by_series["clustered+superpage"]
            assert by_series["clustered+superpage"] < by_series["clustered"]
            # And clustered+subblock beats hashed+superpage everywhere.
            assert by_series["clustered+subblock"] < by_series["hashed+superpage"]

    def test_dense_savings_reach_paper_levels(self):
        # coral: superpage PTEs cut clustered size by up to ~75-80%.
        result = fig10.run(workloads=("coral",))
        by_series = dict(zip(result.headers[1:], result.rows[0][1:]))
        assert by_series["clustered+subblock"] < 0.25 * by_series["clustered"]

    def test_hashed_superpage_improves_but_loses(self):
        result = fig10.run(workloads=("coral",))
        by_series = dict(zip(result.headers[1:], result.rows[0][1:]))
        assert by_series["hashed+superpage"] < 1.0
        assert by_series["clustered+subblock"] < by_series["hashed+superpage"]


def _fig11_over_subset(figure):
    """One subfigure over the subset at the longer trace, as workload →
    series → lines per miss."""
    result = fig11.run_subfigure(
        figure, workloads=SUBSET, trace_length=LONG_TRACE_LENGTH
    )
    return {row[0]: dict(zip(result.headers[1:], row[1:]))
            for row in result.rows}


class TestFig11:
    def test_11a_forward_mapped_pays_seven(self):
        result = fig11.run_subfigure("11a", workloads=("mp3d",),
                                     trace_length=TRACE_LENGTH)
        row = dict(zip(result.headers[1:], result.rows[0][1:]))
        assert row["forward-mapped"] == pytest.approx(7.0)
        assert row["clustered"] < 1.3
        assert row["hashed"] >= 1.0
        table = _fig11_over_subset("11a")
        assert 6.9 <= table["mp3d"]["forward-mapped"] <= 7.1
        assert 0.9 <= table["mp3d"]["clustered"] <= 1.4
        assert 1.0 <= table["coral"]["hashed"] <= 3.0

    def test_11b_hashed_degrades_clustered_does_not(self):
        result = fig11.run_subfigure("11b", workloads=("coral",),
                                     trace_length=TRACE_LENGTH)
        row = dict(zip(result.headers[1:], result.rows[0][1:]))
        assert row["hashed-multi"] > 1.5   # double-probe penalty
        assert row["clustered"] < 1.2      # coresident wide PTEs
        coral = _fig11_over_subset("11b")["coral"]
        assert 1.5 <= coral["hashed-multi"] <= 3.0
        assert 0.9 <= coral["clustered"] <= 1.3

    def test_11c_partial_subblock_same_shape(self):
        result = fig11.run_subfigure("11c", workloads=("coral",),
                                     trace_length=TRACE_LENGTH)
        row = dict(zip(result.headers[1:], result.rows[0][1:]))
        assert row["hashed-multi"] > 1.5
        assert row["clustered"] < 1.2
        coral = _fig11_over_subset("11c")["coral"]
        assert 1.5 <= coral["hashed-multi"] <= 3.0
        assert 0.9 <= coral["clustered"] <= 1.3

    def test_11d_hashed_pays_sixteen_probes(self):
        result = fig11.run_subfigure("11d", workloads=("mp3d",),
                                     trace_length=TRACE_LENGTH)
        row = dict(zip(result.headers[1:], result.rows[0][1:]))
        assert row["hashed"] > 10.0
        assert row["clustered"] < 1.5
        assert row["linear-1lvl"] < 2.0
        mp3d = _fig11_over_subset("11d")["mp3d"]
        assert 10.0 <= mp3d["hashed"] <= 45.0
        assert 0.9 <= mp3d["clustered"] <= 1.5
        assert 0.9 <= mp3d["linear-1lvl"] <= 2.5


#: Table 2 inputs: (workloads, uniform probes, access-ratio tolerance).
TABLE2_INPUTS = ((("mp3d",), 20_000, 0.1), (SUBSET, 10_000, 0.15))


class TestTable2:
    def test_size_formulae_exact(self):
        for workloads, probes, _ in TABLE2_INPUTS:
            result = table2.run(workloads=workloads, probe_count=probes)
            for row in result.rows:
                case, metric, formula, simulated, ratio = row
                if metric == "size B":
                    assert ratio == pytest.approx(1.0), case

    def test_access_formulae_close_under_uniform(self):
        for workloads, probes, tolerance in TABLE2_INPUTS:
            result = table2.run(workloads=workloads, probe_count=probes)
            for row in result.rows:
                case, metric, formula, simulated, ratio = row
                if metric == "lines/miss":
                    assert abs(ratio - 1.0) < tolerance, case


class TestSensitivity:
    def test_cache_line_sweep_shape(self):
        for name, probes in (("mp3d", 4_000), ("coral", 8_000)):
            result = sensitivity.cache_line_sweep(
                workload_name=name, probe_count=probes
            )
            rows = result.by_label()
            # Smaller lines never cost fewer lines per lookup.
            for label, values in rows.items():
                assert values[0] >= values[1] >= values[2]
            # §6.3: s=16 pays ~0.6 extra lines at 64B vs 256B and ~0.1
            # at 128B.
            assert 0.3 < rows["s=16"][0] - rows["s=16"][2] < 0.9, name
            assert 0.0 <= rows["s=16"][1] - rows["s=16"][2] < 0.3, name

    def test_subblock_factor_sweep_runs(self):
        result = sensitivity.subblock_factor_sweep(workload_name="gcc")
        ratios = {row[0]: row[3] for row in result.rows}
        assert all(0 < ratio < 1.2 for ratio in ratios.values())
        # Sparse workload: a mid-range factor beats both extremes.
        assert min(ratios.values()) < ratios["s=2"]
        assert min(ratios.values()) < ratios["s=32"]

    def test_bucket_sweep_monotone(self):
        for name, buckets, probes in (
            ("mp3d", (512, 2048, 8192), 4_000),
            ("ML", (1024, 2048, 4096, 8192, 16384), 8_000),
        ):
            result = sensitivity.bucket_count_sweep(
                workload_name=name, bucket_counts=buckets,
                probe_count=probes,
            )
            hashed_lines = [row[2] for row in result.rows]
            # More buckets, shorter chains (§7).
            assert hashed_lines == sorted(hashed_lines, reverse=True)
            assert hashed_lines[-1] < hashed_lines[0]
            for row in result.rows:
                assert row[4] <= row[2]  # clustered never worse than hashed

    def test_tlb_geometry_sweep(self):
        result = sensitivity.tlb_geometry_sweep(
            workload_name="gcc", trace_length=TRACE_LENGTH
        )
        misses = result.column("misses")
        # More fully-associative capacity never hurts...
        assert misses["FA-32"] >= misses["FA-64"] >= misses["FA-128"]
        # ...and a direct-mapped TLB of equal capacity conflicts badly.
        assert misses["SA-64x1"] > misses["FA-64"]

    def test_hash_quality_sweep(self):
        result = sensitivity.hash_quality_sweep(workload_name="mp3d",
                                                num_buckets=256)
        for row in result.rows:
            label, h_mean, h_max, c_mean, c_max = row
            # Clustering keeps chains about a subblock-factor shorter and
            # the worst chain bounded, under every hash.
            assert c_mean < h_mean
            assert c_max <= h_max

    def test_shared_vs_private_tables(self):
        result = sensitivity.shared_vs_private_tables(
            workload_name="gcc", trace_length=TRACE_LENGTH
        )
        for row in result.rows:
            label, shared_lines, shared_bytes, private_lines, private_bytes = row
            # §7's trade-off: private walks are no slower but cost one
            # bucket array per process.
            assert private_lines <= shared_lines
            assert private_bytes > shared_bytes


class TestExtensions:
    """The §7 extension studies, at the longer trace where they replay."""

    def test_softtlb_makes_forward_mapped_tolerable(self):
        result = softtlb.run(
            workloads=("mp3d", "gcc"), trace_length=LONG_TRACE_LENGTH
        )
        bare = result.headers.index("forward-mapped")
        for row in result.rows:
            # §7: the next column is the same table behind a software TLB.
            assert row[bare + 1] < row[bare], row[0]

    def test_two_clustered_tables_beat_five_hashed(self):
        rows = multisize.run().by_label()
        clustered = rows["two-clustered (§7)"]
        hashed = rows["five-hashed (per size)"]
        # §7: fewer tables, less memory, cheaper walks.
        for column in range(3):
            assert clustered[column] < hashed[column]

    def test_asids_win_at_second_level_tlb_sizes(self):
        rows = multiprog.run(trace_length=LONG_TRACE_LENGTH).by_label()
        ratio = rows["compress/1024e"][3]
        assert ratio is not None and ratio > 2.0

    def test_guarded_short_circuit_is_partly_effective(self):
        result = guarded.run(
            workloads=("mp3d", "gcc"), trace_length=LONG_TRACE_LENGTH
        )
        for name, forward_lines, guarded_lines, *_ in result.rows:
            # §2: better than the forward-mapped walk, far from one line.
            assert 1.0 < guarded_lines < forward_lines, name

    def test_sasos_sparse_space(self):
        result = sasos.run(object_counts=(100, 400))
        for row in result.rows:
            sizes = dict(zip(result.headers[1:], row[1:]))
            # §7: clustered below hashed, trees far above, at every scale.
            assert sizes["clustered"] < 1.0
            assert sizes["linear-1lvl"] > 2.0
            assert sizes["forward-mapped"] > 2.0


class TestAblations:
    """The design choices DESIGN.md §7 ablates, on coral."""

    @staticmethod
    def _coral(tlb_kind):
        workload = get_workload("coral", LONG_TRACE_LENGTH)
        return (
            workload,
            get_translation_map(workload, tlb_kind),
            get_miss_stream(workload, tlb_kind),
        )

    def test_packed_hashed_ptes_save_a_third_at_equal_access_cost(self):
        workload, tmap, stream = self._coral("single")
        plain = HashedPageTable(workload.layout)
        packed = HashedPageTable(workload.layout, packed=True)
        tmap.populate(plain, base_pages_only=True)
        tmap.populate(packed, base_pages_only=True)
        assert packed.size_bytes() / plain.size_bytes() == 16 / 24
        assert replay_misses(stream, packed).lines_per_miss == (
            replay_misses(stream, plain).lines_per_miss
        )

    def test_wide_table_first_traversal_wins_on_wide_misses(self):
        """§6.3: when most misses hit wide PTEs, searching the 64KB
        table first beats the 4KB-first default."""
        _, tmap, stream = self._coral("partial-subblock")
        lines = {}
        for name in ("hashed-multi", "hashed-multi-reversed"):
            table = make_table(name)
            tmap.populate(table)
            lines[name] = replay_misses(stream, table).lines_per_miss
        assert lines["hashed-multi-reversed"] < lines["hashed-multi"]

    def test_replicated_ptes_trade_size_for_walk_cost(self):
        """§4.2: replication keeps the miss penalty flat but forfeits
        the size savings; multiple tables save memory but pay probes."""
        workload, tmap, stream = self._coral("superpage")
        replicate = LinearPageTable(workload.layout, structure="ideal")
        multiple = make_table("hashed-multi")
        tmap.populate(replicate)
        tmap.populate(multiple)
        assert replay_misses(stream, replicate).lines_per_miss < (
            replay_misses(stream, multiple).lines_per_miss
        )
        assert multiple.size_bytes() < replicate.size_bytes()

    def test_variable_factors_recover_sparse_blocks(self):
        """§3/[Tall95]: variable subblock factors shrink a sparse space's
        table and cost a dense one at most 5%."""
        layout = AddressLayout()
        scattered = AddressSpace(layout, "scattered")
        rng = random.Random(5)
        frame = 0
        for _ in range(500):
            base = rng.randrange(0, layout.max_vpn - 4)
            for i in range(rng.randint(1, 3)):
                if not scattered.is_mapped(base + i):
                    scattered.map(base + i, frame)
                    frame += 1
        dense = get_workload("coral", LONG_TRACE_LENGTH).union_space()
        sizes = {}
        for label, space in (("sparse", scattered), ("dense", dense)):
            tmap = TranslationMap.from_space(space)
            fixed = ClusteredPageTable(space.layout)
            variable = VariableClusteredPageTable(space.layout)
            tmap.populate(fixed, base_pages_only=True)
            tmap.populate(variable, base_pages_only=True)
            sizes[label] = (fixed.size_bytes(), variable.size_bytes())
        assert sizes["sparse"][1] < sizes["sparse"][0]
        assert sizes["dense"][1] <= sizes["dense"][0] * 1.05
