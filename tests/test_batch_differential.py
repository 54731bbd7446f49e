"""Differential oracle: the batch replay engine vs the scalar reference.

The batch engine's whole claim is *exactness*: for every supported table
it must reproduce the scalar replay bit for bit — the
:class:`~repro.mmu.simulate.ReplayResult`, the table's
:class:`~repro.pagetables.base.WalkStats` (including multi-table
constituents), the tracer aggregates, and the tracer's walk profile
with its heat rows.  These tests pin that contract on the paper's
workloads in both replay modes, and then *sabotage* the kernels two ways
(an off-by-one probe count, a dropped fault) to prove the differential
actually has teeth: a batch engine with either classic vectorisation bug
fails the oracle.

A second source of kernels has its own oracle: a kernel built straight
from a translation map (what the Figure 11 and modern replays use under
the batch engine) must equal, array for array, the kernel compiled from
the table that map populates — and a sabotaged map builder must fail it.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.metrics import make_table
from repro.experiments import common, fig11, modern
from repro.experiments.common import (
    get_miss_stream,
    get_translation_map,
    get_workload,
)
from repro.mmu import batch as batch_module
from repro.mmu.batch import replay_misses_batch
from repro.mmu.batch_kernels import (
    BatchUnsupportedError,
    ClusteredKernel,
    compile_kernel,
)
from repro.mmu.simulate import replay_misses
from repro.obs.metrics import get_registry, reset_registry
from repro.obs.trace import WalkTracer, install_tracer, uninstall_tracer
from repro.os.translation_map import TranslationMap
from repro.pagetables.guarded import GuardedPageTable

TRACE_LENGTH = 20_000

#: The four Figure 11 organisations plus the multi-table composition.
TABLES = ("linear-1lvl", "forward-mapped", "hashed", "clustered")

#: (TLB kind, complete-subblock replay?, wide PTEs?) replay modes.
MODES = (
    ("single", False, False),
    ("superpage", False, True),
    ("complete-subblock", True, False),
)


@pytest.fixture(scope="module")
def workload():
    return get_workload("mp3d", TRACE_LENGTH)


def fresh_table(name, workload, tlb_kind="single", base_pages_only=True):
    table = make_table(name, workload.layout)
    get_translation_map(workload, tlb_kind).populate(
        table, base_pages_only=base_pages_only
    )
    return table


def engine_fallbacks():
    return get_registry().values("engine.fallback")


def assert_replays_equal(scalar, batch):
    assert batch.misses == scalar.misses
    assert batch.cache_lines == scalar.cache_lines
    assert batch.probes == scalar.probes
    assert batch.faults == scalar.faults
    assert dict(batch.by_kind) == dict(scalar.by_kind)


def _constituents(table):
    """The table plus any inner tables whose stats advance on replay."""
    return [table] + list(getattr(table, "tables", ()))


def assert_stats_equal(scalar_table, batch_table):
    for left, right in zip(
        _constituents(scalar_table), _constituents(batch_table)
    ):
        for field in ("lookups", "faults", "cache_lines", "probes"):
            assert getattr(right.stats, field) == getattr(left.stats, field), (
                left.name, field,
            )


def run_both(name, workload, tlb_kind="single", complete=False,
             base_pages_only=True):
    stream = get_miss_stream(workload, tlb_kind)
    scalar_table = fresh_table(name, workload, tlb_kind, base_pages_only)
    batch_table = fresh_table(name, workload, tlb_kind, base_pages_only)
    scalar = replay_misses(stream, scalar_table, complete_subblock=complete)
    batch = replay_misses_batch(
        stream, batch_table, complete_subblock=complete
    )
    return scalar, batch, scalar_table, batch_table


# ---------------------------------------------------------------------------
# The oracle: every supported table, both replay modes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("tlb_kind,complete,wide", MODES)
@pytest.mark.parametrize("name", TABLES)
def test_batch_matches_scalar_exactly(name, tlb_kind, complete, wide, workload):
    if wide and name == "hashed":
        # A grain-1 hashed table cannot hold superpage PTEs; Figure 11b
        # uses the two-table composition there (tested below).
        name = "hashed-multi"
    scalar, batch, scalar_table, batch_table = run_both(
        name, workload, tlb_kind, complete, base_pages_only=not wide
    )
    assert_replays_equal(scalar, batch)
    assert_stats_equal(scalar_table, batch_table)
    # The map path: an empty table, its kernel built from the map.
    map_table = make_table(name, workload.layout)
    kernel = compile_kernel(
        map_table, get_translation_map(workload, tlb_kind),
        base_pages_only=not wide,
    )
    mapped = replay_misses_batch(
        get_miss_stream(workload, tlb_kind), map_table,
        complete_subblock=complete, _kernel=kernel,
    )
    assert_replays_equal(scalar, mapped)
    assert_stats_equal(scalar_table, map_table)


def test_batch_matches_scalar_for_multi_table(workload):
    """Constituent WalkStats must advance too, in both replay modes."""
    for tlb_kind, complete, wide in MODES:
        scalar, batch, scalar_table, batch_table = run_both(
            "hashed-multi", workload, tlb_kind, complete,
            base_pages_only=not wide,
        )
        assert_replays_equal(scalar, batch)
        assert_stats_equal(scalar_table, batch_table)


def test_batch_matches_scalar_for_guarded(workload):
    stream = get_miss_stream(workload, "single")
    tmap = get_translation_map(workload, "single")
    tables = []
    for _ in range(2):
        table = GuardedPageTable(workload.layout)
        tmap.populate(table, base_pages_only=True)
        tables.append(table)
    scalar = replay_misses(stream, tables[0])
    batch = replay_misses_batch(stream, tables[1])
    assert_replays_equal(scalar, batch)
    for field in ("lookups", "faults", "cache_lines", "probes"):
        assert getattr(tables[1].stats, field) == getattr(
            tables[0].stats, field
        )


def test_batch_faults_match_scalar_on_foreign_stream(workload):
    """A stream with unmapped VPNs: fault accounting must agree."""
    stream = get_miss_stream(workload, "single")
    # Append the same VPNs far outside the mapped space: every appended
    # miss must fault identically under both engines.
    mixed = replace(
        stream,
        vpns=np.concatenate([stream.vpns, stream.vpns + (1 << 40)]),
        block_miss=np.concatenate([stream.block_miss, stream.block_miss]),
    )
    for name in TABLES:
        scalar_table = fresh_table(name, workload)
        batch_table = fresh_table(name, workload)
        scalar = replay_misses(mixed, scalar_table)
        batch = replay_misses_batch(mixed, batch_table)
        assert batch.faults == scalar.faults and batch.faults > 0, name
        assert_replays_equal(scalar, batch)
        assert_stats_equal(scalar_table, batch_table)


# ---------------------------------------------------------------------------
# Observability parity: tracer aggregates and walk profile, heat included
# ---------------------------------------------------------------------------
def _traced_replay(engine_fn, stream, table, complete):
    tracer = install_tracer(WalkTracer(capacity=64))
    try:
        engine_fn(stream, table, complete_subblock=complete)
    finally:
        uninstall_tracer(tracer)
    aggregates = {
        "recorded": tracer.recorded,
        "total_lines": tracer.total_lines,
        "replay_lines": tracer.replay_lines,
        "total_probes": tracer.total_probes,
        "faults": tracer.faults,
    }
    return aggregates, tracer.profile.as_dict()


@pytest.mark.parametrize("complete", (False, True))
def test_tracer_and_profile_parity(workload, complete):
    tlb_kind = "complete-subblock" if complete else "single"
    stream = get_miss_stream(workload, tlb_kind)
    for name in ("hashed", "clustered"):
        scalar = _traced_replay(
            replay_misses, stream, fresh_table(name, workload, tlb_kind),
            complete,
        )
        batch = _traced_replay(
            replay_misses_batch, stream,
            fresh_table(name, workload, tlb_kind), complete,
        )
        assert batch[0] == scalar[0], name  # tracer aggregates
        assert batch[1] == scalar[1], name  # walk profile incl. heat


# ---------------------------------------------------------------------------
# Engine dispatch and fallback
# ---------------------------------------------------------------------------
def engine_replays():
    return get_registry().values("engine.replays")


def test_engine_dispatch_replays_batch(workload, monkeypatch):
    stream = get_miss_stream(workload, "single")
    reset_registry()
    scalar = common.replay(stream, fresh_table("hashed", workload))
    monkeypatch.setattr(common, "_ENGINE", "batch")
    batch = common.replay(stream, fresh_table("hashed", workload))
    assert_replays_equal(scalar, batch)
    assert engine_replays() == {
        "engine.replays{engine=batch,table=hashed}": 1,
        "engine.replays{engine=scalar,table=hashed}": 1,
    }


def test_engine_dispatch_falls_back_for_unsupported_table(
    workload, monkeypatch
):
    """SoftwareTLBTable has no kernel: batch engine must defer to scalar,
    and count each refused replay in ``engine.fallback``."""
    from repro.pagetables.software_tlb import SoftwareTLBTable

    def fronted():
        table = SoftwareTLBTable(
            workload.layout, num_sets=64, associativity=2,
            backing=make_table("hashed", workload.layout),
        )
        get_translation_map(workload, "single").populate(
            table, base_pages_only=True
        )
        return table

    stream = get_miss_stream(workload, "single")
    with pytest.raises(BatchUnsupportedError):
        compile_kernel(fronted())
    reset_registry()
    scalar = common.replay(stream, fronted())
    scalar_many = common.replay_many([stream, stream], fronted())
    assert engine_fallbacks() == {}
    monkeypatch.setattr(common, "_ENGINE", "batch")
    fallback = common.replay(stream, fronted())
    assert_replays_equal(scalar, fallback)
    assert common.replay_many([stream, stream], fronted()) == scalar_many
    assert engine_fallbacks() == {
        "engine.fallback{reason=no batch kernel for SoftwareTLBTable,"
        "table=software-tlb}": 2
    }
    # Each replay call is counted once, under the engine that ran it.
    assert engine_replays() == {
        "engine.replays{engine=scalar,table=software-tlb}": 4
    }


@pytest.fixture
def populate_calls(monkeypatch):
    """Every ``TranslationMap.populate`` call, as the populated table's
    name, with ``"sizes:"`` prefixed inside ``modern.table_sizes``."""
    calls = []
    inside_sizes = []
    populate = TranslationMap.populate
    table_sizes = modern.table_sizes

    def counted_populate(tmap, table, base_pages_only=False):
        calls.append(("sizes:" if inside_sizes else "") + table.name)
        return populate(tmap, table, base_pages_only)

    def counted_table_sizes(*args, **kwargs):
        inside_sizes.append(True)
        try:
            return table_sizes(*args, **kwargs)
        finally:
            inside_sizes.pop()

    monkeypatch.setattr(TranslationMap, "populate", counted_populate)
    monkeypatch.setattr(modern, "table_sizes", counted_table_sizes)
    return calls


@pytest.mark.parametrize("figure", sorted(fig11.SUBFIGURES))
def test_figure11_under_batch_records_no_engine_fallback(
    figure, monkeypatch, populate_calls
):
    monkeypatch.setattr(common, "_ENGINE", "batch")
    reset_registry()
    fig11.run_subfigure(figure, workloads=("mp3d",), trace_length=5_000)
    assert engine_fallbacks() == {}
    # Every kernel comes from the map: no object table is populated.
    assert populate_calls == []


def test_modern_cell_under_batch_populates_only_for_its_size_column(
    monkeypatch, populate_calls
):
    monkeypatch.setattr(common, "_ENGINE", "batch")
    reset_registry()
    modern.run_config("kv-store", 4, trace_length=5_000)
    assert engine_fallbacks() == {}
    assert populate_calls
    assert all(name.startswith("sizes:") for name in populate_calls)


@pytest.fixture
def batch_replays(monkeypatch):
    """The batch engine on, a fresh registry, and a count of the calls
    that reach ``replay_misses_batch``."""
    calls = []

    def counted(stream, table, **kwargs):
        calls.append(table.name)
        return replay_misses_batch(stream, table, **kwargs)

    monkeypatch.setattr(batch_module, "replay_misses_batch", counted)
    monkeypatch.setattr(common, "_ENGINE", "batch")
    reset_registry()
    return calls


@pytest.mark.parametrize("experiment", [
    "sens_cacheline", "sens_buckets", "sens_shared_private", "table2",
    "compare",
])
def test_measured_walks_replay_through_the_batch_engine(
    experiment, batch_replays, capsys
):
    from repro.cli import main
    from repro.experiments import sensitivity, table2

    run = {
        "sens_cacheline": lambda: sensitivity.cache_line_sweep(
            "mp3d", line_sizes=(64, 256), subblock_factors=(16,),
            probe_count=500,
        ),
        "sens_buckets": lambda: sensitivity.bucket_count_sweep(
            "mp3d", bucket_counts=(1024,), probe_count=500,
        ),
        "sens_shared_private": lambda: sensitivity.shared_vs_private_tables(
            "gcc", trace_length=5_000,
        ),
        "table2": lambda: table2.run(workloads=("mp3d",), probe_count=500),
        "compare": lambda: main(["compare", "mp3d"]),
    }
    run[experiment]()
    assert batch_replays
    assert engine_fallbacks() == {}


def test_multisize_falls_back_only_for_the_two_clustered_tables(
    batch_replays,
):
    from repro.experiments import multisize

    multisize.run()
    assert batch_replays == ["two-clustered", "five-hashed"]
    assert engine_fallbacks() == {
        "engine.fallback{reason=no batch kernel for "
        "MultiSizeClusteredPageTables,table=two-clustered}": 1
    }


def test_configure_engine_rejects_unknown():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        common.configure_engine("simd")
    assert common.active_engine() in common.ENGINES


# ---------------------------------------------------------------------------
# Sabotage: the oracle must catch classic vectorisation bugs
# ---------------------------------------------------------------------------
class _OffByOneProbes:
    """A kernel that over-counts every walk's probes by one."""

    def __init__(self, inner):
        self._inner = inner

    def walk(self, vpns):
        lines, probes, kind = self._inner.walk(vpns)
        return lines, probes + 1, kind

    def block(self, vpbns):
        return self._inner.block(vpbns)


class _DroppedFault:
    """A kernel that silently resolves every faulting walk."""

    def __init__(self, inner):
        self._inner = inner

    def walk(self, vpns):
        lines, probes, kind = self._inner.walk(vpns)
        kind = np.where(kind < 0, 0, kind)  # faults become BASE hits
        return lines, probes, kind

    def block(self, vpbns):
        return self._inner.block(vpbns)


@pytest.mark.parametrize("sabotage", (_OffByOneProbes, _DroppedFault))
def test_differential_catches_sabotaged_kernels(workload, monkeypatch, sabotage):
    stream = get_miss_stream(workload, "single")
    if sabotage is _DroppedFault:
        # The dropped-fault bug only shows on a stream that faults.
        stream = replace(
            stream,
            vpns=np.concatenate([stream.vpns, stream.vpns + (1 << 40)]),
            block_miss=np.concatenate([stream.block_miss, stream.block_miss]),
        )
    monkeypatch.setattr(
        batch_module, "compile_kernel",
        lambda table: sabotage(compile_kernel(table)),
    )
    scalar_table = fresh_table("hashed", workload)
    batch_table = fresh_table("hashed", workload)
    scalar = replay_misses(stream, scalar_table)
    batch = replay_misses_batch(stream, batch_table)
    with pytest.raises(AssertionError):
        assert_replays_equal(scalar, batch)
        assert_stats_equal(scalar_table, batch_table)
    # The same bug in a kernel built from the map.
    map_table = make_table("hashed", workload.layout)
    kernel = compile_kernel(
        map_table, get_translation_map(workload, "single"),
        base_pages_only=True,
    )
    mapped = replay_misses_batch(stream, map_table, _kernel=sabotage(kernel))
    with pytest.raises(AssertionError):
        assert_replays_equal(scalar, mapped)
        assert_stats_equal(scalar_table, map_table)


# ---------------------------------------------------------------------------
# Map-built kernels: array for array the populated table's kernel
# ---------------------------------------------------------------------------
def kernel_arrays(kernel):
    """A kernel's compiled state by attribute name: arrays, level lists
    and constituent kernels flattened; the source table left out."""
    state = {}
    for name, value in vars(kernel).items():
        if name == "table":
            continue
        if name == "kernels":
            for index, inner in enumerate(value):
                for key, item in kernel_arrays(inner).items():
                    state[f"kernels[{index}].{key}"] = item
        elif isinstance(value, list):
            for index, item in enumerate(value):
                state[f"{name}[{index}]"] = item
        else:
            state[name] = value
    return state


def assert_kernels_equal(expected, actual, label):
    want, got = kernel_arrays(expected), kernel_arrays(actual)
    assert want.keys() == got.keys(), label
    for key, value in want.items():
        other = got[key]
        if isinstance(value, np.ndarray):
            assert isinstance(other, np.ndarray), (label, key)
            assert other.dtype == value.dtype, (label, key)
            assert np.array_equal(other, value), (label, key)
        else:
            assert type(other) is type(value) and other == value, (label, key)


def assert_map_kernels_match(workload, tlb_kind, names, base_pages_only,
                             num_buckets=4096):
    tmap = get_translation_map(workload, tlb_kind)
    for name in names:
        table = make_table(name, num_buckets=num_buckets)
        tmap.populate(table, base_pages_only=base_pages_only)
        empty = make_table(name, num_buckets=num_buckets)
        assert_kernels_equal(
            compile_kernel(table),
            compile_kernel(empty, tmap, base_pages_only),
            (workload.name, tlb_kind, name),
        )


#: The runner's ``--fast`` trace length, which the Figure 11 sweeps use.
FAST_TRACE_LENGTH = 50_000


def assert_figure11_map_kernels_match(figure, series=None):
    """Every (paper workload, series) table of one subfigure."""
    config = fig11.SUBFIGURES[figure]
    for name in common.TRACED_WORKLOADS:
        assert_map_kernels_match(
            get_workload(name, FAST_TRACE_LENGTH), config["tlb"],
            series or config["series"], config["base_pages_only"],
        )


@pytest.mark.parametrize("figure", sorted(fig11.SUBFIGURES))
def test_map_built_kernels_equal_the_populated_tables_kernels(figure):
    assert_figure11_map_kernels_match(figure)


def test_map_built_modern_kernels_equal_the_populated_tables_kernels():
    for name in modern.DEFAULT_WORKLOADS:
        workload = get_workload(
            name, FAST_TRACE_LENGTH, modern.SEED, footprint_mb=4
        )
        assert_map_kernels_match(
            workload, "single", modern.DEFAULT_TABLES, True,
            modern.sweep_buckets(workload.total_mapped_pages()),
        )


def test_kernel_equality_catches_clustered_nodes_in_vpbn_order(monkeypatch):
    """A builder that creates clustered nodes in VPBN order, not in
    creation order, reorders some Figure 11 hash chain (in 11b, where
    base-page nodes precede the superpage nodes)."""
    build = ClusteredKernel._build

    def vpbn_order(kernel, columns, *costs):
        rows = np.argsort(columns.vpn >> kernel.block_shift, kind="stable")
        return build(kernel, columns.select(rows), *costs)

    monkeypatch.setattr(ClusteredKernel, "_build", vpbn_order)
    with pytest.raises(AssertionError):
        for figure in sorted(fig11.SUBFIGURES):
            assert_figure11_map_kernels_match(figure, ("clustered",))
