"""The modern production workload models and their capstone sweep.

The load-bearing guarantees:

- **Calibration** — every family member realises exactly the planned
  footprint at any ``footprint_mb``, carries its density label, and
  passes the same :mod:`repro.workloads.validation` audit as the paper
  suite (footprint, miss band, region density).
- **Integration** — the families are reachable through the ordinary
  suite loader (``load_workload(name, footprint_mb=...)``), the
  experiment caches, and the CLI, without perturbing paper workloads.
- **Determinism** — the sweep's rows match between the scalar and batch
  engines, and ``repro experiment modern --run-dir DIR`` writes an
  identical ``BENCH_modern.json`` at any ``--jobs``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.experiments import modern as modern_experiment
from repro.experiments.common import clear_caches, configure_engine
from repro.workloads.modern import (
    MODERN_WORKLOADS,
    PAGES_PER_MB,
    load_modern_workload,
)
from repro.workloads.suite import PAPER_WORKLOADS, load_workload
from repro.workloads.validation import check_workload


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


# ---------------------------------------------------------------------------
# The families
# ---------------------------------------------------------------------------
class TestFamilies:
    def test_registry_has_the_four_models(self):
        assert sorted(MODERN_WORKLOADS) == [
            "compiler", "kv-store", "ml-training", "web-server",
        ]
        assert not set(MODERN_WORKLOADS) & set(PAPER_WORKLOADS)

    @pytest.mark.parametrize("name", sorted(MODERN_WORKLOADS))
    @pytest.mark.parametrize("footprint_mb", [2, 16, 1024])
    def test_plan_realises_the_footprint(self, name, footprint_mb):
        family = MODERN_WORKLOADS[name]
        budget = footprint_mb * PAGES_PER_MB
        mapped = family.mapped_pages(footprint_mb)
        # Per-region rounding may drop or add a few pages, never more.
        assert abs(mapped - budget) <= len(family.regions_for(footprint_mb))

    @pytest.mark.parametrize("name", sorted(MODERN_WORKLOADS))
    def test_spec_encodes_planned_pages_in_table1(self, name):
        family = MODERN_WORKLOADS[name]
        spec = family.spec_for(8)
        pages = family.mapped_pages(8)
        assert spec.table1[4] == max(1, int(round(pages * 24 / 1024)))
        assert spec.processes == 1
        assert spec.density == family.density

    def test_footprint_scales_monotonically(self):
        family = MODERN_WORKLOADS["kv-store"]
        assert (
            family.mapped_pages(4)
            < family.mapped_pages(64)
            < family.mapped_pages(1024)
        )

    def test_sub_megabyte_footprint_rejected(self):
        with pytest.raises(ConfigurationError):
            MODERN_WORKLOADS["compiler"].regions_for(0.25)

    def test_unknown_modern_name_rejected(self):
        with pytest.raises(ConfigurationError, match="kv-store"):
            load_modern_workload("redis")


# ---------------------------------------------------------------------------
# Suite-loader integration
# ---------------------------------------------------------------------------
class TestLoader:
    def test_load_workload_builds_exact_footprint(self):
        family = MODERN_WORKLOADS["ml-training"]
        workload = load_workload(
            "ml-training", trace_length=2_000, footprint_mb=4
        )
        assert workload.total_mapped_pages() == family.mapped_pages(4)
        assert len(workload.spaces) == 1
        assert workload.trace is not None

    def test_load_workload_is_deterministic(self):
        a = load_workload("web-server", trace_length=2_000, footprint_mb=4)
        b = load_workload("web-server", trace_length=2_000, footprint_mb=4)
        assert sorted(a.spaces[0]) == sorted(b.spaces[0])
        assert np.array_equal(a.trace.vpns, b.trace.vpns)

    def test_footprint_knob_rejected_for_paper_workloads(self):
        with pytest.raises(ConfigurationError, match="Table 1"):
            load_workload("gcc", trace_length=1_000, footprint_mb=4)

    def test_unknown_name_lists_modern_workloads(self):
        with pytest.raises(ConfigurationError) as excinfo:
            load_workload("memcached")
        assert "kv-store" in str(excinfo.value)


# ---------------------------------------------------------------------------
# Calibration audit
# ---------------------------------------------------------------------------
class TestCalibration:
    @pytest.mark.parametrize("name", sorted(MODERN_WORKLOADS))
    def test_audit_passes_at_default_footprint(self, name):
        check = check_workload(name, trace_length=30_000)
        assert check.ok, check.problems
        assert check.footprint_ratio == pytest.approx(1.0, abs=0.01)
        assert check.target_miss_ratio is None  # band, not Table 1

    @pytest.mark.parametrize("name", sorted(MODERN_WORKLOADS))
    def test_audit_passes_at_small_footprint(self, name):
        check = check_workload(name, trace_length=30_000, footprint_mb=16)
        assert check.ok, check.problems

    def test_density_labels_cover_all_three_classes(self):
        labels = {family.density for family in MODERN_WORKLOADS.values()}
        assert labels == {"dense", "bursty", "sparse"}


# ---------------------------------------------------------------------------
# The capstone sweep
# ---------------------------------------------------------------------------
class TestExperiment:
    def test_select_workloads_filters_and_falls_back(self):
        assert modern_experiment.select_workloads(None) == tuple(
            MODERN_WORKLOADS
        )
        assert modern_experiment.select_workloads(
            ("gcc", "kv-store")
        ) == ("kv-store",)
        assert modern_experiment.select_workloads(("gcc",)) == tuple(
            MODERN_WORKLOADS
        )

    def test_sweep_buckets_scales_with_footprint(self):
        assert modern_experiment.sweep_buckets(1_000) == 4096
        assert modern_experiment.sweep_buckets(1 << 20) == 1 << 18
        # Power of two, ~4 entries/bucket.
        buckets = modern_experiment.sweep_buckets(3_000_000)
        assert buckets & (buckets - 1) == 0
        assert 2 <= 3_000_000 / buckets <= 8

    def test_parse_footprints(self):
        assert modern_experiment.parse_footprints("16,64") == (16, 64)
        assert modern_experiment.parse_footprints("1.5") == (1.5,)

    def test_run_produces_a_row_per_cell(self):
        result = modern_experiment.run(
            trace_length=2_000, workloads=("compiler",),
            footprints=(2, 4), tables=("hashed", "clustered"),
        )
        labels = [row[0] for row in result.rows]
        assert labels == [
            "compiler/2MB/hashed", "compiler/2MB/clustered",
            "compiler/4MB/hashed", "compiler/4MB/clustered",
        ]
        by_label = result.by_label()
        # Figure 9 normalisation: hashed is the unit.
        assert by_label["compiler/2MB/hashed"][1] == 1.0
        # Figure 11: every replayed miss costs at least one line.
        assert all(row[3] >= 1.0 for row in result.rows)

    def test_scalar_and_batch_rows_match(self):
        rows = {}
        for engine in ("scalar", "batch"):
            clear_caches()
            configure_engine(engine)
            try:
                rows[engine] = modern_experiment.run_config(
                    "kv-store", 2, ("hashed", "clustered"),
                    trace_length=2_000,
                )
            finally:
                configure_engine("scalar")
        assert rows["scalar"] == rows["batch"]


# ---------------------------------------------------------------------------
# Bench artifact determinism
# ---------------------------------------------------------------------------
#: A small modern sweep under the bench's engine.
SMALL_SWEEP = ["experiment", "modern", "--trace-length", "2000",
               "--footprint", "2", "--engine", "batch"]


class TestBench:
    def test_bench_document_is_jobs_invariant(self, tmp_path):
        documents = {}
        for jobs in (1, 4):
            run_dir = tmp_path / f"jobs{jobs}"
            assert cli_main([*SMALL_SWEEP, "--jobs", str(jobs),
                             "--run-dir", str(run_dir)]) == 0
            documents[jobs] = (run_dir / "BENCH_modern.json").read_bytes()
        assert documents[1] == documents[4]
        assert len(json.loads(documents[1])["rows"]) == len(
            MODERN_WORKLOADS
        ) * len(modern_experiment.DEFAULT_TABLES)

    def test_bench_resume_reuses_journal(self, tmp_path):
        run_dir = tmp_path / "bench-run"
        assert cli_main([*SMALL_SWEEP, "--run-dir", str(run_dir)]) == 0
        fresh = (run_dir / "BENCH_modern.json").read_bytes()
        journal = (run_dir / "journal.jsonl").read_text()
        assert cli_main([*SMALL_SWEEP, "--resume", str(run_dir)]) == 0
        assert (run_dir / "journal.jsonl").read_text() == journal
        assert (run_dir / "BENCH_modern.json").read_bytes() == fresh
