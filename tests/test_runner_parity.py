"""Differential tests: parallel runner ≡ serial runner ≡ cached replays.

Three layers of cross-validation:

1. ``run_all(jobs>1)`` must produce bit-identical ``ExperimentResult``
   tables to the serial path (deterministic merge, deterministic
   experiments).
2. A warm persistent cache must change *nothing* except the work done:
   identical tables with zero phase-1 computations.
3. Replaying a cached (serialised + reloaded) stream must match both a
   fresh ``collect_misses`` replay and the integrated ``MMU`` oracle on
   randomized (trace, TLB, table) configurations.
"""

import json
import random

import pytest

from repro.analysis.metrics import make_table
from repro.cache.stream_cache import StreamCache, stream_cache_key
from repro.errors import ConfigurationError
from repro.experiments import common, runner, tenancy
from repro.mmu.mmu import MMU
from repro.mmu.simulate import collect_misses, replay_misses
from repro.os.translation_map import TranslationMap
from repro.resilience import FaultPlan, FaultRule, RetryPolicy
from repro.resilience.journal import METRICS_NAME, PROFILE_NAME

#: A small but representative runner subset: stream-replay experiments
#: (table1, fig11d with block prefetch) plus the direct-collect_misses
#: multiprogramming study.
SUBSET = ("table1", "fig11d", "multiprog")
WORKLOADS = ("mp3d", "compress")
TRACE_LENGTH = 12_000


#: table1's first experiment attempt fails with EIO; one retry recovers.
RETRIED_TABLE1 = FaultPlan((
    FaultRule("runner.experiment", "raise-eio", match="table1",
              max_attempt=1),
))

#: fig11a's first experiment attempt fails mid-task, after mp3d's
#: replays: on a warm cache over mp3d,gcc the task's third stream load
#: is gcc's first (mp3d's two come first).
MID_TASK_FIG11A = FaultPlan((
    FaultRule("cache.load_stream", "raise-eio", match="fig11a", at=3,
              max_attempt=1),
))

#: One cache-site rule in three windows, with the retries and permanent
#: failures it costs fig11a over mp3d,gcc from a warm cache with two
#: retries: five tasks load streams (four prewarm tasks and fig11a's),
#: and the rule fires in every attempt of each it is armed for.
LOAD_FAULTS = (
    (FaultRule("cache.load_stream", "raise-eio", max_attempt=1), 5, 0),
    (FaultRule("cache.load_stream", "raise-eio", times=99, max_attempt=1),
     5, 0),
    (FaultRule("cache.load_stream", "raise-eio"), 10, 5),
)


def results_fingerprint(results):
    """Rendered text of every result, keyed by id, order preserved."""
    return [(key, result.render(precision=3))
            for key, result in results.items()]


@pytest.fixture(autouse=True)
def _isolated(tmp_path):
    common.clear_caches()
    yield
    common.clear_caches()
    common.configure_stream_cache(None)


class TestRunnerParity:
    def test_parallel_matches_serial_and_warm_cache_is_pure(self, tmp_path):
        cache_dir = str(tmp_path / "streams")

        serial_metrics = runner.RunMetrics()
        serial = runner.run_all(
            TRACE_LENGTH, jobs=1, cache_dir=cache_dir,
            workloads=WORKLOADS, only=SUBSET,
            metrics=serial_metrics,
        )
        assert list(serial) == list(SUBSET)
        assert serial_metrics.cache.misses > 0  # cold cache computed streams

        common.clear_caches()
        parallel_metrics = runner.RunMetrics()
        parallel = runner.run_all(
            TRACE_LENGTH, jobs=2, cache_dir=cache_dir,
            workloads=WORKLOADS, only=SUBSET,
            metrics=parallel_metrics,
        )
        assert results_fingerprint(parallel) == results_fingerprint(serial)
        # Warm cache: the parallel run performed zero phase-1 simulations.
        assert parallel_metrics.cache.misses == 0
        assert parallel_metrics.cache.hits > 0
        assert parallel_metrics.prewarm_tasks > 0

        # And a cache-less parallel run still agrees bit-for-bit.
        common.clear_caches()
        uncached = runner.run_all(
            TRACE_LENGTH, jobs=2, cache_dir=None,
            workloads=WORKLOADS, only=SUBSET,
        )
        assert results_fingerprint(uncached) == results_fingerprint(serial)

    def test_cache_summary_matches_between_serial_and_parallel(self, tmp_path):
        """Regression: the summary line must not depend on the job count.

        The serial path used to merge the whole-process ``cache.stats``
        while the parallel path merged per-worker deltas, so the same run
        reported different hit/miss counts under ``--jobs 1`` and
        ``--jobs N``.  Both paths now run the same prewarm stage, and
        every task counts into a registry of its own.
        """
        subset = ("table1", "fig11d")
        names = ("mp3d",)

        # Cold caches, separately per mode so both start empty.
        cold_serial_dir = str(tmp_path / "cold-serial")
        cold_parallel_dir = str(tmp_path / "cold-parallel")
        serial_cold = runner.RunMetrics()
        runner.run_all(
            TRACE_LENGTH, jobs=1, cache_dir=cold_serial_dir,
            workloads=names, only=subset,
            metrics=serial_cold,
        )
        common.clear_caches()
        parallel_cold = runner.RunMetrics()
        runner.run_all(
            TRACE_LENGTH, jobs=2, cache_dir=cold_parallel_dir,
            workloads=names, only=subset,
            metrics=parallel_cold,
        )
        assert (
            serial_cold.cache_summary().replace(cold_serial_dir, "DIR")
            == parallel_cold.cache_summary().replace(cold_parallel_dir, "DIR")
        )
        assert serial_cold.prewarm_tasks == parallel_cold.prewarm_tasks

        # Warm cache: both modes over the *same* directory must agree too.
        common.clear_caches()
        serial_warm = runner.RunMetrics()
        runner.run_all(
            TRACE_LENGTH, jobs=1, cache_dir=cold_serial_dir,
            workloads=names, only=subset,
            metrics=serial_warm,
        )
        common.clear_caches()
        parallel_warm = runner.RunMetrics()
        runner.run_all(
            TRACE_LENGTH, jobs=2, cache_dir=cold_serial_dir,
            workloads=names, only=subset,
            metrics=parallel_warm,
        )
        assert serial_warm.cache_summary() == parallel_warm.cache_summary()
        assert serial_warm.cache.misses == 0
        assert serial_warm.cache.hits == parallel_warm.cache.hits > 0

        # No cache: both report the disabled summary.
        common.clear_caches()
        serial_off = runner.RunMetrics()
        runner.run_all(
            TRACE_LENGTH, jobs=1, cache_dir=None,
            workloads=names, only=subset,
            metrics=serial_off,
        )
        common.clear_caches()
        parallel_off = runner.RunMetrics()
        runner.run_all(
            TRACE_LENGTH, jobs=2, cache_dir=None,
            workloads=names, only=subset,
            metrics=parallel_off,
        )
        assert serial_off.cache_summary() == parallel_off.cache_summary()
        assert "disabled" in serial_off.cache_summary()

    @pytest.mark.parametrize("unrelated_artefact", [False, True])
    def test_cache_summary_under_store_faults(
        self, tmp_path, unrelated_artefact
    ):
        """Regression: a failed attempt's cache traffic is dropped at
        ``--jobs 1`` too, whatever the cache directory held before.

        The stores of table1's stream in its first two attempts fail with
        ENOSPC, so its prewarm task computes the stream three times and
        keeps the third.  The summary used to say ``computed=3`` from an empty
        cache directory but ``computed=1`` from one holding any
        artefact, while the registry said 3 both times.
        """
        cache_dir, run_dir = tmp_path / "streams", tmp_path / "run"
        if unrelated_artefact:
            shard = cache_dir / "00"
            shard.mkdir(parents=True)
            (shard / f"{'00' * 32}.npz").write_bytes(b"never read")
        runner.run_all(
            TRACE_LENGTH, jobs=1, cache_dir=str(cache_dir),
            workloads=("mp3d",), only=("table1",),
            resilience=runner.ResilienceConfig(
                retry=RetryPolicy(max_retries=2, base_delay=0.0),
                run_dir=str(run_dir),
                fault_plan=FaultPlan((
                    FaultRule("cache.store_stream", "raise-enospc",
                              max_attempt=2),
                )),
            ),
        )
        doc = json.loads((run_dir / METRICS_NAME).read_text())
        assert doc["run"]["cache_summary"] == (
            f"[stream cache: hits=1 computed=1 stored=1 errors=0 "
            f"dir={cache_dir}]"
        )
        assert doc["run"]["task_retries"] == 2
        assert [
            value for name, _, value in doc["registry"]["counters"]
            if name == "stream_cache.misses"
        ] == [1]

    def test_a_run_registry_holds_only_its_own_run(self, tmp_path):
        """Regression: a run's ``metrics.json`` used to persist the
        process-wide registry, so an earlier run in the same process
        leaked into it (here fig9's task time and its retry)."""
        runner.run_all(
            TRACE_LENGTH, workloads=WORKLOADS, only=("fig9",),
            resilience=runner.ResilienceConfig(
                retry=RetryPolicy(max_retries=1, base_delay=0.0),
                fault_plan=FaultPlan((
                    FaultRule("runner.experiment", "raise-eio",
                              match="fig9", max_attempt=1),
                )),
            ),
        )
        run_dir = tmp_path / "run"
        metrics = runner.RunMetrics()
        runner.run_all(
            TRACE_LENGTH, workloads=WORKLOADS, only=("table1",),
            resilience=runner.ResilienceConfig(run_dir=str(run_dir)),
            metrics=metrics,
        )
        doc = json.loads((run_dir / METRICS_NAME).read_text())
        tasks = [
            payload["count"]
            for name, labels, payload in doc["registry"]["histograms"]
            if name == "runner.task_seconds"
            and labels == {"stage": "experiment"}
        ]
        assert tasks == [doc["run"]["experiment_tasks"]] == [1]
        assert doc["registry"] == json.loads(
            json.dumps(metrics.registry.state())
        )
        assert "fig9" not in json.dumps(doc["registry"])

    def test_registry_parity_between_serial_and_parallel(self, tmp_path):
        """``--jobs N`` must not lose telemetry, and ``--jobs 1`` must not
        keep a failed attempt's, on four inputs.

        - table1 and fig11d, fault-free and when table1's first attempt
          fails at task entry: the registry's counters and
          non-``runner.*`` histograms, and the walk profile, equal the
          serial run's.
        - fig11a when its first attempt fails mid-task, after some of
          its walks: one retry, and the walk profile, the
          non-``runner.*`` histograms and the one ``task:fig11a`` span
          equal the fault-free run's at both job counts.
        - fig11a under each of :data:`LOAD_FAULTS`: a fault window is
          counted per task attempt, so the retries, the failure
          manifest (in task order), the results and the counters are
          the same at both.
        - a 20-tenant sweep on the batch engine: ``metrics.json``
          counters and non-``runner.*`` histograms equal at both.

        Time-valued histograms (phase/task seconds) are excluded — their
        totals are wall-clock and legitimately differ between modes.
        """
        def profiled_run(jobs, name, plan, keep_going=False, **kwargs):
            """One profiled run into ``run-<name>``; returns its metrics,
            the registry its ``metrics.json`` holds, and its results.

            A run fails fast with one retry, so a task that fails for
            good fails the test, unless ``keep_going`` allows two
            retries and records the failures instead."""
            common.clear_caches()
            metrics = runner.RunMetrics()
            run_dir = tmp_path / f"run-{name}"
            kwargs.setdefault("cache_dir", str(tmp_path / f"c-{name}"))
            results = runner.run_all(
                jobs=jobs,
                resilience=runner.ResilienceConfig(
                    run_dir=str(run_dir),
                    retry=RetryPolicy(
                        max_retries=2 if keep_going else 1, base_delay=0.0
                    ),
                    keep_going=keep_going,
                    fault_plan=plan,
                ),
                profile=True,
                metrics=metrics,
                **kwargs,
            )
            doc = json.loads((run_dir / METRICS_NAME).read_text())
            return metrics, doc["registry"], results

        def histograms(state):
            """All but the ``runner.*`` histograms, as JSON text: 1 and
            1.0 compare equal, but print differently in metrics.json and
            --metrics."""
            return json.dumps([
                entry for entry in state["histograms"]
                if not entry[0].startswith("runner.")
            ], sort_keys=True)

        subset = dict(
            trace_length=TRACE_LENGTH, workloads=WORKLOADS,
            only=("table1", "fig11d"),
        )
        for retried, plan in enumerate((None, RETRIED_TABLE1)):
            serial, serial_state, _ = profiled_run(
                1, f"serial-{retried}", plan, **subset
            )
            parallel, parallel_state, _ = profiled_run(
                2, f"parallel-{retried}", plan, **subset
            )
            assert serial_state["counters"] == parallel_state["counters"]
            assert serial.registry.counter(
                "runner.task_retries", experiment="table1"
            ) == retried
            # A failed attempt's injected fault goes with its registry.
            assert not serial.registry.values("faults.injected")
            # Walk costs are recorded once, in the walk profile.
            assert serial.walk_profile.total_walks > 0, (
                "profiled run recorded no walks"
            )
            assert not any(
                entry[0].startswith("walk.")
                for entry in serial_state["histograms"]
            )
            assert histograms(serial_state) == histograms(parallel_state)
            assert (serial.walk_profile.as_dict()
                    == parallel.walk_profile.as_dict())

        fig11a = dict(
            trace_length=2_000, workloads=("mp3d", "gcc"), only=("fig11a",),
            cache_dir=str(tmp_path / "c-fig11a"),
        )
        # The fault-free reference also warms the cache.
        _, clean_state, _ = profiled_run(1, "fig11a-clean", None, **fig11a)
        clean_profile = tmp_path / "run-fig11a-clean" / PROFILE_NAME
        for jobs in (1, 2):
            faulted, faulted_state, _ = profiled_run(
                jobs, f"fig11a-{jobs}", MID_TASK_FIG11A, **fig11a
            )
            assert faulted.summary_dict()["task_retries"] == 1
            assert (
                tmp_path / f"run-fig11a-{jobs}" / PROFILE_NAME
            ).read_text() == clean_profile.read_text()
            assert histograms(faulted_state) == histograms(clean_state)
            assert [
                span.name for span in faulted.spans
                if span.name == "task:fig11a"
            ] == ["task:fig11a"]

        for index, (rule, retries, failures) in enumerate(LOAD_FAULTS):
            runs = [
                profiled_run(
                    jobs, f"load-{index}-{jobs}", FaultPlan((rule,)),
                    keep_going=True, **fig11a,
                )
                for jobs in (1, 2)
            ]
            for metrics, _, _ in runs:
                assert metrics.summary_dict()["task_retries"] == retries
                assert len(metrics.failures) == failures
            (serial, serial_state, serial_results), (
                parallel, parallel_state, parallel_results
            ) = runs
            assert [
                (record.key, record.attempts) for record in serial.failures
            ] == [
                (record.key, record.attempts) for record in parallel.failures
            ]
            assert results_fingerprint(serial_results) == results_fingerprint(
                parallel_results
            )
            assert serial_state["counters"] == parallel_state["counters"]

        twenty = dict(
            trace_length=2_000, only=("tenancy",), engine="batch",
            cells={"tenancy": tenancy.cells(tenants=(20,))},
        )
        _, serial_state, _ = profiled_run(1, "tenancy-1", None, **twenty)
        _, parallel_state, _ = profiled_run(2, "tenancy-2", None, **twenty)
        assert serial_state["counters"], "the --jobs 1 run counted nothing"
        assert serial_state["counters"] == parallel_state["counters"]
        assert histograms(serial_state) == histograms(parallel_state)

    def test_phase_wall_seconds_are_recorded(self, tmp_path):
        metrics = runner.RunMetrics()
        runner.run_all(
            TRACE_LENGTH, jobs=1, cache_dir=str(tmp_path / "s"),
            workloads=("mp3d",), only=("table1",),
            metrics=metrics,
        )
        run = metrics.summary_dict()
        assert run["prewarm_wall_seconds"] > 0.0
        assert run["experiments_wall_seconds"] > 0.0
        assert (
            run["prewarm_wall_seconds"] + run["experiments_wall_seconds"]
            <= metrics.wall_seconds * 1.01
        )

    def test_each_phase_is_observed_once_per_run(self, tmp_path):
        metrics = runner.RunMetrics()
        runner.run_all(
            TRACE_LENGTH, jobs=1, cache_dir=str(tmp_path / "s"),
            workloads=("mp3d",), only=("table1",), profile=True,
            metrics=metrics,
        )
        # One runner.phase_seconds observation per phase per run, and a
        # phase:<name> span over each.
        for phase in ("prewarm", "experiments"):
            assert metrics.registry.histogram(
                "runner.phase_seconds", phase=phase
            ).count == 1
        assert sorted(
            span.name for span in metrics.spans if span.category == "phase"
        ) == ["phase:experiments", "phase:prewarm"]

    def test_select_experiments_keeps_paper_order(self):
        assert runner.select_experiments(None) == runner.EXPERIMENT_ORDER
        assert runner.select_experiments(
            ["multiprog", "table1"]
        ) == ("table1", "multiprog")
        with pytest.raises(Exception, match="unknown experiment"):
            runner.select_experiments(["nope"])

    def test_prewarm_plan_covers_selected_streams(self):
        plan = runner.stream_prewarm_plan(
            ("table1", "fig11d"), workloads=("mp3d",)
        )
        assert ("mp3d", "single", 64) in plan
        assert ("mp3d", "complete-subblock", 64) in plan
        assert ("mp3d", "complete-subblock", 56) in plan
        assert len(plan) == len(set(plan))  # deduplicated
        # Experiments with no replayed streams contribute nothing.
        assert runner.stream_prewarm_plan(("fig9", "pressure")) == ()
        # With no subset, a key plans its own workloads' streams only.
        for key, workloads in (
            ("numa", ("coral", "mp3d", "gcc")),
            ("guarded", ("coral", "mp3d", "compress", "gcc")),
            ("cachesim", ("coral", "mp3d", "ML", "gcc")),
        ):
            assert runner.stream_prewarm_plan((key,)) == tuple(
                (name, "single", 64) for name in workloads
            ), key


# ---------------------------------------------------------------------------
# Fail-fast: a poisoned worker must surface its error promptly
# ---------------------------------------------------------------------------
class TestFailFast:
    def test_bogus_workload_fails_the_parallel_run_promptly(self, tmp_path):
        """End to end: a prewarm worker hitting an unknown workload name
        must propagate ConfigurationError out of ``run_all``."""
        with pytest.raises(ConfigurationError, match="[Uu]nknown workload"):
            runner.run_all(
                TRACE_LENGTH, jobs=2, cache_dir=str(tmp_path / "s"),
                workloads=("mp3d", "no-such-workload"), only=("table1",),
            )


#: Randomized differential configs: (tlb kind, table, base_pages_only)
#: mirrors the Figure 11 pairings of TLB architecture and PTE formats.
_TLB_TABLE_CHOICES = (
    ("single", ("hashed", "clustered", "linear-1lvl", "forward-mapped"), True),
    ("superpage", ("clustered",), False),
    ("partial-subblock", ("clustered",), False),
    ("complete-subblock", ("hashed", "clustered"), True),
)


class TestCachedReplayDifferential:
    def test_cached_stream_replays_match_fresh_and_mmu(self, tmp_path, rng):
        cache = StreamCache(tmp_path / "streams")
        seen_kinds = set()
        for trial in range(6):
            workload_name = rng.choice(("mp3d", "coral"))
            tlb_kind, tables, base_only = rng.choice(_TLB_TABLE_CHOICES)
            table_name = rng.choice(tables)
            seen_kinds.add(tlb_kind)
            entries = rng.choice((32, 64))
            workload = common.get_workload(
                workload_name, trace_length=5_000, seed=rng.randrange(10_000)
            )
            tmap = TranslationMap.from_space(
                workload.union_space(), common.policy_for(tlb_kind)
            )
            tlb = common.TLB_FACTORIES[tlb_kind](entries)
            complete = tlb_kind == "complete-subblock"

            fresh = collect_misses(workload.trace, tlb, tmap)
            key = stream_cache_key(
                workload.trace, common.TLB_FACTORIES[tlb_kind](entries), tmap
            )
            cache.put(key, fresh)
            reloaded = cache.get(key)
            assert reloaded is not None

            def build_table():
                table = make_table(table_name, num_buckets=512)
                tmap.populate(table, base_pages_only=base_only)
                return table

            fresh_replay = replay_misses(
                fresh, build_table(), complete_subblock=complete
            )
            cached_replay = replay_misses(
                reloaded, build_table(), complete_subblock=complete
            )
            assert cached_replay == fresh_replay, (
                f"trial {trial}: {workload_name}/{tlb_kind}/{table_name}"
            )

            # Integrated oracle: one MMU run must agree on both the miss
            # count and the replayed cache-line total.
            mmu = MMU(common.TLB_FACTORIES[tlb_kind](entries), build_table())
            mmu.run_trace(workload.trace)
            assert mmu.stats.tlb_misses == reloaded.misses
            assert mmu.stats.cache_lines == cached_replay.cache_lines
        assert len(seen_kinds) >= 2  # the rng actually varied the hardware
