"""Observability: walk tracing, a metrics registry per run, spans.

Six small, dependency-light modules that let the simulator *explain
itself* instead of only reporting aggregate averages:

- :mod:`repro.obs.trace` — a :class:`~repro.obs.trace.WalkTracer` that
  records one structured event per page-table walk (table kind, probes,
  cache lines touched, resulting PTE kind, NUMA node) into a bounded
  ring buffer with JSONL export.  The hook lives in
  :meth:`repro.pagetables.base.PageTable.lookup` /
  ``lookup_block`` and costs one module-attribute check when disabled.
- :mod:`repro.obs.metrics` — the
  :class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges,
  histograms, all optionally labelled) that the stream cache, the TLB
  shootdown machinery, the replication layer and the runner report
  into; each run counts into its own (``use_registry``), and its
  ``metrics.json`` persists it (``python -m repro metrics RUN_DIR``).
- :mod:`repro.obs.spans` — hierarchical wall-clock spans (run → phase →
  task → stage) recorded in parent and worker processes and exported as
  Chrome trace-event JSON (``--profile-out``, loadable in Perfetto).
- :mod:`repro.obs.profile` — per-table walk profiles (exact cache-line
  and probe distributions, PTE-kind mix, hash heat rows): the one store
  each traced walk is counted in, rendered by ``repro.cli report``.
- :mod:`repro.obs.ledger` — the cross-*run* layer: an append-only
  benchmark ledger ingesting every ``BENCH_*.json`` and run-dir artefact
  into ``(family, config, metric)`` rows, with noise bands (median ±
  k·MAD) that ``benchmarks/bench_gate.py --ledger`` gates against.
- :mod:`repro.obs.watch` — live monitoring: the runner's atomic
  ``progress.json`` heartbeat (:class:`~repro.obs.watch.ProgressTracker`)
  and the ``repro watch`` snapshot/tail loop with ledger-derived ETA and
  loud stall detection.

The tracing invariant the differential tests enforce: over a traced
:func:`repro.mmu.simulate.replay_misses` run, the tracer's
``replay_lines`` total equals the replay's ``cache_lines`` exactly.
The tracer's other totals and the registry's ``walk.cache_lines`` /
``walk.probes`` histograms are views of the tracer's walk profile
(:meth:`~repro.obs.profile.WalkProfile.observe_into`), so they agree
with it by construction.
"""

from repro.obs.ledger import (
    BenchLedger,
    LedgerEvent,
    LedgerRow,
    NoiseBand,
    Stamp,
    current_stamp,
    noise_band,
    rows_from_bench,
    rows_from_run_dir,
)
from repro.obs.metrics import (
    HistogramStats,
    MetricsRegistry,
    get_registry,
    reset_registry,
    use_registry,
)
from repro.obs.profile import TableProfile, WalkProfile
from repro.obs.spans import (
    SpanRecord,
    SpanRecorder,
    active_recorder,
    export_chrome_trace,
    install_recorder,
    record_span,
    uninstall_recorder,
    validate_nesting,
)
from repro.obs.trace import (
    WalkEvent,
    WalkTracer,
    active_tracer,
    install_tracer,
    trace_walks,
    uninstall_tracer,
)

from repro.obs.watch import ProgressTracker, WatchSnapshot, snapshot, watch

__all__ = [
    "BenchLedger",
    "LedgerEvent",
    "LedgerRow",
    "NoiseBand",
    "Stamp",
    "current_stamp",
    "noise_band",
    "rows_from_bench",
    "rows_from_run_dir",
    "ProgressTracker",
    "WatchSnapshot",
    "snapshot",
    "watch",
    "HistogramStats",
    "MetricsRegistry",
    "get_registry",
    "reset_registry",
    "use_registry",
    "TableProfile",
    "WalkProfile",
    "SpanRecord",
    "SpanRecorder",
    "active_recorder",
    "export_chrome_trace",
    "install_recorder",
    "record_span",
    "uninstall_recorder",
    "validate_nesting",
    "WalkEvent",
    "WalkTracer",
    "active_tracer",
    "install_tracer",
    "trace_walks",
    "uninstall_tracer",
]
