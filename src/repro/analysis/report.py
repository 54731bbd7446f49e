"""Plain-text table rendering for experiment output.

Every experiment script prints its figure or table as an aligned text
table so results can be eyeballed against the paper in a terminal and
diffed across runs.  :func:`render_run_report` builds on the same
primitives to render one self-contained markdown report per run
directory (``repro.cli report``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

Cell = Union[str, int, float, None]


def _format_cell(value: Cell, precision: int) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    title: Optional[str] = None,
    precision: int = 2,
) -> str:
    """Render an aligned text table.

    The first column is left-aligned (row labels); the rest are
    right-aligned.  Floats are fixed to ``precision`` decimals; ``None``
    renders as ``-``.
    """
    formatted: List[List[str]] = [
        [_format_cell(cell, precision) for cell in row] for row in rows
    ]
    columns = len(headers)
    for row in formatted:
        if len(row) != columns:
            raise ValueError(
                f"row has {len(row)} cells, expected {columns}: {row}"
            )
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in formatted))
        if formatted
        else len(headers[i])
        for i in range(columns)
    ]

    def line(cells: Sequence[str]) -> str:
        parts = [cells[0].ljust(widths[0])]
        parts.extend(cell.rjust(widths[i + 1]) for i, cell in enumerate(cells[1:]))
        return "  ".join(parts)

    out: List[str] = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(line(list(headers)))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(row) for row in formatted)
    return "\n".join(out)


def render_run_metrics(metrics) -> str:
    """Render a runner's :class:`~repro.experiments.runner.RunMetrics`.

    Duck-typed (any object with ``timings``/``jobs``/…/``summary_dict``)
    so this low-level module needs no import from the experiment layer.
    Shows per-experiment wall time and stream-cache traffic, then the
    pool summary: jobs, prewarm stage, busy time, and worker utilisation.
    """
    rows = [
        [t.key, t.seconds, t.cache.hits, t.cache.misses, t.cache.errors]
        for t in metrics.timings
    ]
    table = render_table(
        ["experiment", "seconds", "stream hits", "computed", "errors"],
        rows, title="Run metrics", precision=3,
    )
    summary = [
        f"jobs: {metrics.jobs}   wall: {metrics.wall_seconds:.2f}s   "
        f"busy: {metrics.busy_seconds:.2f}s   "
        f"utilisation: {100.0 * metrics.utilisation:.0f}%",
        f"stream prewarm: {metrics.prewarm_tasks} task(s), "
        f"{metrics.prewarm_seconds:.2f}s",
    ]
    # Resilience accounting, only when something actually happened — a
    # default fault-free run renders byte-identically to before.
    run = metrics.summary_dict()
    retries = run["task_retries"]
    timeouts = run["task_timeouts"]
    resumed = run["resumed_skips"]
    failed = len(metrics.failures)
    if retries or timeouts or resumed or failed:
        summary.append(
            f"resilience: {retries} retr{'y' if retries == 1 else 'ies'}, "
            f"{timeouts} timeout(s), {resumed} resumed, {failed} failed"
        )
    return table + "\n\n" + "\n".join(summary)


# ---------------------------------------------------------------------------
# Run reports (repro.cli report)
# ---------------------------------------------------------------------------
#: Bump when the report sidecar's shape changes incompatibly (validated
#: by ``benchmarks/bench_gate.py --report-sidecar``).
REPORT_VERSION = 1

#: Eight-level bar glyphs for the hash heat rows.
_HEAT_GLYPHS = " ▁▂▃▄▅▆▇█"


def _heat_sparkline(cells: Sequence[int]) -> str:
    """Render a heat row as one block-glyph sparkline."""
    peak = max(cells) if cells else 0
    if peak <= 0:
        return " " * len(cells)
    top = len(_HEAT_GLYPHS) - 1
    return "".join(
        _HEAT_GLYPHS[min(top, (value * top + peak - 1) // peak)]
        for value in cells
    )


def _load_json(path: Path) -> Optional[Dict[str, object]]:
    """Parse one artefact; missing file → None, corrupt file → raises."""
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def _spark(values: Sequence[float]) -> str:
    """Min-max normalised sparkline over a metric's history.

    Uses the non-blank glyphs only, so every present value renders
    visibly; a flat series renders as a mid-height line.
    """
    if not values:
        return ""
    lo, hi = min(values), max(values)
    top = len(_HEAT_GLYPHS) - 1
    if hi <= lo:
        return _HEAT_GLYPHS[top // 2] * len(values)
    return "".join(
        _HEAT_GLYPHS[max(1, round((value - lo) / (hi - lo) * top))]
        for value in values
    )


# ---------------------------------------------------------------------------
# Cross-run renderers (repro trend / repro compare RUN_A RUN_B)
# ---------------------------------------------------------------------------
def render_ledger_trend(
    state,
    last: int = 20,
    families: Optional[Sequence[str]] = None,
    gated_only: bool = True,
) -> str:
    """Per-metric sparklines over a loaded ledger (``repro trend``).

    ``state`` is a :class:`repro.obs.ledger.LedgerState`.  By default
    only regression-gated metrics (plus the run family's wall seconds)
    are shown; ``gated_only=False`` trends every key the ledger holds.
    Band derivation rules apply: history restarts after the latest
    improvement event for a key.
    """
    from repro.obs.ledger import GATED_METRICS

    def wanted(family: str, metric: str) -> bool:
        if families and family not in families:
            return False
        if not gated_only:
            return True
        if family == "run":
            return metric == "wall_seconds"
        return metric in GATED_METRICS.get(family, {})

    rows = []
    for family, config, metric in state.keys():
        if not wanted(family, metric):
            continue
        values = state.history(family, config, metric, last=last)
        if not values:
            continue
        rows.append([
            family, config, metric, len(values),
            _spark(values), values[-1],
        ])
    if not rows:
        return (
            "ledger trend: no matching history — ingest bench documents "
            "with `bench_gate.py --record` first"
        )
    return render_table(
        ["family", "config", "metric", "n", f"last {last}", "latest"],
        rows, title="Cross-run trend (oldest → newest)", precision=4,
    )


def render_run_delta(
    rows_a: Sequence, rows_b: Sequence, label_a: str, label_b: str
) -> str:
    """Delta table between two runs' ledger rows (``repro compare A B``).

    ``rows_a``/``rows_b`` are :class:`repro.obs.ledger.LedgerRow` lists
    (from :func:`repro.obs.ledger.rows_from_run_dir`); rows join on
    ``(family, config, metric)``.  Keys present on only one side are
    summarised, not dropped silently.
    """
    index_a = {row.key: row.value for row in rows_a}
    index_b = {row.key: row.value for row in rows_b}
    shared = sorted(index_a.keys() & index_b.keys())
    rows = []
    for key in shared:
        family, config, metric = key
        a, b = index_a[key], index_b[key]
        if a != 0:
            delta = f"{100.0 * (b - a) / abs(a):+.1f}%"
        else:
            delta = "-" if b == 0 else "new"
        rows.append([family, config, metric, a, b, delta])
    lines = []
    if rows:
        lines.append(render_table(
            ["family", "config", "metric", label_a, label_b, "delta"],
            rows, title=f"Run comparison: {label_a} vs {label_b}",
            precision=4,
        ))
    else:
        lines.append(
            f"run comparison: no shared (family, config, metric) keys "
            f"between {label_a} and {label_b}"
        )
    only_a = len(index_a.keys() - index_b.keys())
    only_b = len(index_b.keys() - index_a.keys())
    if only_a or only_b:
        lines.append("")
        lines.append(
            f"[{only_a} metric(s) only in {label_a}, "
            f"{only_b} only in {label_b}]"
        )
    return "\n".join(lines)


#: Most trajectory rows a run report shows before truncating.
_TRAJECTORY_LIMIT = 24


def _trajectory_keys(root: Path) -> List[Tuple[str, str, str]]:
    """The headline (family, config, metric) keys of one run directory.

    Every regression-gated metric of every ``BENCH_*.json`` present,
    plus the run's wall clock.  Order is deterministic: families in
    file order, configs and metrics sorted.
    """
    from repro.obs.ledger import GATED_METRICS, rows_from_bench
    from repro.resilience.journal import METRICS_NAME

    keys: List[Tuple[str, str, str]] = []
    for path in sorted(root.glob("BENCH_*.json")):
        doc = _load_json(path)
        if not isinstance(doc, dict) or not doc.get("benchmark"):
            continue
        family = str(doc["benchmark"])
        gated = GATED_METRICS.get(family, {})
        try:
            rows = rows_from_bench(doc, source=path.name)
        except ValueError:
            continue
        for row in sorted(rows, key=lambda r: (r.config, r.metric)):
            if row.metric in gated:
                keys.append(row.key)
    if (root / METRICS_NAME).exists():
        keys.append(("run", "*", "wall_seconds"))
    return keys



def _render_speedup_dips(doc: Dict[str, object]) -> List[str]:
    """Markdown lines for a speedup bench doc's per-config dips.

    ``benchmarks/bench_gate.py --family batch=`` gates only the *aggregate*
    batch-over-scalar speedup, so an individual configuration running
    slower than scalar (speedup < 1x) passes the lane silently.  Any
    bench doc shaped like ``BENCH_batch.json`` (an ``aggregate_speedup``
    plus per-config ``speedup`` records) gets those dips surfaced here.
    """
    aggregate = doc.get("aggregate_speedup")
    configs = doc.get("configs")
    if not isinstance(aggregate, (int, float)) or not isinstance(
        configs, list
    ):
        return []
    dips = []
    for record in configs:
        if not isinstance(record, dict) or "speedup" not in record:
            continue
        if float(record.get("speedup", 0.0)) < 1.0:
            label = record.get("config") or "/".join(
                str(record[column])
                for column in ("workload", "tlb", "table")
                if column in record
            )
            dips.append((label or "?", float(record["speedup"])))
    lines = [
        f"aggregate speedup: **{aggregate}x** over {len(configs)} "
        "config(s)"
    ]
    if dips:
        lines.append("")
        lines.append(
            "Configs slower than scalar (pass the aggregate gate but "
            "regressed individually):"
        )
        lines.append("")
        for label, speedup in dips:
            lines.append(f"- `{label}`: {speedup}x")
    return lines


def render_run_report(
    run_dir: os.PathLike, ledger_path: Optional[os.PathLike] = None
) -> Tuple[str, Dict[str, object]]:
    """One self-contained markdown report for a run directory.

    Reads every artefact the runner leaves behind — ``journal.jsonl``,
    ``metrics.json``, ``walk_profile.json``, ``trace.json``, and any
    ``BENCH_*.json`` — and returns ``(markdown, sidecar)``: the rendered
    report and its machine-readable JSON sidecar (schema gated by
    ``benchmarks/bench_gate.py``).  Absent artefacts degrade to an
    explicit note, never silently.

    ``ledger_path`` (or the resolvable default — ``$REPRO_LEDGER``, then
    an existing ``ledger.jsonl`` beside the run) adds a **trajectory**
    section: a last-5-runs sparkline per headline metric from the
    cross-run ledger, with missing history called out explicitly.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profile import WalkProfile
    from repro.resilience.journal import (
        JOURNAL_NAME,
        METRICS_NAME,
        PROFILE_NAME,
        TRACE_NAME,
        RunJournal,
    )

    root = Path(run_dir)
    if not root.is_dir():
        raise FileNotFoundError(f"run directory not found: {root}")
    metrics_doc = _load_json(root / METRICS_NAME)
    profile_doc = _load_json(root / PROFILE_NAME)
    journal_summary = (
        RunJournal(root).summary() if (root / JOURNAL_NAME).exists() else None
    )

    run: Dict[str, object] = (
        dict(metrics_doc.get("run", {})) if metrics_doc else {}
    )
    registry_state = (
        dict(metrics_doc.get("registry", {})) if metrics_doc else {}
    )
    registry = MetricsRegistry()
    registry.merge_state(registry_state)

    lines: List[str] = [f"# Run report — {root.name}", ""]

    # -- run summary -------------------------------------------------------
    lines.append("## Run summary")
    lines.append("")
    if metrics_doc is None:
        lines.append(
            f"*No `{METRICS_NAME}` in this run directory — re-run with "
            "`--run-dir` to produce one.*"
        )
    else:
        spans = dict(run.get("spans", {}))
        lines.append(
            f"- jobs: **{run.get('jobs', '?')}**, wall: "
            f"**{float(run.get('wall_seconds', 0.0)):.2f}s**, utilisation: "
            f"**{100.0 * float(run.get('utilisation', 0.0)):.0f}%**"
        )
        lines.append(f"- {run.get('cache_summary', '[stream cache: unknown]')}")
        lines.append(
            f"- phases: prewarm "
            f"{float(run.get('prewarm_wall_seconds', 0.0)):.2f}s "
            f"({run.get('prewarm_tasks', 0)} task(s)), experiments "
            f"{float(run.get('experiments_wall_seconds', 0.0)):.2f}s"
        )
        if spans:
            lines.append(
                f"- spans: {spans.get('count', 0)} recorded, run coverage "
                f"{100.0 * float(spans.get('run_coverage', 0.0)):.1f}% of "
                "measured wall time"
            )
        resilience_bits = [
            f"{run.get('task_retries', 0)} retries",
            f"{run.get('task_timeouts', 0)} timeouts",
            f"{run.get('resumed_skips', 0)} resumed",
        ]
        lines.append(f"- resilience: {', '.join(resilience_bits)}")
        # engine.replays{engine,table} per engine; engine.fallback has no
        # engine label and is totalled as "fallback".
        replays: Dict[str, int] = {"batch": 0, "scalar": 0, "fallback": 0}
        for name, labels, value in registry_state.get("counters", []):
            if name in ("engine.replays", "engine.fallback"):
                engine = labels.get("engine", "fallback")
                replays[engine] += int(value)
        lines.append(
            "- replays: {batch} batch, {scalar} scalar ({fallback} batch "
            "fallbacks)".format(**replays)
        )
    lines.append("")

    # -- experiments -------------------------------------------------------
    timings = [dict(t) for t in run.get("timings", [])]
    lines.append("## Experiments")
    lines.append("")
    if timings:
        lines.append("```text")
        lines.append(render_table(
            ["experiment", "seconds", "stream hits", "computed"],
            [
                [t.get("experiment"), float(t.get("seconds", 0.0)),
                 t.get("cache_hits", 0), t.get("cache_computed", 0)]
                for t in timings
            ],
            precision=3,
        ))
        lines.append("```")
    else:
        lines.append("*No experiment timings recorded.*")
    lines.append("")

    # -- metrics -----------------------------------------------------------
    lines.append("## Metrics")
    lines.append("")
    rendered = registry.render()
    if rendered:
        lines.append("```text")
        lines.append(rendered)
        lines.append("```")
    else:
        lines.append("*Empty metrics registry.*")
    lines.append("")

    # -- walk profile ------------------------------------------------------
    lines.append("## Walk profile")
    lines.append("")
    profile_tables: Dict[str, Dict[str, object]] = {}
    if profile_doc:
        profile = WalkProfile.from_dict(profile_doc)
        profile_tables = {
            name: table.as_dict()
            for name, table in sorted(profile.tables.items())
        }
        lines.append("```text")
        lines.append(render_table(
            ["table", "walks", "faults", "mean lines",
             "p50", "p95", "p99", "probes p50", "p95 ", "p99 "],
            [
                [name, t.walks, t.faults, t.mean_lines,
                 t.lines_percentile(0.50), t.lines_percentile(0.95),
                 t.lines_percentile(0.99), t.probes_percentile(0.50),
                 t.probes_percentile(0.95), t.probes_percentile(0.99)]
                for name, t in sorted(profile.tables.items())
            ],
            title="Per-miss walk cost (exact percentiles, cache lines)",
            precision=3,
        ))
        lines.append("```")
        lines.append("")
        lines.append("PTE-kind mix and hash heat (lines per VPN-hash cell):")
        lines.append("")
        for name, table in sorted(profile.tables.items()):
            kinds = ", ".join(
                f"{kind}: {count}"
                for kind, count in sorted(table.kinds.items())
            )
            lines.append(f"- **{name}** — {kinds}")
            lines.append(f"  - heat `|{_heat_sparkline(table.heat)}|`")
    else:
        lines.append(
            f"*No `{PROFILE_NAME}` — run with `--run-dir` (or "
            "`--profile-out`) to collect walk profiles.*"
        )
    lines.append("")

    # -- span timeline -----------------------------------------------------
    trace_path = root / TRACE_NAME
    trace_info: Optional[Dict[str, object]] = None
    lines.append("## Span timeline")
    lines.append("")
    if trace_path.exists():
        trace_doc = _load_json(trace_path) or {}
        events = [
            e for e in trace_doc.get("traceEvents", [])
            if isinstance(e, dict) and e.get("ph") == "X"
        ]
        tracks = sorted({int(e.get("pid", 0)) for e in events})
        trace_info = {
            "path": trace_path.name,
            "spans": len(events),
            "tracks": len(tracks),
        }
        lines.append(
            f"`{trace_path.name}`: {len(events)} spans across "
            f"{len(tracks)} process track(s) — open it in "
            "[Perfetto](https://ui.perfetto.dev) or `chrome://tracing`."
        )
    else:
        lines.append(
            f"*No `{TRACE_NAME}` — pass `--profile-out "
            f"{root.name}/{TRACE_NAME}` to export the span timeline.*"
        )
    lines.append("")

    # -- failures ----------------------------------------------------------
    failures = [dict(f) for f in run.get("failures", [])]
    if journal_summary:
        seen = {json.dumps(f, sort_keys=True) for f in failures}
        for failure in journal_summary.get("failures", []):
            if json.dumps(failure, sort_keys=True) not in seen:
                failures.append(dict(failure))
    lines.append("## Failures")
    lines.append("")
    if failures:
        lines.append("```text")
        lines.append(render_table(
            ["experiment", "stage", "error", "attempts", "message"],
            [
                [f.get("experiment"), f.get("stage"), f.get("error_type"),
                 f.get("attempts"), str(f.get("message", ""))[:60]]
                for f in failures
            ],
        ))
        lines.append("```")
    else:
        lines.append("*No failures.*")
    lines.append("")

    # -- bench artefacts ---------------------------------------------------
    bench_files = sorted(root.glob("BENCH_*.json"))
    bench: List[Dict[str, object]] = []
    lines.append("## Bench artefacts")
    lines.append("")
    for path in bench_files:
        doc = _load_json(path)
        if isinstance(doc, dict):
            bench.append({"file": path.name, "bench": doc})
            rows = doc.get("rows")
            headers = doc.get("headers")
            if isinstance(rows, list) and isinstance(headers, list):
                lines.append(f"`{path.name}`:")
                lines.append("")
                lines.append("```text")
                lines.append(render_table(
                    [str(h) for h in headers],
                    [list(row) for row in rows], precision=3,
                ))
                lines.append("```")
            else:
                lines.append(f"`{path.name}` (no tabular payload)")
            lines.append("")
            speedup_lines = _render_speedup_dips(doc)
            if speedup_lines:
                lines.extend(speedup_lines)
                lines.append("")
    if not bench_files:
        lines.append(
            "*No `BENCH_*.json` in this run directory (a run that "
            "completes numa, tenancy or modern writes one here).*"
        )
        lines.append("")

    # -- trajectory --------------------------------------------------------
    from repro.obs.ledger import BenchLedger, default_ledger_path

    resolved_ledger = (
        Path(ledger_path) if ledger_path is not None
        else default_ledger_path(root)
    )
    trajectory: List[Dict[str, object]] = []
    lines.append("## Trajectory")
    lines.append("")
    if resolved_ledger is None or not Path(resolved_ledger).exists():
        lines.append(
            "*No ledger — pass `--ledger FILE` (or set `REPRO_LEDGER`) "
            "to trend this run's headline metrics across runs.*"
        )
    else:
        state = BenchLedger(resolved_ledger).load()
        keys = _trajectory_keys(root)
        shown = keys[:_TRAJECTORY_LIMIT]
        rows = []
        for family, config, metric in shown:
            values = state.history(family, config, metric, last=5)
            rows.append([
                family, config, metric, len(values),
                _spark(values) if values else "(no history)",
                values[-1] if values else None,
            ])
            trajectory.append({
                "family": family, "config": config, "metric": metric,
                "history": values,
            })
        if rows:
            lines.append(f"Ledger: `{resolved_ledger}` — last 5 runs per "
                         "headline metric (oldest → newest):")
            lines.append("")
            lines.append("```text")
            lines.append(render_table(
                ["family", "config", "metric", "n", "last 5", "latest"],
                rows, precision=4,
            ))
            lines.append("```")
            if len(keys) > len(shown):
                lines.append("")
                lines.append(
                    f"*(+{len(keys) - len(shown)} more metric(s) — "
                    "see `repro trend` for the full set.)*"
                )
        else:
            lines.append(
                "*No headline metrics in this run directory (no "
                "`BENCH_*.json` or `metrics.json`).*"
            )
    lines.append("")

    markdown = "\n".join(lines).rstrip() + "\n"
    sidecar: Dict[str, object] = {
        "report_version": REPORT_VERSION,
        "run_dir": str(root),
        "metrics": {
            "counters": list(registry_state.get("counters", [])),
            "gauges": list(registry_state.get("gauges", [])),
            "histograms": list(registry_state.get("histograms", [])),
        },
        "run": run,
        "phases": [
            {"phase": "prewarm",
             "wall_seconds": run.get("prewarm_wall_seconds", 0.0)},
            {"phase": "experiments",
             "wall_seconds": run.get("experiments_wall_seconds", 0.0)},
        ],
        "experiments": timings,
        "failures": failures,
        "walk_profile": profile_tables or None,
        "journal": journal_summary,
        "trace": trace_info,
        "bench": bench,
        "trajectory": trajectory,
    }
    return markdown, sidecar


def render_failure_manifest(failures) -> str:
    """Render a ``--keep-going`` run's permanent failures as a table.

    Duck-typed over :class:`~repro.experiments.runner.FailureRecord`
    (``key``/``stage``/``error_type``/``message``/``attempts``/``seed``).
    """
    rows = [
        [
            record.key,
            record.stage,
            record.error_type,
            record.attempts,
            "-" if record.seed is None else record.seed,
            record.message[:60],
        ]
        for record in failures
    ]
    return render_table(
        ["experiment", "stage", "error", "attempts", "seed", "message"],
        rows, title="Failure manifest",
    )
