"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list-workloads``
    The calibrated suite with Table 1 characteristics.
``describe WORKLOAD``
    Layout, density, and page-table sizes for one workload.
``experiment ID [--fast | --trace-length N] [--engine scalar|batch]
[--cache-dir DIR | --no-cache] [--workloads NAMES] [--chart]
[--trace-out FILE] [run options]``
    Regenerate one table/figure or extension study: ``table1``, ``fig9``,
    ``fig10``, ``fig11a``–``fig11d``, ``table2``, ``sensitivity``,
    ``softtlb``, ``multisize``, ``multiprog``, ``guarded``, ``sasos``,
    ``cachesim``, ``pressure``, ``promotion-scan``, ``numa``,
    ``tenancy``, ``modern``, ``claims``, or ``all`` (the whole suite in
    paper order).  Every id runs its :func:`runner_keys` through
    :func:`repro.experiments.runner.run_all`; ``claims`` judges the
    paper's claims on those results.  The ``numa`` study accepts
    ``--topology`` (machine list: preset names or topology JSON files)
    and ``--replication`` (policy subset); ``tenancy`` accepts
    ``--tenants`` (comma-separated populations, e.g.
    ``100,1000,10000``) and ``--churn`` (mode subset from
    ``static,churn``); ``modern`` accepts ``--footprint`` (MB list);
    both of the last two accept ``--tables``.  These restriction flags
    become the id's ``run_all`` cells, and any other id given one exits
    2.  A ``--run-dir`` run of these three ids, ``all`` included, also
    writes each one's bench document, ``BENCH_<id>.json``, into the run
    directory.  ``--workloads`` takes known names only, must name a
    modern model for ``modern``, and is refused by the studies that pick
    their own; ``claims`` and ``all`` refuse ``--chart``.
    ``--trace-out FILE`` records one structured event per page-table
    walk and exports the trace as JSON Lines, at any ``--jobs``: each
    successful task's events join the ring in completion order.
    The run options ``--jobs N --json FILE --csv DIR --metrics
    --profile-out FILE --max-retries N --task-timeout S --keep-going
    --run-dir DIR --resume DIR --fault-plan FILE`` set how the runner's
    resilient scheduler runs any id (``--profile-out`` profiles the run
    and exports a Chrome trace-event timeline for Perfetto).  Only
    ``all`` reads ``--only IDS`` (runner keys), uses the persistent
    stream cache in the user cache directory by default (a single id
    has none unless ``--cache-dir``), and prints the run-metrics footer.
``topology [NAME|FILE] [--validate FILE]``
    NUMA machine models: list the presets, print one preset's (or a JSON
    file's) latency matrix, or validate a topology JSON file.
``compare WORKLOAD`` / ``compare RUN_A RUN_B`` / ``compare OLD.json NEW.json``
    With one workload name: quick both-metrics shoot-out.  With two run
    directories: a cross-run delta table over every (family, config,
    metric) the two runs share (metrics.json, walk_profile.json, and
    any ``BENCH_*.json``).  With two ``experiment all --json``
    exports: every numeric cell that drifted by 2% or more (exit 1 on
    any drift).
``trend [--ledger FILE] [--family F] [--last N] [--all]``
    Per-metric sparklines over the cross-run benchmark ledger (gated
    metrics by default; ``--all`` trends every key).
``watch RUN_DIR [--once] [--stall-timeout S] [--interval S]``
    Tail a run directory's heartbeat + journal: progress bar, phase,
    ETA (from ledger history when available), and loud stall detection.
    Exit codes: 0 finished, 1 interrupted/failed, 2 missing, 3 stalled.
``metrics RUN_DIR [--json]``
    Dump a finished run's persisted ``metrics.json`` registry from its
    run directory; ``experiment ID --metrics`` prints a run's live one.
``report RUN_DIR [--ledger FILE]``
    Render one self-contained markdown report for a run directory
    (metrics block, phase/span summary, walk-cost percentiles per table,
    failure manifest, bench artefacts, cross-run trajectory sparklines
    when a ledger is available); writes ``report.md`` plus a JSON
    sidecar ``report.json`` into the run directory and prints the
    markdown.
``validate [--fast]``
    Audit every workload's calibration, paper and modern, against its
    Table 1 targets at 100k references (non-zero exit on drift).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from repro.analysis.metrics import make_table, normalised_sizes, table_sizes
from repro.analysis.report import render_table
from repro.experiments import claims
from repro.experiments.runner import CATALOGUE, CELLED, EXPERIMENT_ORDER
from repro.workloads.suite import PAPER_WORKLOADS, load_workload


def _id_of(key: str) -> str:
    """The experiment id that runs a runner key: the ``sens_*`` keys form
    ``sensitivity``, and any other key is its own id, spelled with
    ``-`` for ``_``."""
    return "sensitivity" if key.startswith("sens_") else key.replace("_", "-")


#: Experiment ids accepted by the ``experiment`` command, in paper order:
#: the runner's keys as ids, then ``claims`` and ``all``.
EXPERIMENT_IDS = (
    *dict.fromkeys(map(_id_of, EXPERIMENT_ORDER)), "claims", "all",
)


def runner_keys(exp_id: str) -> Tuple[str, ...]:
    """The runner keys (``EXPERIMENT_ORDER`` entries) one id regenerates:
    ``claims`` evaluates the paper's claims over :data:`claims.KEYS
    <repro.experiments.claims.KEYS>`, and ``all`` runs every key."""
    if exp_id == "claims":
        return claims.KEYS
    return tuple(
        key for key in EXPERIMENT_ORDER if exp_id in ("all", _id_of(key))
    )


#: ``experiment`` flags that only some ids read: dest → those ids.  Any
#: other id given one is a usage error rather than silently ignoring it.
_FLAG_READERS = {
    "only": ("all",),
    "topology": ("numa",),
    "replication": ("numa",),
    "tenants": ("tenancy",),
    "churn": ("tenancy",),
    "tables": ("tenancy", "modern"),
    "footprint": ("modern",),
    # Synthetic-space and analytic studies pick their own workloads (no
    # catalogue workloads), and the claims name theirs.
    "workloads": tuple(
        exp_id for exp_id in EXPERIMENT_IDS if exp_id != "claims" and any(
            CATALOGUE[key].workloads is not None
            for key in runner_keys(exp_id)
        )
    ),
    "chart": tuple(i for i in EXPERIMENT_IDS if i not in ("claims", "all")),
}


def _cmd_list_workloads(args: argparse.Namespace) -> int:
    rows = []
    for name, spec in PAPER_WORKLOADS.items():
        total, user, misses_k, pct, kb = spec.table1
        rows.append(
            [name, spec.density, spec.processes,
             kb, pct if pct else None, spec.description]
        )
    print(render_table(
        ["workload", "density", "procs", "hashed-PT KB (paper)",
         "%time TLB (paper)", "description"],
        rows, title="Calibrated workload suite (Table 1)",
    ))
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    workload = load_workload(args.workload, with_trace=False)
    print(f"{workload.name}: {workload.spec.description}")
    print(f"  processes:     {len(workload.spaces)}")
    print(f"  mapped pages:  {workload.total_mapped_pages()}")
    for space in workload.spaces:
        print(
            f"  {space.name}: {len(space)} pages, "
            f"{space.nactive(space.layout.subblock_factor)} blocks, "
            f"mean block population "
            f"{space.mean_block_population():.1f}"
        )
    sizes = table_sizes(workload.spaces)
    norm = normalised_sizes(sizes)
    print("  page-table sizes (vs hashed):")
    for name, value in sorted(norm.items(), key=lambda kv: kv[1]):
        print(f"    {name:16s} {sizes[name]:9,d} B   {value:6.3f}")
    return 0


def _workloads(args: argparse.Namespace) -> Optional[List[str]]:
    """``--workloads`` as a list of names, each one a known workload, and
    for ``modern`` at least one modern model."""
    if not args.workloads:
        return None
    from repro.workloads.modern import MODERN_WORKLOADS

    workloads = [part.strip() for part in args.workloads.split(",")]
    known = sorted(PAPER_WORKLOADS) + sorted(MODERN_WORKLOADS)
    unknown = [name for name in workloads if name not in known]
    if unknown:
        args.usage_error(
            f"--workloads: unknown workload(s) {', '.join(unknown)}; "
            f"known: {', '.join(known)}"
        )
    if args.id == "modern" and not set(workloads) & set(MODERN_WORKLOADS):
        args.usage_error(
            f"--workloads: 'modern' sweeps only the modern models "
            f"({', '.join(MODERN_WORKLOADS)}), and {args.workloads} "
            "names none of them"
        )
    return workloads


def _tracing(trace_out: Optional[str]):
    """``--trace-out``'s walk tracer as a context, or no tracing."""
    from contextlib import nullcontext

    from repro.obs.trace import trace_walks

    return trace_walks() if trace_out else nullcontext()


def _print_trace(tracer, trace_out: Optional[str]) -> None:
    """Export a ``--trace-out`` tracer and report where it went."""
    if tracer is not None:
        path = tracer.export_jsonl(trace_out)
        print(tracer.summary())
        print(f"[trace written to {path}]")


def _cmd_experiment(args: argparse.Namespace) -> int:
    """Run one id, or ``all``, through ``run_all`` and print the results.

    Every id reads the run options.  ``all`` alone reads ``--only``,
    defaults to the user cache directory, and ends with the run-metrics
    footer."""
    from pathlib import Path

    from repro.analysis.report import (
        render_failure_manifest,
        render_run_metrics,
    )
    from repro.cache.stream_cache import default_cache_dir
    from repro.experiments import runner
    from repro.resilience.faults import FaultPlan
    from repro.resilience.retry import RetryPolicy

    for dest, readers in _FLAG_READERS.items():
        value = getattr(args, dest)
        if value is not None and value is not False and args.id not in readers:
            args.usage_error(
                f"--{dest.replace('_', '-')} is not read by '{args.id}' "
                f"(only by {', '.join(repr(r) for r in readers)})"
            )
    everything = args.id == "all"
    if args.trace_length is not None:
        trace_length = args.trace_length
    elif args.id == "claims":
        trace_length = 30_000 if args.fast else 60_000
    else:
        trace_length = 50_000 if args.fast else 200_000
    workloads = _workloads(args)
    cells = _cells(args, workloads)
    only = _only(args)
    jobs = 1 if args.jobs is None else args.jobs
    max_retries = 0 if args.max_retries is None else args.max_retries
    if jobs < 1:
        args.usage_error("--jobs must be at least 1")
    if max_retries < 0:
        args.usage_error("--max-retries must be >= 0")
    if args.resume and args.run_dir and args.resume != args.run_dir:
        args.usage_error("--resume DIR and --run-dir DIR must agree")
    cache_dir: Optional[str] = None
    if not args.no_cache:
        cache_dir = args.cache_dir
        if everything and cache_dir is None:
            cache_dir = str(default_cache_dir())
    fault_plan = None
    if args.fault_plan:
        fault_plan = FaultPlan.from_json(Path(args.fault_plan).read_text())
    resilience = runner.ResilienceConfig(
        retry=RetryPolicy(max_retries=max_retries),
        task_timeout=args.task_timeout,
        keep_going=args.keep_going,
        run_dir=args.resume or args.run_dir,
        resume=bool(args.resume),
        fault_plan=fault_plan,
    )
    metrics = runner.RunMetrics()
    try:
        with runner.sigterm_drains(), _tracing(args.trace_out) as tracer:
            # A run directory implies profiling: every run-dir then
            # carries the walk profile that `repro report` renders.
            results = runner.run_all(
                trace_length,
                jobs=jobs,
                cache_dir=cache_dir,
                workloads=workloads,
                only=only,
                metrics=metrics,
                resilience=resilience,
                profile=bool(args.profile_out or resilience.run_dir),
                engine=args.engine,
                cells=cells,
            )
    except runner.RunInterrupted:
        total = len(runner.select_experiments(only))
        print(runner.interrupt_line(metrics, total, resilience.run_dir))
        return 130
    holds = True
    if args.id == "claims":
        # A failed key leaves the claims unjudged: the manifest says why.
        verdicts = None if metrics.failures else claims.verify(results)
        holds = all(claim.holds for claim in verdicts or ())
        results = {} if verdicts is None else {
            "claims": claims.report(verdicts)
        }
    if args.chart:
        from repro.analysis.plot import chart_result

        clip = 5.0 if args.id in ("fig9", "fig10") else None
        blocks = [
            chart_result(result, clip=clip) for result in results.values()
        ]
    else:
        blocks = [result.render(precision=3) for result in results.values()]
    if blocks:
        print("\n\n".join(blocks), end="\n\n" if everything else "\n")
    if args.json:
        from repro.analysis.export import write_json

        print(f"[results written to {write_json(results, args.json)}]")
    if args.csv:
        from repro.analysis.export import write_csv

        paths = write_csv(results, args.csv)
        print(f"[{len(paths)} CSV files written to {args.csv}/]")
    if everything:
        print(render_run_metrics(metrics))
        print(metrics.cache_summary())
    _print_trace(tracer, args.trace_out)
    if args.profile_out:
        from repro.obs.spans import export_chrome_trace

        path = export_chrome_trace(metrics.spans, args.profile_out)
        print(f"[profile written to {path} ({len(metrics.spans)} spans)]")
    if args.metrics:
        print()
        print(metrics.registry.render())
    if everything:
        print(
            f"[{len(results)} experiments regenerated in "
            f"{metrics.wall_seconds:.1f}s with {metrics.jobs} job(s)]"
        )
    if metrics.failures:
        print()
        print(render_failure_manifest(metrics.failures))
        return 1
    return 0 if holds else 1


def _only(args: argparse.Namespace) -> Optional[Tuple[str, ...]]:
    """The runner keys an id runs: its own, or for ``all`` the ``--only``
    subset (every key when absent), each one a known key."""
    if args.id != "all":
        return runner_keys(args.id)
    if not args.only:
        return None
    only = tuple(args.only.split(","))
    unknown = [key for key in only if key not in EXPERIMENT_ORDER]
    if unknown:
        args.usage_error(
            f"--only: unknown experiment(s) {', '.join(unknown)}; "
            f"known: {', '.join(EXPERIMENT_ORDER)}"
        )
    return only


def _cells(
    args: argparse.Namespace, workloads: Optional[List[str]]
) -> Optional[dict]:
    """A celled id's sweep as ``run_all`` cells, with its restriction
    flags applied.  Each flag is checked alone through the id's
    ``cells``, so a bad value is a usage error naming its flag, raised
    before anything runs."""
    from repro.errors import ConfigurationError
    from repro.experiments import modern, tenancy

    if args.id not in CELLED:
        return None

    def names(text: str) -> Tuple[str, ...]:
        return tuple(text.split(","))

    parsers = {  # dest → (the keyword of cells, parser of the flag's text)
        "topology": ("topologies", names),
        "replication": ("policies", names),
        "tenants": ("tenants", lambda text: tuple(map(int, text.split(",")))),
        "churn": ("churn_modes", tenancy.parse_churn),
        "footprint": ("footprints", modern.parse_footprints),
        "tables": ("tables", names),
    }
    restrictions: dict = {}
    for dest, (keyword, parse) in parsers.items():
        text = getattr(args, dest)
        if text is None:
            continue
        try:
            restrictions[keyword] = parse(text)
            CELLED[args.id].cells(**{keyword: restrictions[keyword]})
        except (ValueError, ConfigurationError) as exc:
            args.usage_error(f"--{dest}: {exc}")
    return {args.id: CELLED[args.id].cells(workloads, **restrictions)}


def _cmd_topology(args: argparse.Namespace) -> int:
    from repro.numa.topology import (
        PRESETS,
        get_topology,
        render_latency_matrix,
    )

    if args.validate:
        from repro.errors import ConfigurationError

        try:
            topology = get_topology(args.validate)
        except ConfigurationError as exc:
            print(f"invalid topology: {exc}")
            return 1
        print(f"OK: {topology.describe()}")
        return 0
    if args.name:
        topology = get_topology(args.name)
        print(topology.describe())
        print()
        print(render_latency_matrix(topology))
        return 0
    rows = [
        [name, preset.num_nodes, preset.total_frames,
         preset.local_latency(0),
         max(max(row) for row in preset.latency)]
        for name, preset in PRESETS.items()
    ]
    print(render_table(
        ["preset", "nodes", "frames", "local cyc/line", "max remote"],
        rows, title="NUMA topology presets",
    ))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Dump a finished run's persisted metrics registry."""
    import json
    from pathlib import Path

    from repro.obs.metrics import MetricsRegistry
    from repro.resilience.journal import METRICS_NAME

    path = Path(args.run_dir) / METRICS_NAME
    if not path.exists():
        print(
            f"no {METRICS_NAME} in {args.run_dir} — finish a "
            "--run-dir run there first"
        )
        return 1
    doc = json.loads(path.read_text(encoding="utf-8"))
    registry = MetricsRegistry()
    registry.merge_state(doc.get("registry", {}))
    if args.json:
        print(json.dumps(registry.snapshot(), indent=2, sort_keys=True))
    else:
        print(registry.render())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Render a run directory's report; write report.md + report.json."""
    import json
    from pathlib import Path

    from repro.analysis.report import render_run_report
    from repro.resilience.journal import REPORT_NAME, REPORT_SIDECAR_NAME
    from repro.util.atomic_io import atomic_writer

    run_dir = Path(args.run_dir)
    try:
        markdown, sidecar = render_run_report(
            run_dir, ledger_path=getattr(args, "ledger", None)
        )
    except FileNotFoundError as exc:
        print(str(exc))
        return 1
    with atomic_writer(run_dir / REPORT_NAME) as handle:
        handle.write(markdown)
    with atomic_writer(run_dir / REPORT_SIDECAR_NAME) as handle:
        json.dump(sidecar, handle, sort_keys=True, indent=2)
        handle.write("\n")
    print(markdown)
    print(f"[report written to {run_dir / REPORT_NAME} "
          f"(+ {REPORT_SIDECAR_NAME})]")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.workloads.validation import audit, report

    checks = audit(trace_length=30_000 if args.fast else 100_000)
    print(report(checks).render(precision=2))
    return 0 if all(check.ok for check in checks.values()) else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    import os

    if os.path.isfile(args.workload):
        return _cmd_compare_exports(args)
    if os.path.isdir(args.workload) or getattr(args, "run_b", None):
        return _cmd_compare_runs(args)
    from repro.experiments import common

    workload = common.get_workload(args.workload, trace_length=60_000)
    tmap = common.get_translation_map(workload, "single")
    stream = common.get_miss_stream(workload, "single")
    rows = []
    for name in ("linear-1lvl", "forward-mapped", "hashed", "clustered"):
        table = make_table(name)
        tmap.populate(table, base_pages_only=True)
        replay = common.replay(stream, table)
        rows.append(
            [name, table.size_bytes(), round(replay.lines_per_miss, 3)]
        )
    print(render_table(
        ["page table", "bytes", "lines/miss"], rows,
        title=(
            f"{workload.name}: {stream.misses} TLB misses over "
            f"{stream.accesses} references"
        ),
    ))
    return 0


def _cmd_compare_exports(args: argparse.Namespace) -> int:
    """``compare OLD.json NEW.json``: drifted cells; exit 1 on drift."""
    import os

    from repro.analysis.compare import diff_results, render_diff
    from repro.analysis.export import read_json

    old, new = args.workload, getattr(args, "run_b", None)
    if new is None or not os.path.isfile(new):
        print(
            f"compare: {old} is a --json export — pass a second export "
            "to diff against (compare OLD.json NEW.json)"
        )
        return 1
    drifts = diff_results(read_json(old), read_json(new))
    print(render_diff(drifts))
    return 1 if drifts else 0


def _cmd_compare_runs(args: argparse.Namespace) -> int:
    """``compare RUN_A RUN_B``: cross-run delta over ledger rows."""
    from pathlib import Path

    from repro.analysis.report import render_run_delta
    from repro.obs.ledger import rows_from_run_dir

    run_a, run_b = args.workload, getattr(args, "run_b", None)
    if run_b is None:
        print(
            f"compare: {run_a} is a run directory — pass a second run "
            "directory to diff against (compare RUN_A RUN_B)"
        )
        return 1
    try:
        rows_a = rows_from_run_dir(run_a)
        rows_b = rows_from_run_dir(run_b)
    except FileNotFoundError as exc:
        print(str(exc))
        return 1
    print(render_run_delta(
        rows_a, rows_b, Path(run_a).name or str(run_a),
        Path(run_b).name or str(run_b),
    ))
    return 0


def _cmd_trend(args: argparse.Namespace) -> int:
    """``trend``: per-metric sparklines over the cross-run ledger."""
    from pathlib import Path

    from repro.analysis.report import render_ledger_trend
    from repro.obs.ledger import BenchLedger, default_ledger_path

    path = Path(args.ledger) if args.ledger else default_ledger_path()
    if path is None or not path.exists():
        print(
            "trend: no ledger found — pass --ledger FILE or set "
            "REPRO_LEDGER (bench_gate.py --record creates one)"
        )
        return 1
    state = BenchLedger(path).load()
    families = args.family.split(",") if args.family else None
    print(render_ledger_trend(
        state, last=args.last, families=families,
        gated_only=not args.all,
    ))
    if state.torn_lines or state.incompatible:
        print(
            f"[ledger: {state.torn_lines} torn line(s), "
            f"{state.incompatible} incompatible row(s) skipped]"
        )
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    """``watch RUN_DIR``: tail heartbeat + journal with stall detection."""
    from repro.obs.watch import watch

    return watch(
        args.run_dir,
        ledger_path=args.ledger,
        stall_timeout=args.stall_timeout,
        interval=args.interval,
        once=args.once,
    )


def _compare_target(value: str):
    """A ``compare`` positional: a paper workload, a run directory, or a
    ``--json`` export."""
    import os

    if value in sorted(set(PAPER_WORKLOADS) - {"kernel"}):
        return value
    if os.path.exists(value):
        return value
    raise argparse.ArgumentTypeError(
        f"{value!r} is neither a comparable workload "
        f"({', '.join(sorted(set(PAPER_WORKLOADS) - {'kernel'}))}) "
        "nor an existing run directory or --json export"
    )


def _run_dir(value: str) -> str:
    """A ``metrics`` positional: an existing run directory."""
    import os

    if not os.path.isdir(value):
        raise argparse.ArgumentTypeError(f"{value!r} is not a run directory")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Clustered page tables for 64-bit address spaces "
        "(Talluri, Hill & Khalidi, SOSP 1995) — reproduction toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-workloads", help="show the calibrated suite")

    describe = sub.add_parser("describe", help="inspect one workload")
    describe.add_argument("workload", choices=sorted(PAPER_WORKLOADS))

    experiment = sub.add_parser(
        "experiment", help="regenerate a table/figure, or all of them"
    )
    experiment.set_defaults(usage_error=experiment.error)
    experiment.add_argument("id", choices=EXPERIMENT_IDS)
    experiment.add_argument("--fast", action="store_true",
                            help="shorter traces")
    experiment.add_argument(
        "--trace-length", type=int, default=None, metavar="N",
        help="explicit reference-trace length (overrides --fast)",
    )
    experiment.add_argument("--chart", action="store_true",
                            help="render as a terminal bar chart")
    experiment.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persistent miss-stream cache directory (default: the user "
        "cache dir for 'all', none for a single id)",
    )
    experiment.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent miss-stream cache",
    )
    experiment.add_argument(
        "--engine", choices=("scalar", "batch"), default="scalar",
        help="phase-2 replay engine: 'batch' vectorises whole miss "
        "streams (exact; unsupported tables fall back to scalar)",
    )
    experiment.add_argument(
        "--workloads", metavar="NAMES", default=None,
        help="comma-separated workload subset for trace-driven experiments",
    )
    experiment.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="record one event per page-table walk and write the trace "
        "as JSON Lines; works with any --jobs",
    )
    experiment.add_argument(
        "--topology", metavar="MACHINES", default=None,
        help="for 'numa': comma-separated machines, each a preset name "
        "or topology JSON file (default 1-node,2-node,4-node,8-node)",
    )
    experiment.add_argument(
        "--replication", metavar="POLICIES", default=None,
        help="for 'numa': comma-separated policy subset "
        "(none,mitosis,migrate)",
    )
    experiment.add_argument(
        "--tenants", metavar="LIST", default=None,
        help="for 'tenancy': comma-separated tenant populations "
        "(default 100,1000; the full sweep adds 10000)",
    )
    experiment.add_argument(
        "--churn", metavar="MODES", default=None,
        help="for 'tenancy': comma-separated mode subset from "
        "{static,churn} (default both)",
    )
    experiment.add_argument(
        "--footprint", metavar="LIST", default=None,
        help="for 'modern': comma-separated footprints in MB "
        "(default 16,64,256; accepts fractions and TB-scale values)",
    )
    experiment.add_argument(
        "--tables", metavar="LIST", default=None,
        help="for 'tenancy' and 'modern': comma-separated page-table "
        "subset",
    )
    run = experiment.add_argument_group(
        "run options", "how the runner's scheduler runs the id (--only is "
        "read only by 'all')"
    )
    run.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan the run's tasks out over N worker processes (default 1)",
    )
    run.add_argument(
        "--only", metavar="IDS", default=None,
        help="for 'all': comma-separated runner keys to run (paper "
        "order kept)",
    )
    run.add_argument(
        "--json", metavar="FILE", default=None,
        help="additionally export every result to one JSON file",
    )
    run.add_argument(
        "--csv", metavar="DIR", default=None,
        help="additionally export one CSV per experiment into DIR",
    )
    run.add_argument(
        "--metrics", action="store_true",
        help="additionally print the run's metrics registry",
    )
    run.add_argument(
        "--profile-out", metavar="FILE", default=None,
        help="profile the run (spans in parent and workers, and the "
        "walk profile) and write the span timeline as Chrome trace-event "
        "JSON (open in Perfetto or chrome://tracing); works with any --jobs",
    )
    run.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="retry a transiently failed task up to N times with "
        "jittered exponential backoff (default 0: fail fast)",
    )
    run.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-task wall-clock budget; a task past it is abandoned "
        "and its worker pool recycled (parallel runs only)",
    )
    run.add_argument(
        "--keep-going", action="store_true",
        help="complete the run around permanently failed experiments "
        "and report a failure manifest (exit code 1)",
    )
    run.add_argument(
        "--run-dir", metavar="DIR", default=None,
        help="journal completed experiments into DIR/journal.jsonl "
        "(append-only, fsync'd) so the run is resumable",
    )
    run.add_argument(
        "--resume", metavar="DIR", default=None,
        help="resume from DIR's journal: completed experiments are "
        "skipped, new completions are appended (implies --run-dir DIR)",
    )
    run.add_argument(
        "--fault-plan", metavar="FILE", default=None,
        help="arm a JSON fault-injection plan in every task attempt "
        "(chaos testing only)",
    )

    metrics = sub.add_parser(
        "metrics", help="dump a finished run's metrics registry"
    )
    metrics.add_argument(
        "run_dir", metavar="RUN_DIR", type=_run_dir,
        help="a --run-dir directory holding metrics.json",
    )
    metrics.add_argument(
        "--json", action="store_true",
        help="dump as JSON instead of aligned tables",
    )

    report = sub.add_parser(
        "report", help="render a run directory's self-contained report"
    )
    report.add_argument(
        "run_dir", metavar="RUN_DIR",
        help="a --run-dir directory (journal.jsonl, metrics.json, ...)",
    )
    report.add_argument(
        "--ledger", metavar="FILE", default=None,
        help="cross-run benchmark ledger feeding the trajectory "
        "sparklines (default: $REPRO_LEDGER, then RUN_DIR/ledger.jsonl)",
    )

    topology = sub.add_parser(
        "topology", help="list/inspect/validate NUMA machine models"
    )
    topology.add_argument(
        "name", nargs="?", default=None, metavar="NAME|FILE",
        help="preset name or topology JSON file to print (omit to list "
        "the presets)",
    )
    topology.add_argument(
        "--validate", metavar="FILE", default=None,
        help="check a topology JSON file and exit non-zero on errors",
    )

    compare = sub.add_parser(
        "compare",
        help="page-table shoot-out for a workload, a cross-run delta "
        "between two run directories, or the drifted cells between two "
        "--json exports",
    )
    compare.add_argument(
        "workload", metavar="WORKLOAD|RUN_A|OLD.json", type=_compare_target,
        help="a paper workload name, a run directory, or a --json export "
        "to diff",
    )
    compare.add_argument(
        "run_b", metavar="RUN_B|NEW.json", nargs="?", default=None,
        help="second run directory or --json export",
    )

    trend = sub.add_parser(
        "trend", help="sparkline the cross-run benchmark ledger"
    )
    trend.add_argument(
        "--ledger", metavar="FILE", default=None,
        help="ledger file (default: $REPRO_LEDGER, then ./ledger.jsonl)",
    )
    trend.add_argument(
        "--family", metavar="FAMILIES", default=None,
        help="comma-separated family filter (numa,batch,tenancy,modern,"
        "run,profile)",
    )
    trend.add_argument(
        "--last", type=int, default=20, metavar="N",
        help="history window per metric (default 20)",
    )
    trend.add_argument(
        "--all", action="store_true",
        help="trend every ledger key, not only regression-gated metrics",
    )

    watch = sub.add_parser(
        "watch", help="tail a run directory's progress with stall detection"
    )
    watch.add_argument(
        "run_dir", metavar="RUN_DIR",
        help="a --run-dir directory being written by a live run",
    )
    watch.add_argument(
        "--once", action="store_true",
        help="print one snapshot and exit (scriptable)",
    )
    watch.add_argument(
        "--stall-timeout", type=float, default=60.0, metavar="SECONDS",
        help="declare a stall when neither heartbeat nor journal moved "
        "for this long (default 60)",
    )
    watch.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="poll interval while tailing (default 2)",
    )
    watch.add_argument(
        "--ledger", metavar="FILE", default=None,
        help="ledger supplying historical per-task durations for the ETA",
    )

    validate = sub.add_parser(
        "validate", help="audit workload calibration vs Table 1"
    )
    validate.add_argument("--fast", action="store_true",
                          help="shorter traces")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    handlers = {
        "list-workloads": _cmd_list_workloads,
        "describe": _cmd_describe,
        "experiment": _cmd_experiment,
        "topology": _cmd_topology,
        "compare": _cmd_compare,
        "trend": _cmd_trend,
        "watch": _cmd_watch,
        "metrics": _cmd_metrics,
        "report": _cmd_report,
        "validate": _cmd_validate,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
