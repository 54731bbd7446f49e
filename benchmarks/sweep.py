"""The shared sweep runner and command line of the cell-sweep benches.

``bench_numa.py``, ``bench_tenancy.py`` and ``bench_modern.py`` only
build documents from one celled experiment's records.  :func:`run_cells`
runs the cells through the runner's scheduler under the batch engine,
with its retries, interrupt drain and heartbeat; :func:`main` is the
benches' command line and writes the document atomically.

A bench ``--run-dir DIR`` is a runner run directory: ``journal.jsonl``
(one digest-checked entry per cell, so ``--resume DIR`` recomputes only
the missing cells), ``progress.json`` (``repro watch``) and
``metrics.json`` (``repro report``).  The document is identical at any
``--jobs`` and after a resume: wall time is printed, never embedded.
"""

from __future__ import annotations

import argparse
import json
from typing import Callable, Dict, Optional, Sequence

from repro.experiments.common import ExperimentResult
from repro.experiments.runner import (
    ResilienceConfig,
    RunInterrupted,
    RunMetrics,
    interrupt_line,
    run_all,
    sigterm_drains,
)
from repro.util.atomic_io import atomic_write_text


def run_cells(
    key: str,
    cells: Sequence[Dict[str, object]],
    trace_length: int,
    jobs: int = 1,
    run_dir: Optional[str] = None,
    resume: bool = False,
) -> ExperimentResult:
    """One celled experiment's result, records included.

    Prints the runner cells computed and resumed, or — when the sweep is
    interrupted — the runner's interrupt line before re-raising.
    """
    metrics = RunMetrics()
    try:
        results = run_all(
            trace_length, jobs=jobs, only=(key,), cells={key: cells},
            engine="batch", metrics=metrics,
            resilience=ResilienceConfig(run_dir=run_dir, resume=resume),
        )
    except RunInterrupted:
        print(interrupt_line(metrics, 1, run_dir))
        raise
    computed = metrics.summary_dict()["experiment_tasks"]
    print(
        f"[{computed} cells computed, {len(cells) - computed} resumed "
        f"in {metrics.wall_seconds:.1f}s with {metrics.jobs} job(s)]"
    )
    return results[key]


def main(
    argv: Optional[Sequence[str]],
    collect: Callable[..., dict],
    fast: Dict[str, object],
    full: Dict[str, object],
    default_out: str,
    description: str,
    fast_help: str,
) -> int:
    """Parse a bench's flags, ``collect(**fast or full)``, write the doc."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--fast", action="store_true", help=fast_help)
    parser.add_argument(
        "--out", metavar="FILE", default=default_out,
        help=f"output JSON path (default {default_out})",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the sweep (document is identical "
        "for any N)",
    )
    parser.add_argument(
        "--run-dir", metavar="DIR", default=None,
        help="journal completed cells into DIR for --resume",
    )
    parser.add_argument(
        "--resume", metavar="DIR", default=None,
        help="resume a journaled sweep, skipping completed cells "
        "(implies --run-dir DIR)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.resume and args.run_dir and args.resume != args.run_dir:
        parser.error("--resume DIR and --run-dir DIR must agree")
    try:
        with sigterm_drains():
            document = collect(
                **(fast if args.fast else full), jobs=args.jobs,
                run_dir=args.resume or args.run_dir,
                resume=bool(args.resume),
            )
    except RunInterrupted:
        return 130
    atomic_write_text(
        args.out, json.dumps(document, indent=2, sort_keys=True) + "\n"
    )
    print(f"[{len(document['configs'])} configs -> {args.out}]")
    return 0
