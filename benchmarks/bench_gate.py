"""Bench-regression gate: fresh bench documents vs history and baselines.

Every bench family — numa, batch, tenancy, modern — is gated with
``--family FAMILY=FILE`` against *noise bands* derived from the
cross-run ledger (``--ledger``, :mod:`repro.obs.ledger`): median ± k·MAD
over the last N comparable entries per (config, metric), at the
ledger's defaults (k=4, N=20).  Deterministic metrics collapse to
near-exact bands; wall-clock ones widen to their measured noise.  While
a key's history is thinner than three entries (or there is no ledger),
the gate falls back to the committed single baseline in
``--baseline-dir`` with the flat :data:`THRESHOLD`.  A baseline
recorded at another trace length is not comparable: a metric that would
fall back to it makes the gate exit 2.
``--record`` appends the fresh document's rows to the ledger after a
passing gate, so green runs grow the very history that tightens future
gates.  The NUMA sweep is deterministic, so its gated ``... cyc/miss``
columns are a behavioural signature: any drift means the walk cost
model, the placement policies, or the topology arithmetic changed.

Improvements are **events, not just notes**: a metric that improves
beyond its band (or, in baseline fallback, beyond the threshold) is
recorded to the ledger as an ``improvement`` event, which resets band
derivation for that key — an intentional speedup refreshes expectations
instead of silently widening tolerated drift forever.

The gate also validates run-report sidecars (``report.json``, written by
``repro.cli report``): a profiled CI run must produce a sidecar whose
schema downstream tooling can rely on, and a missing or malformed one
fails the lane just like a cycles/miss regression.

It further gates the batch replay engine (``BENCH_batch.json``, via
``--family batch=...``): the aggregate speedup over the Figure 11
configurations — total scalar replay time over total batch replay time
— must stay at or above :data:`SPEEDUP_FLOOR` (10x).
The aggregate is gated rather than the per-config minimum because the
batch engine's fixed kernel-compilation cost dominates tiny miss
streams; any config where batch is *slower* than scalar is still
reported as a note.

Usage::

    python benchmarks/bench_gate.py \
        --family numa=BENCH_numa.json --family batch=BENCH_batch.json \
        [--ledger ledger.jsonl --record] \
        [--baseline-dir benchmarks/baselines] \
        [--report-sidecar run-dir/report.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

_BASELINE_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "baselines"
)
#: Relative regression tolerance against a committed baseline.
THRESHOLD = 0.10


def _obs_ledger():
    """Import :mod:`repro.obs.ledger`, adding ``src/`` when uninstalled."""
    try:
        from repro.obs import ledger
    except ImportError:
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        if src not in sys.path:
            sys.path.insert(0, src)
        from repro.obs import ledger
    return ledger


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


#: Required run-report sidecar schema version (see
#: ``repro.analysis.report.REPORT_VERSION``).
REPORT_VERSION = 1

#: The registry sections a sidecar's ``metrics`` block must carry, each a
#: list of ``[name, labels, payload]`` series triples.
_METRIC_SECTIONS = ("counters", "gauges", "histograms")

#: Sidecar keys that must be lists of dicts.
_LIST_KEYS = ("phases", "experiments", "failures")


def validate_report_sidecar(document: object) -> List[str]:
    """Schema problems in one ``report.json`` sidecar (empty = valid).

    Checks the invariants downstream tooling relies on: the version
    pin, a run-dir pointer, a ``metrics`` block with the three registry
    sections as series-triple lists, a ``run`` summary dict, and the
    phase/experiment/failure lists.  Deep payloads are not re-validated
    — the metrics module owns those shapes.
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        return [f"sidecar must be a JSON object, got {type(document).__name__}"]
    version = document.get("report_version")
    if version != REPORT_VERSION:
        problems.append(
            f"report_version must be {REPORT_VERSION}, got {version!r}"
        )
    if not isinstance(document.get("run_dir"), str):
        problems.append("run_dir must be a string path")
    metrics = document.get("metrics")
    if not isinstance(metrics, dict):
        problems.append("metrics must be an object")
    else:
        for section in _METRIC_SECTIONS:
            series = metrics.get(section)
            if not isinstance(series, list):
                problems.append(f"metrics.{section} must be a list")
                continue
            for entry in series:
                if not (isinstance(entry, list) and len(entry) == 3):
                    problems.append(
                        f"metrics.{section} entries must be "
                        f"[name, labels, payload] triples, got {entry!r}"
                    )
                    break
    if not isinstance(document.get("run"), dict):
        problems.append("run must be an object (the runner's summary_dict)")
    for key in _LIST_KEYS:
        value = document.get(key)
        if not isinstance(value, list):
            problems.append(f"{key} must be a list")
        elif not all(isinstance(item, dict) for item in value):
            problems.append(f"{key} entries must all be objects")
    return problems


#: Minimum aggregate batch-over-scalar speedup of a batch document.
SPEEDUP_FLOOR = 10.0


def _gate_speedup(path: str) -> int:
    """Gate one BENCH_batch.json; prints findings, returns an exit code."""
    if not os.path.exists(path):
        print(f"[bench gate] FAIL: speedup report {path} does not exist")
        return 1
    try:
        document = _load(path)
    except ValueError as error:
        print(f"[bench gate] FAIL: speedup report {path} is not JSON: {error}")
        return 1
    aggregate = document.get("aggregate_speedup")
    configs = document.get("configs", [])
    if not isinstance(aggregate, (int, float)) or not configs:
        print(f"[bench gate] FAIL: {path} has no aggregate_speedup/configs "
              "(regenerate with bench_batch.py)")
        return 1
    for record in configs:
        if float(record.get("speedup", 0.0)) < 1.0:
            print(
                f"[bench gate] note: batch slower than scalar on "
                f"{record.get('workload')}/{record.get('tlb')}/"
                f"{record.get('table')} ({record.get('speedup')}x)"
            )
    if aggregate < SPEEDUP_FLOOR:
        print(f"[bench gate] FAIL: aggregate batch speedup {aggregate}x "
              f"below the {SPEEDUP_FLOOR}x floor ({len(configs)} configs)")
        return 1
    print(f"[bench gate] batch speedup OK: {aggregate}x aggregate over "
          f"{len(configs)} configs (floor {SPEEDUP_FLOOR}x)")
    return 0


def _gate_sidecar(path: str) -> int:
    """Validate one sidecar file; prints problems, returns an exit code."""
    if not os.path.exists(path):
        print(f"[bench gate] FAIL: report sidecar {path} does not exist")
        return 1
    try:
        document = _load(path)
    except ValueError as error:
        print(f"[bench gate] FAIL: report sidecar {path} is not JSON: {error}")
        return 1
    problems = validate_report_sidecar(document)
    if problems:
        for problem in problems:
            print(f"[bench gate] sidecar problem: {problem}")
        print(f"[bench gate] FAIL: report sidecar {path} failed "
              f"{len(problems)} schema check(s)")
        return 1
    print(f"[bench gate] report sidecar OK: {path} "
          f"(report_version={document['report_version']})")
    return 0


# ---------------------------------------------------------------------------
# Ledger mode: every family, noise bands, baseline fallback
# ---------------------------------------------------------------------------
def _baseline_values(
    obs, family: str, baseline_dir: str, trace_length
) -> Tuple[Optional[Dict[Tuple[str, str], float]], List[str]]:
    """(config, metric) → value from the committed family baseline.

    An absent or unreadable baseline yields an empty map plus a note:
    the affected metrics stay ungated.  A baseline recorded at another
    trace length yields ``None`` plus the reason: its numbers are not
    comparable, so a metric that would fall back to it refuses the gate.
    """
    path = os.path.join(baseline_dir, f"BENCH_{family}.json")
    if not os.path.exists(path):
        return {}, [f"{family}: no committed baseline at {path}"]
    try:
        document = _load(path)
    except ValueError as error:
        return {}, [f"{family}: baseline {path} is not JSON: {error}"]
    if trace_length is not None and document.get("trace_length") != trace_length:
        return None, [
            f"{family}: trace lengths differ (fresh {trace_length}, "
            f"baseline {document.get('trace_length')}); numbers are not "
            "comparable"
        ]
    values = {
        (row.config, row.metric): row.value
        for row in obs.rows_from_bench(document, source=path)
    }
    return values, []


def _gate_family(
    family: str, path: str, ledger, obs, baseline_dir: str
) -> Tuple[int, list, list]:
    """Gate one family document; returns (exit_code, rows, improvements)."""
    if not os.path.exists(path):
        print(f"[bench gate] FAIL: {family}: {path} does not exist")
        return 1, [], []
    try:
        document = _load(path)
    except ValueError as error:
        print(f"[bench gate] FAIL: {family}: {path} is not JSON: {error}")
        return 1, [], []
    if document.get("benchmark") != family:
        print(
            f"[bench gate] FAIL: {path} is a "
            f"{document.get('benchmark')!r} document, expected {family!r}"
        )
        return 1, [], []
    gated_metrics = obs.GATED_METRICS.get(family, {})
    rows = obs.rows_from_bench(document, source=path, stamp=obs.current_stamp())
    state = ledger.load() if ledger is not None else None
    trace_length = document.get("trace_length")
    baseline, baseline_notes = _baseline_values(
        obs, family, baseline_dir, trace_length
    )
    if baseline is not None:
        for note in baseline_notes:
            print(f"[bench gate] note: {note}")

    regressions: List[str] = []
    improvements = []
    by_band = by_baseline = ungated = 0
    for row in rows:
        direction = gated_metrics.get(row.metric)
        if direction is None:
            continue
        band = None
        if state is not None:
            band = state.band_for(
                family, row.config, row.metric,
                trace_length=row.trace_length,
            )
        if band is not None:
            by_band += 1
            verdict = band.classify(row.value, direction)
            if verdict == "regression":
                regressions.append(
                    f"{family} {row.config} {row.metric}: {row.value:.4g} "
                    f"outside band [{band.lo:.4g}, {band.hi:.4g}] "
                    f"(median {band.median:.4g} over {band.count} runs)"
                )
            elif verdict == "improvement":
                improvements.append((row, band.median, "band"))
            continue
        if baseline is None:
            print(f"[bench gate] {baseline_notes[0]}")
            return 2, rows, []
        base = baseline.get((row.config, row.metric))
        if base is None or base == 0:
            ungated += 1
            continue
        by_baseline += 1
        change = (row.value - base) / abs(base)
        if direction == "higher":
            change = -change
        if change > THRESHOLD:
            regressions.append(
                f"{family} {row.config} {row.metric}: {base:.4g} -> "
                f"{row.value:.4g} (worse by {100 * abs(change):.1f}% > "
                f"{100 * THRESHOLD:.0f}%)"
            )
        elif change < -THRESHOLD:
            improvements.append((row, base, "baseline"))

    floor_status = 0
    if family == "batch":
        floor_status = _gate_speedup(path)

    for row, old, basis in improvements:
        print(
            f"[bench gate] improvement: {family} {row.config} "
            f"{row.metric}: {old:.4g} -> {row.value:.4g} ({basis})"
        )
    if ungated:
        print(
            f"[bench gate] note: {family}: {ungated} gated metric value(s) "
            "have neither ledger history nor a comparable baseline"
        )
    if regressions:
        for line in regressions:
            print(f"[bench gate] REGRESSION: {line}")
        print(
            f"[bench gate] FAIL: {family}: {len(regressions)} regression(s) "
            f"({by_band} band-gated, {by_baseline} baseline-gated)"
        )
        return 1, rows, improvements
    print(
        f"[bench gate] {family} OK: {by_band} band-gated, "
        f"{by_baseline} baseline-gated, {ungated} ungated"
    )
    return floor_status, rows, improvements


def _record_improvements(ledger, obs, family: str, improvements) -> None:
    """Append band-resetting improvement events for one family's gate."""
    for row, old, basis in improvements:
        ledger.append_event(obs.LedgerEvent(
            kind="improvement", family=family, config=row.config,
            metric=row.metric, old=float(old), new=float(row.value),
            note=f"gate improvement vs {basis}", git_sha=row.git_sha,
            recorded_at=row.recorded_at,
        ))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when a fresh benchmark document regresses against "
        "ledger noise bands or the committed baseline, or a run-report "
        "sidecar is missing or malformed."
    )
    parser.add_argument(
        "--report-sidecar", metavar="FILE", default=None,
        help="run-report sidecar (report.json) to schema-validate; "
        "missing or malformed fails the gate",
    )
    parser.add_argument(
        "--family", metavar="FAMILY=FILE", action="append", default=[],
        help="gate one bench family (numa|batch|tenancy|modern) from FILE "
        "against ledger noise bands, falling back to the committed "
        "baseline while history is thin; repeatable",
    )
    parser.add_argument(
        "--ledger", metavar="FILE", default=None,
        help="cross-run benchmark ledger (JSONL) supplying noise-band "
        "history for --family gates and receiving improvement events",
    )
    parser.add_argument(
        "--record", action="store_true",
        help="append the fresh rows of passing --family gates to --ledger",
    )
    parser.add_argument(
        "--baseline-dir", metavar="DIR", default=_BASELINE_DIR,
        help="directory of committed BENCH_<family>.json baselines "
        f"(default {_BASELINE_DIR})",
    )
    args = parser.parse_args(argv)
    if args.report_sidecar is None and not args.family:
        parser.error("nothing to gate: pass --family and/or --report-sidecar")
    if args.record and args.ledger is None:
        parser.error("--record needs --ledger")
    status = 0
    if args.report_sidecar is not None:
        status = _gate_sidecar(args.report_sidecar)

    if not args.family:
        return status
    obs = _obs_ledger()
    ledger = obs.BenchLedger(args.ledger) if args.ledger is not None else None
    for spec in args.family:
        family, _, path = spec.partition("=")
        if not path:
            parser.error(f"--family wants FAMILY=FILE, got {spec!r}")
        if family not in obs.GATED_METRICS:
            parser.error(
                f"unknown family {family!r}; "
                f"known: {', '.join(sorted(obs.GATED_METRICS))}"
            )
        family_status, rows, improvements = _gate_family(
            family, path, ledger, obs, args.baseline_dir
        )
        if ledger is not None and improvements:
            _record_improvements(ledger, obs, family, improvements)
        if family_status == 0 and args.record and ledger is not None and rows:
            written = ledger.append_rows(rows)
            print(
                f"[bench gate] recorded {written} {family} row(s) to "
                f"{args.ledger}" if written else
                f"[bench gate] note: {family} rows already in {args.ledger} "
                "(duplicate run_id)"
            )
        status = max(status, family_status)

    return status


if __name__ == "__main__":
    sys.exit(main())
