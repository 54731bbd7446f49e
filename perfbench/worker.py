"""One benchmark round of one workload, in a fresh interpreter.

    python3 perfbench/worker.py REQUEST.json REPLY.json

``run.py`` starts one worker per round, so the experiment memos
(``common._WORKLOADS``/``_TMAPS``/``_STREAMS``), the metrics registry
and the span recorder never carry over from one round to the next.  The
request names the workload, the seed, the mode (``fill`` fills a stream
cache during set-up; ``round`` is measured), the round's cache and run
directories, whether to install the per-layer timers, and the
``time.monotonic()`` reading taken just before the worker started.  The
reply holds the round's set-up and wall time, the wall time of each
separately timed part (each tenancy cell; the runner's prewarm, each
experiment and the rest of the sweep), peak memory, counts, simulated
statistics and, for a timed round, per-layer self times.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Dict, Tuple

import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("fig11-cold", "fig11-warm", "tenancy-churn")

#: Figures 11a-d over the ten traced paper workloads, at the runner's
#: ``--fast`` trace length.  They run at the runner's fixed workload
#: seed (1234): ``run_all`` takes no seed.
FIG11 = ("fig11a", "fig11b", "fig11c", "fig11d")
FIG11_TRACE_LENGTH = 50_000

#: The tenancy cells: each table x 1000 tenants x 10% churn per slot,
#: at the experiment's default miss budget.
TENANCY_TABLES = ("hashed", "clustered", "forward-3lvl")
TENANTS = 1000
CHURN = 0.1
TENANCY_TRACE_LENGTH = 200_000

#: Golden tenancy records exist for seeds 0 .. GOLDEN_SEEDS-1; a run's
#: seed is taken modulo this count.
GOLDEN_SEEDS = 16


def tenancy_seed(seed: int) -> int:
    """The tenancy seed a run's ``--seed`` selects."""
    return seed % GOLDEN_SEEDS


def operations(workload: str) -> Tuple[str, ...]:
    """What one round attempts: Figure 11 panels or tenancy cells."""
    return TENANCY_TABLES if workload == "tenancy-churn" else FIG11


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import repro

    where = Path(repro.__file__).resolve().parent
    if where != (SRC / "repro").resolve():
        raise SystemExit(f"repro was imported from {where}, not {SRC}")
    import repro.experiments.runner  # noqa: F401
    import repro.experiments.tenancy  # noqa: F401


def run_fig11(request: Dict) -> Dict:
    """Figures 11a-d through the runner; one operation per panel."""
    from repro.experiments.runner import ResilienceConfig, RunMetrics, run_all

    measured_warm = (
        request["workload"] == "fig11-warm" and request["mode"] == "round"
    )
    metrics = RunMetrics()
    results = run_all(
        trace_length=FIG11_TRACE_LENGTH,
        only=FIG11,
        jobs=1,
        engine="batch",
        cache_dir=request["cache_dir"],
        profile=measured_warm,
        metrics=metrics,
        resilience=ResilienceConfig(
            keep_going=True,
            run_dir=request["run_dir"] if measured_warm else None,
        ),
    )
    return {
        "ops": {
            key: {
                "headers": list(result.headers),
                "rows": [list(row) for row in result.rows],
            }
            for key, result in results.items()
        },
        "errors": {
            failure.key: f"{failure.error_type}: {failure.message}"
            for failure in metrics.failures
        },
        "cache_misses": metrics.cache.misses,
        "runner_tasks": metrics.prewarm_tasks + len(metrics.timings),
        "parts_s": {
            "prewarm": metrics.prewarm_seconds,
            **{timing.key: timing.seconds for timing in metrics.timings},
        },
    }


def tenancy_record(result) -> Dict:
    """Every simulated statistic of one tenancy cell."""
    population = result.population
    record = {
        "p50": population.p50,
        "p95": population.p95,
        "p99": population.p99,
        "worst_tenant_p99": result.worst_tenant_p99,
        "mean_cycles": result.mean_cycles,
        "observations": population.count,
    }
    for name in (
        "misses", "cache_lines", "probes", "faults", "refault_misses",
        "arrivals", "departures", "reclaims", "evicted_ptes",
        "shootdown_entries",
    ):
        record[name] = getattr(result, name)
    return record


def run_tenancy(request: Dict) -> Dict:
    """The tenancy cells; one operation per table."""
    from repro.experiments import tenancy

    ops: Dict[str, Dict] = {}
    errors: Dict[str, str] = {}
    parts_s: Dict[str, float] = {}
    for table in TENANCY_TABLES:
        started = time.perf_counter()
        try:
            result, _ = tenancy.run_config(
                table, TENANTS, CHURN, TENANCY_TRACE_LENGTH,
                seed=tenancy_seed(request["seed"]),
            )
        except Exception as exc:  # a failed cell is counted; others go on
            errors[table] = f"{type(exc).__name__}: {exc}"
            continue
        finally:
            parts_s[table] = time.perf_counter() - started
        ops[table] = tenancy_record(result)
    return {"ops": ops, "errors": errors, "cache_misses": 0,
            "runner_tasks": 0, "parts_s": parts_s}


def peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space.

    Not ``ru_maxrss``: Linux carries that across ``exec``, so it would
    report the launcher's peak whenever the launcher's is larger.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def simulate(request: Dict, probes: layers.Probes) -> Dict:
    """Run the workload once under installed counters; its outcome."""
    tenancy = request["workload"] == "tenancy-churn"
    outcome = run_tenancy(request) if tenancy else run_fig11(request)
    walks = probes.counts["walks"]
    outcome["walks"] = walks
    # Tenant streams are synthetic misses with no TLB phase: every
    # reference is a miss, so references equal walks.
    outcome["refs"] = walks if tenancy else probes.counts["refs"]
    return outcome


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    request = json.loads(Path(argv[1]).read_text())
    import_program()
    from repro.experiments import common

    common.configure_engine("batch")
    probes = layers.install_counters(layers.Probes())
    if request["timed"]:
        layers.install_timers(probes)
    ready = time.monotonic()
    started = time.perf_counter()
    outcome = simulate(request, probes)
    wall = time.perf_counter() - started
    probes.uninstall()
    outcome["parts_s"]["rest"] = wall - sum(outcome["parts_s"].values())
    reply = {
        "setup_s": ready - request["spawned_at"],
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
        "fallbacks": dict(probes.fallbacks),
        **outcome,
    }
    if request["timed"]:
        reply.update(
            self_seconds=dict(probes.self_seconds),
            calls=dict(probes.calls),
            counts=dict(probes.counts),
        )
    Path(argv[2]).write_text(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
