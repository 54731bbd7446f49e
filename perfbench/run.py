#!/usr/bin/env python3
"""The repository benchmark: Figure 11 regeneration and tenancy churn.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig11-cold --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` records why each one is there):

- ``fig11-cold``: ``run_all(only=fig11a-d, engine="batch", jobs=1)`` over
  the ten traced paper workloads with no stream cache;
- ``fig11-warm``: the same sweep from a stream cache filled during
  set-up, with the run profiler on and a run directory;
- ``tenancy-churn``: ``tenancy.run_config`` for {hashed, clustered,
  forward-3lvl} x 1000 tenants x 10% churn at the run's seed.

Each round runs in a fresh interpreter (``worker.py``) with its own
temporary stream cache and run directory under ``.perfbench_tmp/``.
At least two rounds run, and more while a typical one still ends within
``--seconds``.  With ``--trace 0`` the wall time is the sum of each
part's fastest time over the rounds (see :func:`fastest_parts`), and
set-up and memory are medians over rounds.  Both times are divided by
the host's slowdown, which ``hostspeed.py`` measures between rounds.
With ``--trace 1`` untimed and timed rounds alternate: the timed rounds
give each layer's self time (``layers.py``), and the two kinds together
give the tracing overhead.  Every round's simulated statistics are
compared with ``golden/``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import golden
import hostspeed
import layers
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A run must end well inside the 180 s each invocation is allowed.
DEADLINE_S = 165.0
#: Fewest untimed rounds, and fewest untimed+timed pairs with --trace 1.
MIN_ROUNDS = 2
MIN_TRACED_PAIRS = 1
#: The phase-2 benchmark's committed result, read to put the trace's
#: phase-2 share next to its speed-up.
BATCH_BASELINE = ROOT / "benchmarks" / "baselines" / "BENCH_batch.json"

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "wall_s": "s",
    "walks_per_s": "1/s",
    "refs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "workloads.busy_s": "s",
    "workloads.calls": "count",
    "translation_map.busy_s": "s",
    "translation_map.calls": "count",
    "pagetables.build_s": "s",
    "pagetables.ptes_inserted": "count",
    "pagetables.remove_s": "s",
    "pagetables.ptes_removed": "count",
    "phase1.busy_s": "s",
    "phase1.refs": "count",
    "phase1.misses": "count",
    "phase1.ns_per_ref": "ns",
    "stream_cache.load_s": "s",
    "stream_cache.store_s": "s",
    "stream_cache.hits": "count",
    "stream_cache.misses": "count",
    "stream_cache.hit_ratio": "ratio",
    "batch.compile_s": "s",
    "batch.compiles": "count",
    "batch.walk_s": "s",
    "batch.walks": "count",
    "batch.ns_per_walk": "ns",
    "simulate.fallbacks": "count",
    "simulate.replay_s": "s",
    "obs.feed_s": "s",
    "obs.feed_calls": "count",
    "tenancy.admit_s": "s",
    "tenancy.depart_s": "s",
    "tenancy.reclaim_s": "s",
    "tenancy.refault_s": "s",
    "tenancy.shootdown_s": "s",
    "tenancy.admits": "count",
    "tenancy.reclaims": "count",
    "journal.append_s": "s",
    "runner.tasks": "count",
    "phase2.wall_share": "ratio",
    "unattributed_s": "s",
    "unattributed_frac": "ratio",
    "trace_overhead_frac": "ratio",
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=worker.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def worker_environment() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    # Rounds are single-threaded, single-process and repeatable.
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class Launcher:
    """One run's scratch directory, deadline and worker launches."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        scratch = ROOT / ".perfbench_tmp"
        scratch.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
        self.env = worker_environment()
        self.launched = 0
        # Sampled before the first worker and after every one, while no
        # worker runs.
        self.host = hostspeed.HostSpeed()
        self.host.sample()

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    def launch(
        self, mode: str, timed: bool = False, cache_dir: Optional[Path] = None
    ) -> Dict:
        """Run one worker to completion; its reply, or why it failed."""
        self.launched += 1
        here = self.tmp / f"{self.launched:03d}-{mode}"
        run_dir = here / "run"
        run_dir.mkdir(parents=True)
        request_path = here / "request.json"
        reply_path = here / "reply.json"
        log_path = here / "log.txt"
        request = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "mode": mode,
            "timed": timed,
            "cache_dir": str(cache_dir) if cache_dir else None,
            "run_dir": str(run_dir),
        }
        with log_path.open("w") as log:
            request["spawned_at"] = time.monotonic()
            request_path.write_text(json.dumps(request))
            try:
                code: Optional[int] = subprocess.run(
                    [sys.executable, str(HERE / "worker.py"),
                     str(request_path), str(reply_path)],
                    cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                    stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(1.0, self.deadline - time.monotonic()),
                ).returncode
            except subprocess.TimeoutExpired:
                code = None
        reply: Dict = {
            "ok": False,
            "timed": timed,
            "lifetime_s": time.monotonic() - request["spawned_at"],
        }
        self.host.sample()
        if code == 0 and reply_path.exists():
            reply.update(json.loads(reply_path.read_text()), ok=True)
        else:
            lines = log_path.read_text().strip().splitlines() or ["no output"]
            reply["error"] = (
                "timed out" if code is None else f"exit {code}: {lines[-1]}"
            )
            print(f"[{mode} failed: {reply['error']}]", file=sys.stderr)
        return reply


def measure(launcher: Launcher) -> Tuple[Optional[Dict], List[Dict]]:
    """The cache fill (fig11-warm only), then the measured rounds."""
    args = launcher.args
    fill: Optional[Dict] = None
    cache_dir: Optional[Path] = None
    if args.workload == "fig11-warm":
        cache_dir = launcher.tmp / "cache"
        fill = launcher.launch("fill", cache_dir=cache_dir)
    kinds = (False, True) if args.trace else (False,)
    wanted = MIN_TRACED_PAIRS if args.trace else MIN_ROUNDS
    rounds: List[Dict] = []
    started = time.monotonic()
    lengths: List[float] = []
    while True:
        begun = time.monotonic()
        for timed in kinds:
            rounds.append(launcher.launch("round", timed, cache_dir))
        now = time.monotonic()
        lengths.append(now - begun)
        # Past the fewest rounds, start another only if a typical one
        # would still end within --seconds.
        typical = statistics.median(lengths)
        if len(rounds) >= wanted * len(kinds) and (
            now - started + typical > args.seconds
        ):
            break
        if now + max(lengths) > launcher.deadline:
            break
    return fill, rounds


def check(args: argparse.Namespace, rounds: List[Dict]) -> Tuple[int, int, int]:
    """(attempted, failed, sim_mismatch) over every round."""
    ops = worker.operations(args.workload)
    want = golden.expected(args.workload, args.seed)
    attempted = failed = mismatch = 0
    for reply in rounds:
        attempted += len(ops)
        if not reply["ok"]:
            failed += len(ops)
            continue
        bad, differing = golden.compare(reply, want, ops)
        if args.workload == "fig11-warm" and reply["cache_misses"]:
            # The warm sweep computed streams: a cache key or schema
            # change turned it cold, which is a failure, not a slowdown.
            bad = set(ops)
        failed += len(bad)
        mismatch = max(mismatch, differing)
    return attempted, failed, mismatch


def fastest_parts(plain: List[Dict]) -> Dict[str, float]:
    """Each separately timed part's fastest time over the rounds.

    Other tenants of a shared host slow a round down in bursts of a
    second or more, and never speed it up.  The fastest time of each
    part (a tenancy cell; the runner's prewarm, one experiment, or the
    rest of the sweep) is the one least disturbed, and a burst spoils
    only the part it falls in.
    """
    names = {name for r in plain for name in r["parts_s"]}
    return {
        name: min(r["parts_s"][name] for r in plain if name in r["parts_s"])
        for name in sorted(names)
    }


def end_to_end(
    fill: Optional[Dict], plain: List[Dict], slowdown: float
) -> Dict[str, float]:
    """Every end-to-end metric over the untimed rounds.

    ``wall_s`` is the sum of the fastest time of each part, and the
    rates divide a round's simulated work by it.  ``setup_s`` is the
    median time a fresh interpreter needs before the workload starts,
    plus the cache fill on fig11-warm.  Both times are divided by the
    run's host slowdown (``hostspeed.py``).  Memory is the median over
    rounds.
    """
    fill_s = fill["lifetime_s"] if fill is not None and fill["ok"] else 0.0
    wall = sum(fastest_parts(plain).values()) / slowdown
    setup = statistics.median(r["setup_s"] for r in plain) + fill_s
    return {
        "wall_s": wall,
        "walks_per_s": plain[0]["walks"] / wall,
        "refs_per_s": plain[0]["refs"] / wall,
        "setup_s": setup / slowdown,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def layer_values(reply: Dict) -> Dict[str, float]:
    """Every per-layer metric of one timed round (but the overhead)."""
    seconds = reply["self_seconds"]
    calls = reply["calls"]
    counts = reply["counts"]

    def busy(*probes: str) -> float:
        return sum(seconds.get(probe, 0.0) for probe in probes)

    def called(*probes: str) -> int:
        return sum(calls.get(probe, 0) for probe in probes)

    def ratio(part: float, whole: float, scale: float = 1.0) -> float:
        return scale * part / whole if whole else 0.0

    wall = reply["wall_s"]
    feeds = [probe for probe in layers.LAYER_OF if probe.startswith("obs.")]
    synthesis = ("workloads.load_workload", "workloads.sample_misses")
    walking = ("batch.replay_misses_batch", "batch.replay_misses_batch_many")
    hits = counts.get("stream_cache.hits", 0)
    misses = counts.get("stream_cache.misses", 0)
    phase2 = busy("batch.compile_kernel", *walking, "simulate.replay_misses")
    unattributed = wall - sum(seconds.values())
    return {
        "workloads.busy_s": busy(*synthesis),
        "workloads.calls": called(*synthesis),
        "translation_map.busy_s": busy("translation_map.from_space"),
        "translation_map.calls": called("translation_map.from_space"),
        "pagetables.build_s": busy(
            "pagetables.populate", "pagetables.insert_many"
        ),
        "pagetables.ptes_inserted": counts.get("pagetables.ptes_inserted", 0),
        "pagetables.remove_s": busy("pagetables.remove_many"),
        "pagetables.ptes_removed": counts.get("pagetables.ptes_removed", 0),
        "phase1.busy_s": busy("phase1.collect_misses"),
        "phase1.refs": counts.get("phase1.refs", 0),
        "phase1.misses": counts.get("phase1.misses", 0),
        "phase1.ns_per_ref": ratio(
            busy("phase1.collect_misses"), counts.get("phase1.refs", 0), 1e9
        ),
        "stream_cache.load_s": busy("stream_cache.get"),
        "stream_cache.store_s": busy("stream_cache.put"),
        "stream_cache.hits": hits,
        "stream_cache.misses": misses,
        "stream_cache.hit_ratio": ratio(hits, hits + misses),
        "batch.compile_s": busy("batch.compile_kernel"),
        "batch.compiles": called("batch.compile_kernel"),
        "batch.walk_s": busy(*walking),
        "batch.walks": counts.get("batch.walks", 0),
        "batch.ns_per_walk": ratio(
            busy(*walking), counts.get("batch.walks", 0), 1e9
        ),
        "simulate.fallbacks": sum(reply["fallbacks"].values()),
        "simulate.replay_s": busy("simulate.replay_misses"),
        "obs.feed_s": busy(*feeds),
        "obs.feed_calls": called(*feeds),
        "tenancy.admit_s": busy("tenancy.admit"),
        "tenancy.depart_s": busy("tenancy.depart"),
        "tenancy.reclaim_s": busy("tenancy.reclaim"),
        "tenancy.refault_s": busy("tenancy.refault"),
        "tenancy.shootdown_s": busy("tenancy.flush_asids"),
        "tenancy.admits": called("tenancy.admit"),
        "tenancy.reclaims": counts.get("tenancy.reclaims", 0),
        "journal.append_s": busy("journal.append_result"),
        "runner.tasks": reply["runner_tasks"],
        "phase2.wall_share": ratio(phase2, wall),
        "unattributed_s": unattributed,
        "unattributed_frac": ratio(unattributed, wall),
    }


def per_layer(plain: List[Dict], timed: List[Dict]) -> Dict[str, float]:
    """Median per-layer metrics over the timed rounds."""
    values = [layer_values(reply) for reply in timed]
    medians = {
        name: statistics.median(value[name] for value in values)
        for name in values[0]
    }
    medians["trace_overhead_frac"] = (
        statistics.median(r["wall_s"] for r in timed)
        / statistics.median(r["wall_s"] for r in plain)
        - 1.0
    )
    return medians


def print_layers(timed: List[Dict], medians: Dict[str, float]) -> None:
    """Each layer's self time and share of wall, unattributed included."""
    wall = statistics.median(r["wall_s"] for r in timed)
    per_round = [layers.layer_seconds(r["self_seconds"]) for r in timed]
    names = sorted({name for seconds in per_round for name in seconds})
    rows = [
        (name, statistics.median(s.get(name, 0.0) for s in per_round))
        for name in names
    ]
    rows.sort(key=lambda row: -row[1])
    rows.append(("unattributed", medians["unattributed_s"]))
    print(f"layer self time, median of {len(timed)} timed round(s), "
          f"timed wall {wall:.3f} s:")
    for name, seconds in rows:
        print(f"  {name:<16} {seconds:10.4f} s  {100 * seconds / wall:6.2f}%")
    print(f"  trace_overhead_frac {medians['trace_overhead_frac']:.4f}")
    share = medians["phase2.wall_share"]
    line = (f"phase 2 (batch compile + walk + scalar fallback) is "
            f"{100 * share:.2f}% of wall")
    try:
        speedup = json.loads(BATCH_BASELINE.read_text())["aggregate_speedup"]
    except (OSError, ValueError, KeyError):
        speedup = None
    if speedup is not None:
        line += (f"; bench_batch's committed phase-2 speed-up is "
                 f"{speedup}x, so even an infinitely fast phase 2 saves at "
                 f"most {100 * share:.2f}% here")
    print(line)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so the running worker is killed and
    # waited for and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    launcher = Launcher(args)
    try:
        fill, rounds = measure(launcher)
    finally:
        launcher.close()
    plain = [r for r in rounds if r["ok"] and not r["timed"]]
    timed = [r for r in rounds if r["ok"] and r["timed"]]
    if not plain or (args.trace and not timed):
        print("perfbench: no round completed", file=sys.stderr)
        return 1
    attempted, failed, mismatch = check(args, rounds)
    slowdown = launcher.host.slowdown()
    values = end_to_end(fill, plain, slowdown)

    print(f"perfbench {args.workload} seed {args.seed}: "
          f"{len(plain)} untimed round(s), {len(timed)} timed"
          + (f", cache fill {fill['lifetime_s']:.3f} s" if fill else ""))
    print("  untimed round walls (s): "
          + " ".join(f"{r['wall_s']:.3f}" for r in plain))
    print("  fastest part times (s): " + ", ".join(
        f"{name} {seconds:.3f}"
        for name, seconds in fastest_parts(plain).items()))
    print(f"  host slowdown {slowdown:.3f} (fastest of "
          f"{len(launcher.host.passes)} host-kernel passes over "
          f"{hostspeed.QUIET_PASS_S} s); wall_s and setup_s below are "
          "divided by it")
    for name, unit in END_TO_END.items():
        print(f"  {name:<12} {values[name]:14.6g}  {unit}")
    print(f"sim_mismatch {mismatch}; failed {failed} of {attempted} "
          f"operations (failed_frac {failed / attempted:.4g})")
    fallbacks = plain[0]["fallbacks"]
    print("batch fallbacks per round (scalar replay_misses under the batch "
          "engine): " + (", ".join(f"{table}={count}" for table, count
                                   in sorted(fallbacks.items())) or "none"))
    if args.workload == "fig11-warm":
        print("warm stream-cache misses per round: "
              f"{[r['cache_misses'] for r in plain + timed]}")

    if args.trace:
        medians = per_layer(plain, timed)
        print_layers(timed, medians)
        metrics = {name: (medians[name], unit)
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: (values[name], unit)
                   for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": mismatch == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
