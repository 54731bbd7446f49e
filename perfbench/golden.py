"""Golden simulated statistics, and the comparison every round makes.

``golden/fig11.json`` holds every Figure 11a-d cell and the walks and
references the sweep simulates.  ``golden/tenancy-churn.json`` holds
every field of each tenancy cell's record for seeds 0 .. GOLDEN_SEEDS-1.
Both were captured from the program at the commit that introduced this
benchmark.  A change that only speeds the simulator up must leave every
value identical.  To capture them again, from the repository root::

    python3 perfbench/golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Iterable, Set, Tuple

import layers
import worker

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_MISSING = object()


def path_for(workload: str) -> Path:
    name = "tenancy-churn" if workload == "tenancy-churn" else "fig11"
    return GOLDEN_DIR / f"{name}.json"


def expected(workload: str, seed: int) -> Dict:
    """The statistics a round of ``workload`` at ``seed`` must reproduce."""
    doc = json.loads(path_for(workload).read_text())
    if workload == "tenancy-churn":
        return doc[str(worker.tenancy_seed(seed))]
    return doc


def flatten(value, prefix: str = "") -> Dict[str, object]:
    """Leaf values keyed by their path, e.g. ``rows/3/2``."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {prefix: value}
    leaves: Dict[str, object] = {}
    for key, item in items:
        leaves.update(flatten(item, f"{prefix}/{key}" if prefix else str(key)))
    return leaves


def compare(
    reply: Dict, golden: Dict, ops: Iterable[str]
) -> Tuple[Set[str], int]:
    """(failed operations, differing statistics) of one round.

    An operation fails when it raised or any of its statistics differs.
    A wrong walk or reference total cannot be pinned on one operation,
    so it fails them all.
    """
    ops = tuple(ops)
    failed = {op for op in ops if op in reply["errors"]}
    differing = 0
    for op in ops:
        want = flatten(golden["ops"][op])
        got = flatten(reply["ops"].get(op, {}))
        diff = sum(
            1 for key in want.keys() | got.keys()
            if want.get(key, _MISSING) != got.get(key, _MISSING)
        )
        if diff:
            failed.add(op)
            differing += diff
    totals = sum(1 for name in ("walks", "refs") if reply[name] != golden[name])
    if totals:
        differing += totals
        failed.update(ops)
    return failed, differing


def _capture(workload: str, seed: int) -> Dict:
    probes = layers.install_counters(layers.Probes())
    request = {
        "workload": workload, "seed": seed, "mode": "round",
        "cache_dir": None, "run_dir": None,
    }
    try:
        outcome = worker.simulate(request, probes)
    finally:
        probes.uninstall()
    if outcome["errors"]:
        raise SystemExit(f"{workload} seed {seed}: {outcome['errors']}")
    return {key: outcome[key] for key in ("walks", "refs", "ops")}


def _write(path: Path, doc: Dict) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main() -> int:
    worker.import_program()
    from repro.experiments import common

    common.configure_engine("batch")
    GOLDEN_DIR.mkdir(exist_ok=True)
    fig11 = _capture("fig11-cold", 0)
    fig11.update(trace_length=worker.FIG11_TRACE_LENGTH, seed=1234)
    _write(path_for("fig11-cold"), fig11)
    _write(
        path_for("tenancy-churn"),
        {
            str(seed): _capture("tenancy-churn", seed)
            for seed in range(worker.GOLDEN_SEEDS)
        },
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
