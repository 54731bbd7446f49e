"""Table 2 (appendix): closed-form formulae vs simulation.

The paper's appendix formulae approximate what the simulator measures.
This experiment cross-validates them over the workload suite:

- **Sizes** must match the built tables *exactly* — the size formulae are
  definitions of the §6.1 accounting, not approximations.
- **Access lines** (``1 + α/2`` for hashed/clustered) assume uniform
  random lookups, so they are checked against a uniform-random probe
  stream; locality-driven traces may deviate, as the appendix itself
  notes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.analysis import formulae
from repro.analysis.metrics import make_table
from repro.experiments.common import (
    ExperimentResult,
    SIZE_WORKLOADS,
    get_workload,
    replay,
    uniform_probes,
)
from repro.os.translation_map import TranslationMap
from repro.pagetables.forward import DEFAULT_LEVEL_BITS


def run(
    workloads: Optional[Sequence[str]] = None,
    num_buckets: int = 4096,
    probe_count: int = 20_000,
    seed: int = 7,
) -> ExperimentResult:
    """Validate every Table 2 formula against the simulator."""
    rows: List[List] = []
    rng = np.random.default_rng(seed)
    for name in workloads or SIZE_WORKLOADS:
        workload = get_workload(name)
        space = workload.union_space()
        tmap = TranslationMap.from_space(space)
        s = space.layout.subblock_factor

        hashed = make_table("hashed", num_buckets=num_buckets)
        clustered = make_table("clustered", num_buckets=num_buckets)
        linear6 = make_table("linear-6lvl")
        linear1 = make_table("linear-1lvl")
        forward = make_table("forward-mapped")
        for table in (hashed, clustered, linear6, linear1, forward):
            tmap.populate(table, base_pages_only=True)

        # --- sizes: formula vs built table -------------------------------
        size_checks = [
            ("hashed", formulae.hashed_size(space.nactive(1)),
             hashed.size_bytes()),
            ("clustered", formulae.clustered_size(space.nactive(s), s),
             clustered.size_bytes()),
            ("linear-6lvl", formulae.multilevel_linear_size(space.nactive),
             linear6.size_bytes()),
            ("forward-mapped",
             formulae.forward_mapped_size(space.nactive, DEFAULT_LEVEL_BITS),
             forward.size_bytes()),
        ]

        # --- access lines under uniform random probes --------------------
        probes = uniform_probes(space, rng, probe_count)
        hashed_lines = replay(probes, hashed).lines_per_miss
        clustered_lines = replay(probes, clustered).lines_per_miss
        predicted_hashed = formulae.hashed_access_lines(hashed.load_factor())
        predicted_clustered = formulae.clustered_access_lines(
            clustered.load_factor()
        )

        for label, predicted, measured in size_checks:
            rows.append(
                [f"{name}/{label}", "size B", int(predicted), int(measured),
                 round(measured / predicted if predicted else 0.0, 4)]
            )
        rows.append(
            [f"{name}/hashed", "lines/miss", round(predicted_hashed, 3),
             round(hashed_lines, 3),
             round(hashed_lines / predicted_hashed, 4)]
        )
        rows.append(
            [f"{name}/clustered", "lines/miss",
             round(predicted_clustered, 3),
             round(clustered_lines, 3),
             round(clustered_lines / predicted_clustered, 4)]
        )
    return ExperimentResult(
        experiment="Table 2: appendix formulae vs simulation",
        headers=["case", "metric", "formula", "simulated", "ratio"],
        rows=rows,
        notes=(
            "Size formulae must match exactly (ratio 1.0); access formulae "
            "assume uniform random hashing and are checked under a uniform "
            "random probe stream (small deviations reflect hash-bucket "
            "variance)."
        ),
    )
