"""Claims verifier: every headline claim of the paper, checked in one run.

EXPERIMENTS.md narrates the reproduction; this module *executes* it.  Each
claim is a predicate over experiment results that the runner regenerates
(``runner.run_all`` over :data:`KEYS`); the output is a claim-by-claim
verdict table, and ``python -m repro experiment claims`` exits non-zero if
any reproducible claim fails — the reproduction's end-to-end acceptance
gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence

from repro.experiments.common import ExperimentResult

#: The runner keys whose results the claims read, in paper order.
KEYS = (
    "table1", "fig9", "fig10", "fig11a", "fig11b", "fig11c", "fig11d",
    "table2",
)


@dataclass
class Claim:
    """One paper claim with its verdict."""

    source: str
    statement: str
    measured: str
    holds: bool


def verify(results: Mapping[str, ExperimentResult]) -> List[Claim]:
    """Evaluate every claim over the results of :data:`KEYS`."""
    claims: List[Claim] = []

    def record(source: str, statement: str, measured: str, holds: bool):
        claims.append(Claim(source, statement, measured, holds))

    # ------------------------------------------------------------- Fig 9
    fig9_result = results["fig9"]
    minima = []
    for row in fig9_result.rows:
        values = dict(zip(fig9_result.headers[1:], row[1:]))
        minima.append(values["clustered"] == min(row[1:]))
    record(
        "§3/Fig9",
        "clustered page tables use less memory than every alternative "
        "for all workloads",
        f"row minimum in {sum(minima)}/{len(minima)} workloads",
        all(minima),
    )
    sparse_linear = fig9_result.column("linear-6lvl")
    record(
        "§7/Fig9",
        "multi-level linear tables do not scale to sparse 64-bit spaces",
        f"gcc {sparse_linear['gcc']:.1f}x, compress "
        f"{sparse_linear['compress']:.1f}x hashed",
        sparse_linear["gcc"] > 2.0 and sparse_linear["compress"] > 2.0,
    )

    # ------------------------------------------------------------ Fig 10
    fig10_result = results["fig10"]
    sp_savings = []
    psb_savings = []
    for row in fig10_result.rows:
        values = dict(zip(fig10_result.headers[1:], row[1:]))
        sp_savings.append(1 - values["clustered+superpage"] / values["clustered"])
        psb_savings.append(1 - values["clustered+subblock"] / values["clustered"])
    record(
        "§6/Fig10",
        "superpage PTEs cut clustered table size by up to ~75%",
        f"max saving {100 * max(sp_savings):.0f}%",
        max(sp_savings) >= 0.70,
    )
    record(
        "§6/Fig10",
        "partial-subblock PTEs cut clustered table size by up to ~80%",
        f"max saving {100 * max(psb_savings):.0f}%",
        max(psb_savings) >= 0.75,
    )

    # --------------------------------------------------------- Fig 11a-d
    sub11 = {key[3:]: results[key] for key in KEYS if key.startswith("fig11")}
    fwd = [
        value
        for figure in sub11.values()
        for value in figure.column("forward-mapped").values()
    ]
    record(
        "§2/Fig11",
        "forward-mapped tables cost ~7 accesses per miss everywhere",
        f"range {min(fwd):.2f}-{max(fwd):.2f}",
        all(abs(v - 7.0) < 0.01 for v in fwd),
    )
    clustered_all = [
        value
        for figure in sub11.values()
        for value in figure.column("clustered").values()
    ]
    record(
        "§5/Fig11",
        "clustered tables stay ~1 cache line per miss under all four "
        "TLB architectures",
        f"max {max(clustered_all):.2f}",
        max(clustered_all) < 2.1,
    )
    hashed_b = sub11["11b"].column("hashed-multi")
    record(
        "§6/Fig11b",
        "hashed tables degrade under superpage TLBs, worst where "
        "superpage misses dominate (coral vs gcc)",
        f"coral {hashed_b['coral']:.2f} vs gcc {hashed_b['gcc']:.2f}",
        hashed_b["coral"] > 1.5 and hashed_b["coral"] > hashed_b["gcc"],
    )
    hashed_d = sub11["11d"].column("hashed")
    record(
        "§4.4/Fig11d",
        "hashed tables perform terribly under complete-subblock prefetch "
        "(~16 probes)",
        f"range {min(hashed_d.values()):.1f}-{max(hashed_d.values()):.1f}",
        min(hashed_d.values()) > 10.0,
    )

    # ------------------------------------------------------------ Table 2
    table2_result = results["table2"]
    size_exact = all(
        row[4] == 1.0 for row in table2_result.rows if row[1] == "size B"
    )
    access_close = all(
        0.9 < row[4] < 1.1
        for row in table2_result.rows if row[1] == "lines/miss"
    )
    record(
        "Appendix",
        "size formulae are exact; 1+α/2 access formulae hold under "
        "uniform probing",
        f"size exact={size_exact}, access within 10%={access_close}",
        size_exact and access_close,
    )

    # ------------------------------------------------------------ Table 1
    table1_result = results["table1"]
    footprints_ok = all(
        row[6] is None or abs(row[6] / row[7] - 1.0) < 0.15
        for row in table1_result.rows
    )
    record(
        "§6.2/Table1",
        "synthetic workloads match the paper's page-table footprints",
        "all workloads within ±15%",
        footprints_ok,
    )

    return claims


def report(claims: Sequence[Claim]) -> ExperimentResult:
    """Render the verdicts as a result table."""
    rows = [
        [claim.source, claim.statement, claim.measured,
         "PASS" if claim.holds else "FAIL"]
        for claim in claims
    ]
    passed = sum(claim.holds for claim in claims)
    return ExperimentResult(
        experiment="Paper claims verification",
        headers=["source", "claim", "measured", "verdict"],
        rows=rows,
        notes=f"{passed}/{len(claims)} claims hold.",
    )
