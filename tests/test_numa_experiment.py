"""The NUMA sweep experiment, its runner wiring, and its CLI surface."""

import pytest

from repro.experiments import numa
from repro.experiments.runner import (
    CELLED,
    EXPERIMENT_ORDER,
    _SINGLE_STREAM_EXPERIMENTS,
    select_experiments,
    stream_prewarm_plan,
)

TRACE_LENGTH = 20_000


@pytest.fixture(scope="module")
def result():
    return numa.run(
        workloads=("mp3d",),
        trace_length=TRACE_LENGTH,
        miss_limit=5_000,
    )


def test_sweep_shape(result):
    # 3 tables x 4 topologies for the one workload.
    assert len(result.rows) == 12
    assert result.headers[0] == "workload/table"
    labels = {row[0] for row in result.rows}
    assert labels == {
        "mp3d/linear-1lvl", "mp3d/hashed", "mp3d/clustered",
    }
    assert sorted({row[1] for row in result.rows}) == [1, 2, 4, 8]


def test_single_node_rows_are_the_degenerate_control(result):
    for row in result.rows:
        record = dict(zip(result.headers, row))
        if record["nodes"] == 1:
            assert record["none cyc/miss"] == record["mitosis cyc/miss"]
            assert record["none cyc/miss"] == record["migrate cyc/miss"]
            assert record["none cyc/miss"] == pytest.approx(
                record["lines/miss"] * 90, abs=0.1
            )
            assert record["migrations"] == 0


def test_mitosis_beats_first_touch_on_four_nodes(result):
    """The acceptance bar: replication wins for hashed AND clustered."""
    for row in result.rows:
        record = dict(zip(result.headers, row))
        if record["nodes"] > 1:
            assert record["mitosis cyc/miss"] <= record["none cyc/miss"], row
    for table in ("hashed", "clustered"):
        record = next(
            dict(zip(result.headers, row)) for row in result.rows
            if row[0] == f"mp3d/{table}" and row[1] == 4
        )
        assert record["mitosis cyc/miss"] < record["none cyc/miss"]
        assert record["mitosis local frac"] == pytest.approx(1.0)


def test_lines_per_miss_invariant_across_topologies(result):
    """The flat §6.1 column must not depend on the machine."""
    by_table = {}
    for row in result.rows:
        by_table.setdefault(row[0], set()).add(row[2])
    for table, values in by_table.items():
        assert len(values) == 1, table


def test_remote_penalty_grows_with_machine_size(result):
    """Under first-touch, more nodes ⇒ more remote walks ⇒ higher cost."""
    for table in ("linear-1lvl", "hashed", "clustered"):
        costs = [
            row[3] for row in sorted(
                (r for r in result.rows if r[0] == f"mp3d/{table}"),
                key=lambda r: r[1],
            )
        ]
        assert costs == sorted(costs)
        assert costs[-1] > costs[0]


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------
def test_runner_knows_the_numa_experiment():
    assert "numa" in EXPERIMENT_ORDER
    assert "numa" in _SINGLE_STREAM_EXPERIMENTS
    assert CELLED["numa"] is numa
    assert select_experiments(["numa"]) == ("numa",)
    plan = stream_prewarm_plan(("numa",), workloads=("mp3d",))
    assert ("mp3d", "single", 64) in plan


def test_cli_advertises_numa_and_topology():
    from repro.cli import EXPERIMENT_IDS, build_parser

    assert "numa" in EXPERIMENT_IDS
    parser = build_parser()
    args = parser.parse_args(
        ["experiment", "numa", "--topology", "4-node",
         "--replication", "none,mitosis"]
    )
    assert args.topology == "4-node"
    assert args.replication == "none,mitosis"
    args = parser.parse_args(["topology", "4-node"])
    assert args.name == "4-node"
    args = parser.parse_args(["topology", "--validate", "machine.json"])
    assert args.validate == "machine.json"


def test_cli_topology_subcommand_smoke(capsys):
    from repro.cli import main

    assert main(["topology"]) == 0
    out = capsys.readouterr().out
    assert "4-node" in out and "preset" in out
    assert main(["topology", "2-node"]) == 0
    out = capsys.readouterr().out
    assert "node0" in out and "150" in out


def test_cli_topology_validate_rejects_bad_file(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "bad.json"
    bad.write_text('{"node_frames": [16], "latency": [[90, 90]]}')
    assert main(["topology", "--validate", str(bad)]) == 1
    assert "invalid topology" in capsys.readouterr().out

    from repro.numa.topology import PRESETS

    good = tmp_path / "good.json"
    good.write_text(PRESETS["2-node"].to_json())
    assert main(["topology", "--validate", str(good)]) == 0
