"""Command-line interface smoke tests."""

import json

import pytest

from repro.cli import EXPERIMENT_IDS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig42"])

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["describe", "doom"])

    def test_kernel_excluded_from_compare(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "kernel"])


class TestCommands:
    def test_list_workloads(self, capsys):
        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "coral" in out and "kernel" in out

    def test_describe(self, capsys):
        assert main(["describe", "mp3d"]) == 0
        out = capsys.readouterr().out
        assert "mapped pages" in out and "clustered" in out

    def test_compare(self, capsys):
        assert main(["compare", "mp3d"]) == 0
        out = capsys.readouterr().out
        assert "lines/miss" in out and "clustered" in out

    def test_experiment_multisize(self, capsys):
        assert main(["experiment", "multisize"]) == 0
        out = capsys.readouterr().out
        assert "two-clustered" in out


#: The run options every id reads, each with a value where it takes one,
#: and what it leaves in the working directory.
RUN_OPTIONS = [
    (["--jobs", "2"], []), (["--profile-out", "trace.json"], ["trace.json"]),
    (["--json", "results.json"], ["results.json"]), (["--csv", "csv"], ["csv"]),
    (["--metrics"], []), (["--max-retries", "1"], []),
    (["--task-timeout", "60"], []), (["--keep-going"], []),
    (["--run-dir", "run"], ["run"]), (["--resume", "run"], ["run"]),
    (["--fault-plan", "plan.json"], ["plan.json"]),
]


#: A cheap single id.
TABLE1 = ["experiment", "table1", "--trace-length", "2000", "--workloads", "mp3d"]


@pytest.fixture(scope="module")
def table1_output():
    """What :data:`TABLE1` prints with no run option."""
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(TABLE1) == 0
    return out.getvalue()


class TestExperimentFlags:
    """A flag the chosen id does not read is a usage error, not ignored."""

    @pytest.mark.parametrize(
        "flag", [["--only", "fig9"]], ids=lambda flag: flag[0]
    )
    def test_run_flag_with_a_single_id_is_a_usage_error(
        self, flag, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "fig9", *flag])
        assert exc.value.code == 2
        assert f"{flag[0]} is not read by 'fig9'" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flag, leaves", RUN_OPTIONS, ids=[flag[0] for flag, _ in RUN_OPTIONS]
    )
    def test_a_single_id_reads_the_run_option(
        self, flag, leaves, table1_output, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "plan.json").write_text('{"rules": []}')
        assert main([*TABLE1, *flag]) == 0
        assert capsys.readouterr().out.startswith(table1_output)
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            {"plan.json", *leaves}
        )

    @pytest.mark.parametrize("name", ["promotion-scan", "sensitivity", "bogus"])
    def test_an_unknown_only_name_is_a_usage_error(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "all", "--no-cache", "--only", f"fig9,{name}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--only: unknown experiment(s) {name}; known: " in err
        assert "promotion_scan" in err and "sens_cacheline" in err

    @pytest.mark.parametrize("exp_id, flag", [
        ("all", ["--tenants", "100"]),
        ("fig9", ["--topology", "2-node"]),
        ("tenancy", ["--replication", "none"]),
        ("numa", ["--churn", "static"]),
        ("tenancy", ["--footprint", "4"]),
        ("table1", ["--tables", "hashed"]),
        ("all", ["--tables", "hashed"]),
    ])
    def test_restriction_flag_with_another_id_is_a_usage_error(
        self, exp_id, flag, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", exp_id, *flag])
        assert exc.value.code == 2
        assert f"{flag[0]} is not read by '{exp_id}'" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("exp_id, flag, value", [
        ("tenancy", "--tables", "bogus"),
        ("tenancy", "--tenants", "0"),
        ("tenancy", "--tenants", "abc"),
        ("tenancy", "--churn", "bogus"),
        ("modern", "--footprint", "0"),
        ("modern", "--footprint", "nan"),
        ("modern", "--footprint", "x"),
        ("numa", "--topology", "nowhere"),
        ("numa", "--topology", "1-node,nowhere"),
        ("numa", "--replication", "bogus"),
    ])
    def test_bad_restriction_value_is_a_usage_error(
        self, exp_id, flag, value, monkeypatch, capsys
    ):
        from repro.experiments import runner

        def ran(*args, **kwargs):
            raise AssertionError("a sweep ran before its flags were checked")

        monkeypatch.setattr(runner, "run_all", ran)
        with pytest.raises(SystemExit) as exc:
            main(["experiment", exp_id, flag, value])
        assert exc.value.code == 2
        assert f"error: {flag}: " in capsys.readouterr().err

    def test_topology_takes_a_machine_list(self, monkeypatch):
        from repro.experiments import runner

        swept = {}

        def run_all(*args, cells, **kwargs):
            swept.update(cells)
            return {}

        monkeypatch.setattr(runner, "run_all", run_all)
        assert main(["experiment", "numa", "--workloads", "mp3d",
                     "--topology", "1-node,4-node"]) == 0
        (cell,) = swept["numa"]
        assert [machine["name"] for machine in cell["topologies"]] == [
            "1-node", "4-node",
        ]

    @pytest.mark.parametrize("exp_id", [
        "sensitivity", "multisize", "sasos", "pressure", "tenancy", "claims",
    ])
    def test_workloads_with_an_id_that_picks_its_own_is_a_usage_error(
        self, exp_id, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", exp_id, "--trace-length", "1000",
                  "--workloads", "mp3d"])
        assert exc.value.code == 2
        assert f"--workloads is not read by '{exp_id}'" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("exp_id", ["fig11a", "all"])
    def test_an_unknown_workload_is_a_usage_error(self, exp_id, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", exp_id, "--trace-length", "1000",
                  "--no-cache", "--workloads", "mp3d,nonexistent"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown workload(s) nonexistent; known: " in err
        assert "coral" in err and "kv-store" in err

    def test_modern_without_a_modern_model_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "modern", "--trace-length", "1000",
                  "--footprint", "4", "--workloads", "mp3d"])
        assert exc.value.code == 2
        assert "names none of them" in capsys.readouterr().err

    @pytest.mark.parametrize("exp_id", ["claims", "all"])
    def test_chart_with_claims_or_all_is_a_usage_error(self, exp_id, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", exp_id, "--trace-length", "1000",
                  "--no-cache", "--chart"])
        assert exc.value.code == 2
        assert f"--chart is not read by '{exp_id}'" in (
            capsys.readouterr().err
        )

    def test_claims_writes_its_trace(self, tmp_path, monkeypatch, capsys):
        from repro import cli
        from repro.experiments import claims

        # One cheap key stands in for the eight: the trace plumbing is
        # what is under test, not the claims.
        monkeypatch.setitem(cli._ID_KEYS, "claims", ("fig11a",))
        monkeypatch.setattr(claims, "verify", lambda *args, **kwargs: [])
        trace = tmp_path / "claims.jsonl"
        assert main(["experiment", "claims", "--trace-length", "1000",
                     "--trace-out", str(trace)]) == 0
        assert f"[trace written to {trace}]" in capsys.readouterr().out
        assert trace.read_text().startswith('{"trace_header"')

    def test_a_single_id_reads_workloads(self, capsys):
        assert main(["experiment", "table1", "--trace-length", "2000",
                     "--workloads", "mp3d,gcc"]) == 0
        out = capsys.readouterr().out
        assert "mp3d" in out and "gcc" in out
        assert "coral" not in out


class TestOneCommandLine:
    """Single ids and ``all`` produce through one table and print alike."""

    def test_id_table_covers_the_runner_keys_exactly(self):
        from repro.cli import EXPERIMENT_IDS, runner_keys
        from repro.experiments.runner import EXPERIMENT_ORDER

        keys = [
            key
            for exp_id in EXPERIMENT_IDS
            if exp_id not in ("claims", "all")
            for key in runner_keys(exp_id)
        ]
        assert keys == list(EXPERIMENT_ORDER)

    @pytest.mark.parametrize("exp_id, key", [
        ("fig9", "fig9"),
        ("multisize", "multisize"),
        ("promotion-scan", "promotion_scan"),
    ])
    def test_a_single_id_prints_what_all_prints(self, exp_id, key, capsys):
        assert main(["experiment", exp_id]) == 0
        single = capsys.readouterr().out
        assert main(["experiment", "all", "--only", key, "--no-cache"]) == 0
        whole = capsys.readouterr().out
        assert single + "\n" == whole.split("Run metrics")[0]

    @pytest.mark.parametrize("exp_id", [
        exp_id for exp_id in EXPERIMENT_IDS if exp_id != "all"
    ])
    def test_a_single_id_runs_its_keys_through_run_all(
        self, exp_id, monkeypatch
    ):
        from repro.cli import runner_keys
        from repro.experiments import runner

        class Reached(Exception):
            pass

        seen = {}

        def run_all(trace_length, **kwargs):
            seen.update(kwargs)
            raise Reached

        def bypassed(*args, **kwargs):
            raise AssertionError(f"{exp_id} produced outside run_all")

        monkeypatch.setattr(runner, "run_all", run_all)
        monkeypatch.setattr(runner, "producers", bypassed)
        with pytest.raises(Reached):
            main(["experiment", exp_id, "--trace-length", "1000"])
        assert seen["only"] == runner_keys(exp_id)
        if exp_id in runner.CELLED:
            assert [exp_id] == list(seen["cells"])

    @pytest.mark.parametrize("exp_id", ["promotion-scan", "sensitivity"])
    def test_metrics_takes_the_experiment_ids(self, exp_id, capsys):
        assert main(["experiment", exp_id, "--fast", "--metrics"]) == 0
        assert "runner.task_seconds" in capsys.readouterr().out

    def test_metrics_prints_only_its_own_run(self, capsys):
        """Regression: ``--metrics`` printed the process-wide registry,
        so a second run in one process showed the first one's tasks."""
        small = ["--workloads", "mp3d", "--metrics"]
        assert main(["experiment", "fig9", *small]) == 0
        capsys.readouterr()
        assert main(
            ["experiment", "table1", "--trace-length", "2000", *small]
        ) == 0
        rows = [
            line.split() for line in capsys.readouterr().out.splitlines()
            if line.startswith("runner.task_seconds{stage=experiment}")
        ]
        assert [row[1] for row in rows] == ["1"]  # the count column

    def test_a_celled_id_runs_in_parallel_journaled_and_resumable(
        self, tmp_path, capsys
    ):
        tenancy = ["experiment", "tenancy", "--trace-length", "2000",
                   "--tenants", "20"]
        assert main(tenancy) == 0
        serial = capsys.readouterr().out
        run = tmp_path / "run"
        assert main([*tenancy, "--jobs", "2", "--run-dir", str(run)]) == 0
        assert capsys.readouterr().out == serial
        assert {"journal.jsonl", "metrics.json", "progress.json"} <= {
            path.name for path in run.iterdir()
        }
        assert main(["watch", str(run), "--once"]) == 0
        assert "state=finished" in capsys.readouterr().out
        journal = (run / "journal.jsonl").read_text()
        assert main([*tenancy, "--resume", str(run)]) == 0
        assert capsys.readouterr().out == serial
        assert (run / "journal.jsonl").read_text() == journal  # no new cell

    def test_a_single_id_exports_what_all_exports(self, tmp_path, capsys):
        single, whole = tmp_path / "single.json", tmp_path / "all.json"
        assert main([*TABLE1, "--json", str(single)]) == 0
        assert main(["experiment", "all", "--only", "table1",
                     *TABLE1[2:], "--no-cache", "--json", str(whole)]) == 0
        assert single.read_bytes() == whole.read_bytes()

    def test_trace_out_is_the_same_at_any_jobs(self, tmp_path):
        """A walk trace is one file at ``--jobs 1`` and ``2``, and an
        attempt that fails mid-task leaves none of its walks in it."""
        fig11d = ["experiment", "fig11d", "--trace-length", "2000",
                  "--workloads", "mp3d,gcc", "--no-cache"]
        serial, parallel = tmp_path / "jobs1.jsonl", tmp_path / "jobs2.jsonl"
        for jobs, trace in (("1", serial), ("2", parallel)):
            assert main([*fig11d, "--jobs", jobs,
                         "--trace-out", str(trace)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()
        assert json.loads(serial.read_text().splitlines()[0])[
            "trace_header"]["recorded"] > 0

        # On a warm cache fig11a's third stream load is gcc's first,
        # after mp3d's replays; it fails the first attempt only, so one
        # retry recovers.
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"rules": [
            {"site": "cache.load_stream", "action": "raise-eio",
             "match": "fig11a", "at": 3, "max_attempt": 1},
        ]}))
        fig11a = ["experiment", "fig11a", "--trace-length", "2000",
                  "--workloads", "mp3d,gcc",
                  "--cache-dir", str(tmp_path / "streams")]
        clean, faulted = tmp_path / "clean.jsonl", tmp_path / "faulted.jsonl"
        run = tmp_path / "run"
        assert main([*fig11a, "--trace-out", str(clean)]) == 0
        assert main([*fig11a, "--trace-out", str(faulted),
                     "--fault-plan", str(plan), "--max-retries", "1",
                     "--run-dir", str(run)]) == 0
        assert json.loads((run / "metrics.json").read_text())["run"][
            "task_retries"] == 1
        assert faulted.read_bytes() == clean.read_bytes()

    @pytest.mark.parametrize("exp_id", ["table1", "claims"])
    def test_a_failed_task_prints_the_failure_manifest(
        self, exp_id, tmp_path, monkeypatch, capsys
    ):
        from repro import cli
        from repro.experiments import claims

        monkeypatch.setitem(cli._ID_KEYS, "claims", ("table1",))

        def verify(*args, **kwargs):
            raise AssertionError("claims judged without their results")

        monkeypatch.setattr(claims, "verify", verify)
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"rules": [
            {"site": "runner.experiment", "action": "raise-eio"},
        ]}))
        assert main([
            "experiment", exp_id, "--trace-length", "2000", "--keep-going",
            "--fault-plan", str(plan),
        ]) == 1
        out = capsys.readouterr().out
        assert out.startswith("\nFailure manifest")
        assert "table1" in out and "OSError" in out

    def test_an_interrupted_single_id_prints_the_interrupt_line(
        self, tmp_path, capsys
    ):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"rules": [
            {"site": "runner.experiment", "action": "sigint"},
        ]}))
        run = tmp_path / "run"
        assert main([*TABLE1, "--fault-plan", str(plan),
                     "--run-dir", str(run)]) == 130
        assert capsys.readouterr().out == (
            f"[interrupted: 0/1 experiments completed; resume with "
            f"--resume {run}]\n"
        )

    def test_metrics_needs_a_finished_run_dir(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path)]) == 1
        assert f"no metrics.json in {tmp_path}" in capsys.readouterr().out

    def test_metrics_rejects_an_unknown_id(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["metrics", "fig42"])
        assert exc.value.code == 2
