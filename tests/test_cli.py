"""Command-line interface smoke tests."""

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


#: Flags only ``experiment all`` reads, each with a value where it takes one.
RUN_FLAGS = [
    ["--jobs", "4"], ["--only", "fig9"], ["--profile-out", "trace.json"],
    ["--json", "results.json"], ["--csv", "csv"], ["--metrics"],
    ["--max-retries", "0"], ["--task-timeout", "5"], ["--keep-going"],
    ["--run-dir", "run"], ["--resume", "run"], ["--fault-plan", "plan.json"],
]


class TestExperimentFlags:
    """A flag the chosen id does not read is a usage error, not ignored."""

    @pytest.mark.parametrize("flag", RUN_FLAGS, ids=lambda flag: flag[0])
    def test_run_flag_with_a_single_id_is_a_usage_error(
        self, flag, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "fig9", *flag])
        assert exc.value.code == 2
        assert f"{flag[0]} is not read by 'fig9'" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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
        assert main(["metrics", exp_id, "--fast"]) == 0
        assert "runner.task_seconds" in capsys.readouterr().out

    def test_metrics_rejects_an_unknown_id(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["metrics", "fig42"])
        assert exc.value.code == 2
