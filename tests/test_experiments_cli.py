"""Tests for the experiment runners and the CLI layer."""

import json

import pytest

from repro.cli import _scenario_spec, build_parser, main
from repro.experiments import ScenarioSpec, build_environment, run_scenario
from repro.experiments.runners import PAPER_APPS, POLICY_NAMES, ComparisonRow

SMALL = dict(apps=("image-query",), duration=120.0, train_duration=600.0, env_seed=2)


@pytest.fixture(scope="module")
def small_env():
    return build_environment(
        "image-query", preset="steady", duration=120.0, train_duration=600.0, seed=2
    )


class TestBuildEnvironment:
    def test_environment_shape(self, small_env):
        assert small_env.app.name == "image-query"
        assert set(small_env.profiles) == set(small_env.app.function_names)
        assert small_env.trace.duration == pytest.approx(120.0)
        assert small_env.train_counts.shape == (600,)

    def test_unknown_app(self):
        with pytest.raises(KeyError, match="unknown application"):
            build_environment("nope")

    def test_policy_registry_complete(self, small_env):
        for name in POLICY_NAMES:
            assert small_env.make_policy(name) is not None
        with pytest.raises(KeyError):
            small_env.make_policy("nope")


class TestRunners:
    """Comparisons, sweeps and co-runs are scenarios run by `run_scenario`."""

    def test_comparison_rows(self):
        rows = run_scenario(ScenarioSpec(policies=("smiless", "grandslam"), **SMALL))
        assert [r.policy for r in rows] == ["smiless", "grandslam"]
        for r in rows:
            assert isinstance(r.row, ComparisonRow)
            assert r.row.total_cost > 0
            assert 0.0 <= r.row.violation_ratio <= 1.0

    def test_sla_sweep_rows(self):
        rows = run_scenario(
            ScenarioSpec(policies=("grandslam",), slas=(1.0, 4.0), **SMALL)
        )
        assert [r.sla for r in rows] == [1.0, 4.0]
        # lenient SLA is never more expensive for the slack-driven system
        assert rows[1].row.total_cost <= rows[0].row.total_cost * 1.05

    def test_co_run_rows(self):
        spec = ScenarioSpec(
            apps=("image-query", "voice-assistant"),
            policies=("grandslam",),
            co_run=True,
            duration=90.0,
            train_duration=400.0,
            env_seed=5,
        )
        rows = run_scenario(spec)
        assert [r.app for r in rows] == ["image-query", "voice-assistant"]


def _row(out: str, label: str) -> str:
    """The one printed table row with a column equal to ``label``."""
    (row,) = [line for line in out.splitlines() if label in line.split()]
    return row


def _printed_numbers(summary: dict) -> str:
    """Cost through p99 latency as a scenario table row prints them."""
    return (
        f"${summary['total_cost']:>8.4f} {summary['violation_ratio']:>10.1%} "
        f"{summary['mean_latency']:>8.2f}s {summary['p99_latency']:>7.2f}s"
    )


class TestSeedRule:
    """`--seed S`: env seed S for every app, sim seed S + 3, on every command."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "image-query"],
            ["sweep", "image-query"],
            ["multiapp"],
            ["report", "image-query"],
            ["trace", "image-query"],
            ["bench", "--macro"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_run_command_compiles_one_seed_rule(self, argv):
        args = build_parser().parse_args([*argv, "--seed", "2"])
        spec = _scenario_spec(args, apps=PAPER_APPS)
        assert spec.env_seed == 2
        assert spec.seeds == (5,)
        assert {env.seed for cell in spec.cells() for env in cell.envs} == {2}

    def test_compare_prints_what_report_returns(self, capsys):
        flags = ["--policies", "grandslam", "--duration", "60", "--seed", "1"]
        assert main(["compare", "image-query", *flags]) == 0
        row = _row(capsys.readouterr().out, "grandslam")
        report = ["--policy", "grandslam", "--duration", "60", "--seed", "1"]
        assert main(["report", "image-query", "--json", *report]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (
            f"{summary['mean_latency']:>8.2f}s {summary['p99_latency']:>7.2f}s"
            in row
        )

    def test_multiapp_prints_the_co_run_scenario(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "apps": list(PAPER_APPS),
                    "policies": ["grandslam"],
                    "duration": 60.0,
                    "env_seed": 0,
                    "seeds": [3],
                    "co_run": True,
                }
            )
        )
        assert main(["scenario", str(spec_path), "--json"]) == 0
        cells = json.loads(capsys.readouterr().out)
        argv = ["multiapp", "--policy", "grandslam", "--duration", "60"]
        assert main([*argv, "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert [c["app"] for c in cells] == list(PAPER_APPS)
        for c in cells:
            assert _printed_numbers(c["summary"]) in _row(out, c["app"])


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["compare", "image-query", "--duration", "60"])
        assert args.command == "compare"
        assert args.duration == 60.0
        args = parser.parse_args(["sweep", "amber-alert", "--slas", "1", "2"])
        assert args.slas == [1.0, 2.0]

    def test_parser_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compare", "image-query", "--policies", "magic"]
            )

    def test_apps_command(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "amber-alert" in out
        assert "smiless" in out

    def test_profile_command(self, capsys):
        assert main(["profile", "QA"]) == 0
        out = capsys.readouterr().out
        assert "Roberta" in out
        assert "robust=" in out

    def test_macro_bench_defaults_to_paper_apps(self, tmp_path, capsys):
        out = tmp_path / "macro.json"
        code = main(
            ["bench", "--macro", "--invocations", "200", "--out", str(out)]
        )
        assert code == 0
        assert "3 apps" in capsys.readouterr().out
        record = json.loads(out.read_text())
        assert set(record["apps"]) == set(PAPER_APPS)
        prov = record["provenance"]
        assert prov["apps"] == list(PAPER_APPS)
        assert prov["git_sha"] is None or len(prov["git_sha"]) == 40
        assert prov["hostname"] and prov["cpu_count"] >= 1
        assert prov["python"].count(".") == 2 and prov["numpy"]
        # Process start to record write: imports, env build and the run.
        assert record["end_to_end_seconds"] > record["wall_clock_seconds"]

    def test_macro_bench_peak_rss_counts_worker_processes(
        self, tmp_path, monkeypatch
    ):
        import resource
        import types

        # The workers of a sharded run peak above the parent process.
        peaks = {
            resource.RUSAGE_SELF: 100 * 1024,
            resource.RUSAGE_CHILDREN: 300 * 1024,
        }
        monkeypatch.setattr(
            resource,
            "getrusage",
            lambda who: types.SimpleNamespace(ru_maxrss=peaks[who]),
        )
        out = tmp_path / "macro.json"
        code = main(
            ["bench", "--macro", "--invocations", "200", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["peak_rss_mb"] == 300.0

    @pytest.mark.parametrize(
        "status, dirty", [(" M src/repro/cli.py\n", True), ("", False)]
    )
    def test_bench_provenance_flags_a_dirty_tree(self, monkeypatch, status, dirty):
        import subprocess

        from repro.cli import _bench_provenance

        def fake_git(cmd, **kwargs):
            out = "a" * 40 + "\n" if cmd[1] == "rev-parse" else status
            return subprocess.CompletedProcess(cmd, 0, stdout=out, stderr="")

        monkeypatch.setattr(subprocess, "run", fake_git)
        prov = _bench_provenance()
        assert prov["git_sha"] == "a" * 40
        assert prov["git_dirty"] is dirty

    def test_bench_provenance_without_git(self, monkeypatch):
        import subprocess

        from repro.cli import _bench_provenance

        def no_git(cmd, **kwargs):
            raise FileNotFoundError("git")

        monkeypatch.setattr(subprocess, "run", no_git)
        prov = _bench_provenance()
        assert prov["git_sha"] is None and prov["git_dirty"] is None

    def test_multiapp_co_runs_paper_apps(self, monkeypatch, capsys):
        import repro.cli as cli

        seen = []

        def spy(spec, **kwargs):
            seen.append(spec)
            return run_scenario(spec, **kwargs)

        monkeypatch.setattr(cli, "run_scenario", spy)
        code = main(["multiapp", "--policy", "grandslam", "--duration", "30"])
        assert code == 0
        (spec,) = seen
        assert spec.apps == PAPER_APPS and spec.co_run
        out = capsys.readouterr().out
        assert "[co-run]" in out
        # One row per app, labelled with the app's name.
        for app in PAPER_APPS:
            assert _row(out, app).split()[0] == app

    def test_compare_command_end_to_end(self, capsys):
        code = main(
            [
                "compare",
                "image-query",
                "--duration",
                "60",
                "--policies",
                "grandslam",
                "--seed",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "grandslam" in out
        assert "$" in out
