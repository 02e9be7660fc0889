"""Tests for the experiment runners and the CLI layer."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import (
    build_environment,
    run_comparison,
    run_multi_app,
    run_sla_sweep,
)
from repro.experiments.runners import PAPER_APPS, POLICY_NAMES, ComparisonRow


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
    def test_run_comparison_rows(self, small_env):
        rows = run_comparison(small_env, ("smiless", "grandslam"))
        assert [r.policy for r in rows] == ["smiless", "grandslam"]
        for r in rows:
            assert isinstance(r, ComparisonRow)
            assert r.total_cost > 0
            assert 0.0 <= r.violation_ratio <= 1.0

    def test_run_sla_sweep(self, small_env):
        out = run_sla_sweep(small_env, (1.0, 4.0), "grandslam")
        assert [sla for sla, _ in out] == [1.0, 4.0]
        # lenient SLA is never more expensive for the slack-driven system
        assert out[1][1].total_cost <= out[0][1].total_cost * 1.05

    def test_run_multi_app(self):
        envs = [
            build_environment(
                name, duration=90.0, train_duration=400.0, seed=5 + i
            )
            for i, name in enumerate(("image-query", "voice-assistant"))
        ]
        rows = run_multi_app(envs, "grandslam")
        assert set(rows) == {"image-query", "voice-assistant"}


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

    def test_multiapp_co_runs_paper_apps(self, monkeypatch, capsys):
        import repro.cli as cli

        seen = []

        def spy(envs, *args, **kwargs):
            seen.append([env.app.name for env in envs])
            return run_multi_app(envs, *args, **kwargs)

        monkeypatch.setattr(cli, "run_multi_app", spy)
        code = main(["multiapp", "--policy", "grandslam", "--duration", "30"])
        assert code == 0
        assert seen == [list(PAPER_APPS)]
        assert "Co-running 3 applications" in capsys.readouterr().out

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
