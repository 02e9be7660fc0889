"""End-to-end CLI tests for the telemetry commands and --json outputs."""

import json

import pytest

from repro.cli import _json_safe, main
from repro.experiments.parallel import (
    EnvSpec,
    MultiAppCellSpec,
    cell_trace_path,
    run_cell,
)
from repro.experiments.scenario import ScenarioSpec
from repro.telemetry import aggregate, read_jsonl

ARGS = ["--preset", "steady", "--duration", "60", "--seed", "0"]


class TestTraceCommand:
    def test_trace_writes_jsonl_chrome_and_audit(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        chrome = tmp_path / "run.trace.json"
        rc = main(
            ["trace", "image-query", "--policy", "smiless",
             "--out", str(out), "--chrome", str(chrome), *ARGS]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "decision audit:" in stdout
        assert "Perfetto" in stdout

        events = read_jsonl(out)
        assert events and events[0].type == "run_started"
        # The trace must be rebuildable into metrics offline.
        assert aggregate(events).app == "image-query"

        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_trace_then_report_from_trace_json(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        assert main(["trace", "image-query", "--out", str(out), *ARGS]) == 0
        capsys.readouterr()

        assert main(["report", "--from-trace", str(out), "--json"]) == 0
        offline = json.loads(capsys.readouterr().out)

        assert main(["report", "image-query", "--json", "--sla", "2.0", *ARGS]) == 0
        live = json.loads(capsys.readouterr().out)
        assert offline == live  # offline rebuild equals the live run

    def test_report_from_trace_text(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        assert main(["trace", "image-query", "--out", str(out), *ARGS]) == 0
        capsys.readouterr()
        assert main(["report", "--from-trace", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "rebuilt from trace" in stdout
        assert "run report" in stdout

    def test_report_requires_app_without_trace(self, capsys):
        assert main(["report"]) == 2
        assert "app is required" in capsys.readouterr().out


class TestReportJson:
    def test_summary_keys(self, capsys):
        assert main(["report", "image-query", "--json", *ARGS]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert {"total_cost", "p50_latency", "p99_latency"} <= set(summary)

    def test_report_seeds_like_a_grid_cell(self, capsys):
        """`report` runs the same one-env cell `compare` would: env seed
        ``--seed``, and the tenant seed derives from ``--seed + 3`` and the
        app name."""
        for seed in (0, 1):
            argv = ["report", "image-query", "--json", "--policy", "grandslam",
                    "--duration", "60", "--seed", str(seed)]
            assert main(argv) == 0
            reported = json.loads(capsys.readouterr().out)
            cell = run_cell(
                MultiAppCellSpec(
                    envs=(EnvSpec(app="image-query", duration=60.0, seed=seed),),
                    policy="grandslam",
                    sim_seed=seed + 3,
                )
            )
            summary = _json_safe(cell.summary["image-query"])
            assert reported == json.loads(json.dumps(summary)), seed


class TestScenarioJson:
    def test_scenario_json_and_trace_dir(self, tmp_path, capsys):
        spec = {
            "apps": ["image-query"],
            "policies": ["on-demand"],
            "duration": 60.0,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        traces = tmp_path / "traces"
        rc = main(
            ["scenario", str(spec_path), "--json", "--trace-dir", str(traces)]
        )
        assert rc == 0
        cells = json.loads(capsys.readouterr().out)
        assert len(cells) == 1
        assert cells[0]["app"] == "image-query"
        assert "total_cost" in cells[0]["summary"]
        written = list(traces.glob("*.jsonl"))
        assert len(written) == 1
        assert aggregate(read_jsonl(written[0])).app == "image-query"


class TestChaosFlags:
    def write_plan(self, tmp_path):
        plan = {
            "outages": [{"machine": 0, "start": 20.05, "end": 28.0}],
            "execution_faults": [{"rate": 0.2}],
            "resilience": {"max_retries": 8, "retry_backoff": 0.2},
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        return path

    def test_trace_with_fault_plan(self, tmp_path, capsys):
        """`trace --faults` records the chaos and still reconstructs exactly
        (a non-zero exit would mean schema or reconstruction failure)."""
        out = tmp_path / "chaos.jsonl"
        plan = self.write_plan(tmp_path)
        rc = main(
            ["trace", "image-query", "--policy", "on-demand",
             "--out", str(out), "--faults", str(plan), *ARGS]
        )
        assert rc == 0
        tags = {e.type for e in read_jsonl(out)}
        assert {"machine_down", "machine_up", "stage_retried"} <= tags

    def test_compare_with_chaos_flags(self, tmp_path, capsys):
        plan = self.write_plan(tmp_path)
        rc = main(
            ["compare", "image-query", "--policies", "on-demand",
             "--faults", str(plan), "--init-failure-rate", "0.1", *ARGS]
        )
        assert rc == 0
        assert "on-demand" in capsys.readouterr().out


class TestGridTracing:
    def test_cell_trace_path_and_run_cell(self, tmp_path):
        spec = MultiAppCellSpec(
            envs=(EnvSpec(app="image-query", duration=60.0),),
            policy="on-demand",
            trace_dir=str(tmp_path),
        )
        path = cell_trace_path(spec)
        assert path.name == "image-query-steady-sla2-on-demand-seed3.jsonl"
        result = run_cell(spec)
        assert path.exists()
        summary = aggregate(read_jsonl(path)).summary()
        for key, value in result.summary["image-query"].items():
            if value != value:  # NaN
                assert summary[key] != summary[key]
            else:
                assert summary[key] == value

    def test_scenario_spec_accepts_trace_dir(self, tmp_path):
        spec = ScenarioSpec.from_dict(
            {
                "apps": ["image-query"],
                "policies": ["on-demand", "always-on"],
                "trace_dir": str(tmp_path),
            }
        )
        cells = spec.cells()
        assert all(c.trace_dir == str(tmp_path) for c in cells)

    def test_untraced_cell_writes_nothing(self, tmp_path):
        spec = MultiAppCellSpec(
            envs=(EnvSpec(app="image-query", duration=60.0),), policy="on-demand"
        )
        run_cell(spec)
        assert list(tmp_path.iterdir()) == []
