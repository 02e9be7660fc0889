"""Tests for declarative scenarios and the unified grid execution path."""

import json

import pytest

from repro.cli import main
from repro.experiments import MultiAppCellSpec, ScenarioSpec, run_scenario
from repro.experiments.parallel import run_cell

FAST = dict(duration=60.0, train_duration=400.0)


class TestSpecConstruction:
    def test_from_dict_promotes_scalars(self):
        spec = ScenarioSpec.from_dict(
            {"apps": "image-query", "policies": "always-on", "slas": 4.0}
        )
        assert spec.apps == ("image-query",)
        assert spec.policies == ("always-on",)
        assert spec.slas == (4.0,)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(KeyError, match="unknown scenario keys"):
            ScenarioSpec.from_dict({"apps": ["a"], "policies": ["p"], "sla": 2.0})

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(apps=(), policies=("smiless",))
        with pytest.raises(ValueError):
            ScenarioSpec(apps=("image-query",), policies=())
        with pytest.raises(ValueError):
            ScenarioSpec(apps=("image-query",), policies=("smiless",), seeds=())

    def test_json_round_trip(self, tmp_path):
        spec = ScenarioSpec(
            apps=("image-query", "amber-alert"),
            policies=("smiless", "grandslam"),
            slas=(1.0, 2.0),
            duration=120.0,
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert ScenarioSpec.from_json(path) == spec

    def test_json_round_trip_with_fault_plan(self, tmp_path):
        from repro.faults import (
            ExecutionFault,
            FaultPlan,
            MachineOutage,
            ResilienceSpec,
        )

        spec = ScenarioSpec(
            apps=("image-query",),
            policies=("on-demand",),
            faults=FaultPlan(
                outages=(MachineOutage(machine=0, start=30.0, end=45.0),),
                execution_faults=(ExecutionFault(rate=0.1, functions=("f",)),),
                resilience=ResilienceSpec(max_retries=5, deadline_factor=3.0),
            ),
            init_failure_rate=0.05,
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        revived = ScenarioSpec.from_json(path)
        assert revived == spec
        (cell,) = revived.cells()
        assert cell.faults == spec.faults
        assert cell.init_failure_rate == 0.05

    def test_faults_key_accepts_plan_file_path(self, tmp_path):
        from repro.faults import FaultPlan

        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            json.dumps({"outages": [{"machine": 1, "start": 5.0, "end": 9.0}]})
        )
        spec = ScenarioSpec.from_dict(
            {
                "apps": ["image-query"],
                "policies": ["on-demand"],
                "faults": str(plan_path),
            }
        )
        assert spec.faults == FaultPlan.from_json(plan_path)


class TestCompilation:
    def test_solo_cells_cover_the_product(self):
        spec = ScenarioSpec(
            apps=("image-query", "amber-alert"),
            policies=("always-on", "on-demand"),
            slas=(1.0, 2.0),
            seeds=(3, 4),
            **FAST,
        )
        cells = spec.cells()
        assert len(cells) == 2 * 2 * 2 * 2
        assert all(len(c.envs) == 1 for c in cells)
        assert len(set(cells)) == len(cells)
        assert {c.envs[0].app for c in cells} == {"image-query", "amber-alert"}

    def test_co_run_cells_deploy_all_apps_together(self):
        spec = ScenarioSpec(
            apps=("image-query", "amber-alert"),
            policies=("always-on", "on-demand"),
            co_run=True,
            **FAST,
        )
        cells = spec.cells()
        assert len(cells) == 2  # one per policy; apps share each cell
        assert all(len(c.envs) == 2 for c in cells)


class TestRunScenario:
    def test_solo_end_to_end(self):
        spec = ScenarioSpec(
            apps=("image-query",),
            policies=("always-on", "on-demand"),
            **FAST,
        )
        rows = run_scenario(spec)
        assert [r.policy for r in rows] == ["always-on", "on-demand"]
        assert all(r.app == "image-query" for r in rows)
        assert all(r.row.total_cost > 0 for r in rows)

    def test_co_run_expands_one_row_per_app(self):
        spec = ScenarioSpec(
            apps=("image-query", "amber-alert"),
            policies=("always-on",),
            co_run=True,
            **FAST,
        )
        rows = run_scenario(spec)
        assert {r.app for r in rows} == {"image-query", "amber-alert"}
        assert len(rows) == 2

    def test_parallel_matches_serial(self):
        spec = ScenarioSpec(
            apps=("image-query",),
            policies=("always-on", "on-demand"),
            slas=(2.0, 4.0),
            **FAST,
        )
        assert run_scenario(spec, workers=2) == run_scenario(spec, workers=1)


class TestRunMultiApp:
    """Multi-app co-runs are co-run scenarios, one row per app."""

    def co_run(self, *policies):
        return ScenarioSpec(
            apps=("image-query", "amber-alert"),
            policies=policies,
            co_run=True,
            **FAST,
        )

    def test_single_policy_returns_per_app_rows(self):
        rows = run_scenario(self.co_run("always-on"))
        assert [(r.policy, r.app) for r in rows] == [
            ("always-on", "image-query"),
            ("always-on", "amber-alert"),
        ]

    def test_parallel_matches_serial(self):
        spec = self.co_run("always-on", "on-demand")
        assert run_scenario(spec, workers=2) == run_scenario(spec, workers=1)

    def test_empty_envs_rejected(self):
        with pytest.raises(ValueError):
            run_cell(MultiAppCellSpec(envs=(), policy="always-on"))


class TestScenarioCLI:
    def test_scenario_command_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "apps": ["image-query"],
                    "policies": ["always-on", "on-demand"],
                    "duration": 60.0,
                    "train_duration": 400.0,
                }
            )
        )
        assert main(["scenario", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 cell(s)" in out
        assert "always-on" in out and "on-demand" in out
        assert "image-query" in out

    def test_scenario_command_co_run(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "apps": ["image-query", "amber-alert"],
                    "policies": ["always-on"],
                    "co_run": True,
                    "duration": 60.0,
                    "train_duration": 400.0,
                }
            )
        )
        assert main(["scenario", str(path)]) == 0
        out = capsys.readouterr().out
        assert "[co-run]" in out
        assert "amber-alert" in out
