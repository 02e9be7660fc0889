"""Tests for the parallel experiment grid and its CLI surface."""

import pytest

from repro.cli import build_parser
from repro.experiments import (
    EnvSpec,
    MultiAppCellSpec,
    ScenarioSpec,
    run_grid,
    run_scenario,
)
from repro.experiments.parallel import run_cell

POLICIES = ("grandslam", "orion")  # fast, training-free policies
DURATION = 60.0


class TestCellExecution:
    def test_run_cell_reports_timing_and_events(self):
        spec = MultiAppCellSpec(
            envs=(EnvSpec(app="image-query", duration=DURATION),),
            policy="grandslam",
        )
        result = run_cell(spec)
        assert result.spec == spec
        assert result.events_processed > 0
        assert result.wall_clock > 0
        assert result.events_per_second > 0
        assert "total_cost" in result.summary["image-query"]

    def test_scenario_cells_order_and_shape(self):
        cells = ScenarioSpec(
            apps=("a1", "a2"), policies=("p1", "p2"), slas=(1.0, 2.0), seeds=(3,)
        ).cells()
        assert len(cells) == 8
        assert cells[0].envs[0].app == "a1"
        assert [c.policy for c in cells[:2]] == ["p1", "p2"]
        assert cells[0].envs[0].sla == 1.0
        assert cells[-1].envs[0].app == "a2"

    def test_run_grid_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            run_grid([], workers=0)


class TestParallelMatchesSerial:
    def test_run_grid_parallel_bit_identical(self):
        cells = ScenarioSpec(
            apps=("image-query",), policies=POLICIES, duration=DURATION
        ).cells()
        serial = run_grid(cells, workers=1)
        parallel = run_grid(cells, workers=2)
        assert [r.spec for r in serial] == [r.spec for r in parallel]
        assert [r.summary for r in serial] == [r.summary for r in parallel]

    def test_run_comparison_workers_bit_identical(self):
        # A compare-shaped scenario: one app, several policies.
        spec = ScenarioSpec(
            apps=("image-query",), policies=POLICIES, seeds=(3,),
            duration=DURATION, env_seed=0,
        )
        serial = run_scenario(spec, workers=1)
        assert run_scenario(spec, workers=2) == serial
        assert [row.policy for row in serial] == list(POLICIES)

    def test_run_sla_sweep_workers_bit_identical(self):
        # A sweep-shaped scenario: one app and policy, several SLAs.
        slas = (1.0, 4.0)
        spec = ScenarioSpec(
            apps=("image-query",), policies=("grandslam",), slas=slas,
            seeds=(3,), duration=DURATION, env_seed=0,
        )
        serial = run_scenario(spec, workers=1)
        assert run_scenario(spec, workers=2) == serial
        assert [row.sla for row in serial] == list(slas)


class TestCliWorkers:
    def test_compare_accepts_workers(self):
        args = build_parser().parse_args(
            ["compare", "image-query", "--workers", "3"]
        )
        assert args.workers == 3

    def test_sweep_accepts_workers(self):
        args = build_parser().parse_args(
            ["sweep", "amber-alert", "--workers", "2"]
        )
        assert args.workers == 2

    def test_workers_default_serial(self):
        args = build_parser().parse_args(["compare", "image-query"])
        assert args.workers == 1
