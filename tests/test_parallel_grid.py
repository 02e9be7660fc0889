"""Tests for the parallel experiment grid and its CLI surface."""

import pytest

from repro.cli import build_parser
from repro.experiments import (
    EnvSpec,
    MultiAppCellSpec,
    build_environment,
    product_grid,
    run_comparison,
    run_grid,
    run_sla_sweep,
)
from repro.experiments.parallel import run_cell

POLICIES = ("grandslam", "orion")  # fast, training-free policies
DURATION = 60.0


@pytest.fixture(scope="module")
def environment():
    return build_environment(
        "image-query", preset="steady", sla=2.0, duration=DURATION, seed=0
    )


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

    def test_product_grid_order_and_shape(self):
        cells = product_grid(
            ["a1", "a2"], ["p1", "p2"], slas=(1.0, 2.0), seeds=(3,)
        )
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
        cells = product_grid(
            ["image-query"], POLICIES, duration=DURATION
        )
        serial = run_grid(cells, workers=1)
        parallel = run_grid(cells, workers=2)
        assert [r.spec for r in serial] == [r.spec for r in parallel]
        assert [r.summary for r in serial] == [r.summary for r in parallel]

    def test_run_comparison_workers_bit_identical(self, environment):
        serial = run_comparison(environment, POLICIES, seed=3)
        parallel = run_comparison(environment, POLICIES, seed=3, workers=2)
        assert serial == parallel

    def test_run_sla_sweep_workers_bit_identical(self, environment):
        slas = (1.0, 4.0)
        serial = run_sla_sweep(environment, slas, "grandslam", seed=3)
        parallel = run_sla_sweep(
            environment, slas, "grandslam", seed=3, workers=2
        )
        assert serial == parallel


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
