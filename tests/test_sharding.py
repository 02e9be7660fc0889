"""Shard plane unit tests: slice seeds, the per-app fold, spawn safety.

The fold tests pin what :func:`repro.experiments.parallel.merge_units`
builds on ``RunMetrics.merge``: counters sum exactly, the queue peak
takes the max, and folding never mutates the unit results.  The pickling
tests pin spawn safety: every object that crosses a process boundary
round-trips through pickle (the spawn start method's transport)
unchanged.
"""

from __future__ import annotations

import dataclasses
import math
import pickle
from dataclasses import fields

import pytest

from repro.experiments.parallel import (
    EnvSpec,
    MultiAppCellSpec,
    UnitResult,
    clamp_shard_workers,
    merge_units,
    run_sharded,
)
from repro.experiments.scenario import ScenarioSpec
from repro.faults.plan import ExecutionFault, FaultPlan, ResilienceSpec
from repro.simulator.metrics import BillingFold, RunMetrics
from repro.simulator.runtime import derive_app_seed, derive_slice_seed


class TestClamp:
    def test_no_clamp(self):
        assert clamp_shard_workers(2, cpu_count=8) == (2, None)

    def test_clamp_with_note(self):
        effective, note = clamp_shard_workers(8, cpu_count=2)
        assert effective == 2
        assert "8 -> 2" in note

    def test_invalid(self):
        with pytest.raises(ValueError, match=">= 1"):
            clamp_shard_workers(0)


class TestSliceSeeds:
    def test_single_slice_collapses_to_app_seed(self):
        assert derive_slice_seed(3, "a", 0, 1) == derive_app_seed(3, "a")

    def test_slices_get_distinct_seeds(self):
        seeds = {derive_slice_seed(3, "a", i, 4) for i in range(4)}
        assert len(seeds) == 4

    def test_validation(self):
        with pytest.raises(ValueError, match="slice_index"):
            derive_slice_seed(3, "a", 4, 4)


# --------------------------------------------------------------------------
# Synthetic unit results for the fold tests: real sealed sketch-retention
# metrics, shipped the way a worker ships them (sketch flushed), without
# paying for simulations.
# --------------------------------------------------------------------------

#: RunMetrics' additive integer counters; peak_queue_depth merges by max.
ADDITIVE_COUNTERS = (
    "unfinished",
    "stage_executions",
    "cold_stage_executions",
    "initializations",
    "failed_initializations",
    "timed_out",
    "stage_retries",
    "failed_executions",
    "fallbacks",
    "swap_ins",
    "shed",
    "rejected",
    "injected_arrivals",
    "completed_count",
    "sla_violation_count",
    "within_sla_count",
)


def _synthetic_unit(
    app: str, slice_index: int, latencies: list[float]
) -> UnitResult:
    metrics = RunMetrics(
        app=app,
        policy="p",
        sla=2.0,
        retention="sketch",
        duration=100.0,
        billing=BillingFold(
            total_cost=0.25 * (slice_index + 1),
            cpu_cost=0.25 * (slice_index + 1),
            instances=len(latencies),
        ),
    )
    for lat in latencies:
        metrics.latency_sketch.add(lat)
        metrics.latency_stats.add(lat)
    metrics.latency_sketch.flush()
    # Every counter nonzero and distinct, so a dropped or swapped field
    # shows in the sums.
    for i, name in enumerate(ADDITIVE_COUNTERS):
        setattr(metrics, name, (slice_index + 1) * (i + 1))
    metrics.peak_queue_depth = (slice_index * 5) % 7 + 1
    return UnitResult(
        app=app,
        slice_index=slice_index,
        metrics=metrics,
        events_processed=7 * (slice_index + 1),
        arrivals=11 * (slice_index + 1),
        wall_clock=0.5,
    )


def _assert_summary_equal(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for app in a:
        for key in a[app]:
            x, y = a[app][key], b[app][key]
            assert x == y or (math.isnan(x) and math.isnan(y)), (app, key)


def _summaries(results) -> dict:
    return {app: m.summary() for app, m in merge_units(results).items()}


class TestMergeAlgebra:
    def test_counter_sums_are_exact(self):
        units = [_synthetic_unit("a", i, [1.0]) for i in range(3)]
        metrics = merge_units(units)["a"]
        # counters were (slice+1)*(i+1): summed over slices = 6*(i+1).
        for i, name in enumerate(ADDITIVE_COUNTERS):
            assert getattr(metrics, name) == 6 * (i + 1), name
        assert metrics.peak_queue_depth == max(
            u.metrics.peak_queue_depth for u in units
        )
        assert metrics.duration == 300.0
        assert metrics.billing.total_cost == 0.25 + 0.5 + 0.75
        assert metrics.latency_stats.count == 3

    def test_every_int_field_is_a_counter_or_the_peak(self):
        # RunMetrics.merge sums every int field but the queue peak; a new
        # int field that must not sum has to be handled there first.
        ints = {f.name for f in fields(RunMetrics) if f.type == "int"}
        assert ints == set(ADDITIVE_COUNTERS) | {"peak_queue_depth"}

    def test_collapse_is_pure(self):
        units = [_synthetic_unit("a", i, [1.0, 3.0]) for i in range(2)]
        before = pickle.dumps(units)
        first = merge_units(units)["a"]
        assert merge_units(units)["a"] == first
        assert pickle.loads(before) == units


class TestRunMetricsMerge:
    def test_merge_requires_sketch_retention(self):
        sketch = _synthetic_unit("a", 0, [1.0]).metrics
        full = RunMetrics(app="a", policy="p", sla=2.0, retention="full")
        with pytest.raises(ValueError, match="retention='sketch'"):
            sketch.merge(full)
        with pytest.raises(ValueError, match="retention='sketch'"):
            full.merge(sketch)

    def test_merge_rejects_mismatched_runs(self):
        a = _synthetic_unit("a", 0, [1.0]).metrics
        b = _synthetic_unit("a", 0, [1.0]).metrics
        b.sla = 4.0
        with pytest.raises(ValueError, match="app/policy/SLA"):
            a.merge(b)


def _sharded_cell(apps, duration=600.0) -> MultiAppCellSpec:
    """A two-shard grandslam cell cutting each app's trace in two."""
    return MultiAppCellSpec(
        envs=tuple(EnvSpec(app=app, duration=duration) for app in apps),
        policy="grandslam",
        retention="sketch",
        shards=2,
        slices_per_app=2,
    )


class TestSpawnSafety:
    """Everything crossing a process boundary pickles and round-trips."""

    @pytest.mark.parametrize(
        "obj",
        [
            _sharded_cell(("image-query", "amber-alert")),
            _synthetic_unit("a", 0, [1.0, 2.0]),
            ScenarioSpec(
                apps=("image-query",),
                policies=("grandslam",),
                retention="sketch",
                shards=2,
                slices_per_app=2,
            ),
            FaultPlan(
                execution_faults=(ExecutionFault(rate=0.1),),
                resilience=ResilienceSpec(max_retries=2),
            ),
            (_sharded_cell(("image-query",)), "image-query", 1),
        ],
        ids=["plan", "snapshot", "scenario", "faults", "task"],
    )
    def test_pickle_round_trip(self, obj):
        for protocol in (pickle.HIGHEST_PROTOCOL, pickle.DEFAULT_PROTOCOL):
            clone = pickle.loads(pickle.dumps(obj, protocol=protocol))
            assert clone == obj

    def test_run_sharded_under_spawn_context(self):
        # The real spawn transport: worker processes start from a clean
        # interpreter and must rebuild everything from pickled units.
        cell = _sharded_cell(("image-query",), duration=40.0)
        spawned = run_sharded(cell, mp_context="spawn")
        serial = run_sharded(dataclasses.replace(cell, shards=1))
        assert spawned == serial
        _assert_summary_equal(_summaries(spawned), _summaries(serial))

    def test_serial_fallback_warns_from_daemonic_process(self, monkeypatch):
        import multiprocessing

        class FakeProcess:
            daemon = True

        monkeypatch.setattr(
            multiprocessing, "current_process", lambda: FakeProcess()
        )
        cell = _sharded_cell(("image-query",), duration=20.0)
        with pytest.warns(RuntimeWarning, match="daemonic"):
            results = run_sharded(cell)
        assert len(results) == 2


class TestScenarioValidation:
    def test_sharded_requires_sketch(self):
        with pytest.raises(ValueError, match="sketch"):
            ScenarioSpec(
                apps=("image-query",),
                policies=("grandslam",),
                shards=2,
            )

    def test_sharded_rejects_trace_dir(self):
        with pytest.raises(ValueError, match="telemetry"):
            ScenarioSpec(
                apps=("image-query",),
                policies=("grandslam",),
                retention="sketch",
                shards=2,
                trace_dir="/tmp/x",
            )

    def test_axes_round_trip_from_dict(self):
        spec = ScenarioSpec.from_dict(
            {
                "apps": ["image-query"],
                "policies": ["grandslam"],
                "retention": "sketch",
                "shards": 4,
                "slices_per_app": 2,
            }
        )
        assert spec.shards == 4
        (cell,) = spec.cells()
        assert cell.shards == 4
        assert cell.slices_per_app == 2


class TestCliBenchGuards:
    def test_bench_without_mode_is_argparse_error(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["bench"])
        assert exc.value.code == 2
        assert "--macro is required" in capsys.readouterr().err

    def test_bench_unknown_mode_is_argparse_error(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["bench", "--micro"])
        assert exc.value.code == 2

    def test_unsliced_sharded_bench_rejected_before_running(
        self, tmp_path, monkeypatch, capsys
    ):
        # Several workers over one slice per app would silently swap the
        # shared-cluster co-run for isolated per-app clusters; the cell
        # rejects it before anything is simulated.
        import repro.experiments.parallel as parallel
        from repro.cli import main

        def no_run(spec):
            raise AssertionError("bench simulated an invalid cell")

        monkeypatch.setattr(parallel, "run_cell", no_run)
        out = tmp_path / "bench.json"
        code = main(
            ["bench", "--macro", "--invocations", "3000", "--shards", "2",
             "--slices-per-app", "1", "--retention", "sketch",
             "--out", str(out)]
        )
        assert code == 2
        assert "slices_per_app" in capsys.readouterr().err
        assert not out.exists()

    def test_sharded_macro_bench_smoke(self, tmp_path, capsys):
        """`bench --macro --shards 2` writes its record; on a multi-core
        host the merged metrics passed the 1-shard parity gate (the
        command exits 1 before writing otherwise)."""
        import json

        from repro.cli import main

        out = tmp_path / "sharded.json"
        code = main(
            ["bench", "--macro", "--shards", "2", "--invocations", "3000",
             "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        record = json.loads(out.read_text())
        assert record["generated_by"] == (
            "repro bench --macro --invocations 3000 --shards 2"
        )
        if record["workers_effective"] > 1:
            assert record["parity"] == "exact", record
        else:
            assert record["parity"].startswith("skipped"), record

    def test_sharded_bench_requires_sketch_retention(self, capsys):
        from repro.cli import main

        code = main(
            ["bench", "--macro", "--retention", "full", "--shards", "2"]
        )
        assert code == 2
        assert "sketch" in capsys.readouterr().err


def test_run_sharded_requires_env_for_every_app():
    # The cell's envs are the one source of units: one per (env, slice),
    # in canonical (app, slice) order whatever order the envs come in.
    cell = dataclasses.replace(
        _sharded_cell(("image-query", "amber-alert"), duration=20.0),
        shards=1,
    )
    results = run_sharded(cell)
    assert [(r.app, r.slice_index) for r in results] == [
        ("amber-alert", 0),
        ("amber-alert", 1),
        ("image-query", 0),
        ("image-query", 1),
    ]
