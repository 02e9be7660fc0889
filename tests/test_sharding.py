"""Shard plane unit tests: plans, snapshots, merge algebra, spawn safety.

The merge-algebra property tests pin the invariant the whole plane is
built on: :func:`repro.sharding.merge_snapshots` is commutative and
associative **bit for bit** — any shard ordering, any merge tree, same
snapshot, same metrics collapsed by ``RunMetrics.merge``.  The pickling tests pin spawn safety:
every object that crosses a process boundary round-trips through pickle
(the spawn start method's transport) unchanged.
"""

from __future__ import annotations

import math
import pickle
import warnings
from dataclasses import fields
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.parallel import EnvSpec, MultiAppCellSpec
from repro.experiments.scenario import ScenarioSpec
from repro.faults.plan import ExecutionFault, FaultPlan, ResilienceSpec
from repro.sharding import (
    ShardPlan,
    ShardSnapshot,
    ShardTask,
    ShardUnit,
    UnitResult,
    clamp_shard_workers,
    merge_snapshots,
    run_sharded,
)
from repro.simulator.metrics import BillingFold, RunMetrics
from repro.simulator.runtime import derive_app_seed, derive_slice_seed


class TestShardUnit:
    def test_validation(self):
        with pytest.raises(ValueError, match="n_slices"):
            ShardUnit(app="a", n_slices=0)
        with pytest.raises(ValueError, match="slice_index"):
            ShardUnit(app="a", slice_index=2, n_slices=2)
        with pytest.raises(ValueError, match="slice_index"):
            ShardUnit(app="a", slice_index=-1, n_slices=2)

    def test_key(self):
        assert ShardUnit(app="a", slice_index=1, n_slices=2).key == ("a", 1)


class TestShardPlan:
    def test_for_apps_builds_complete_partition(self):
        plan = ShardPlan.for_apps(["b", "a"], n_shards=3, slices_per_app=2)
        assert plan.apps == ("a", "b")
        assert len(plan.units) == 4
        assert plan.units[0].key == ("a", 0)  # canonical order
        assert plan.units[-1].key == ("b", 1)

    def test_duplicate_units_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ShardPlan(units=(ShardUnit(app="a"), ShardUnit(app="a")))

    def test_incomplete_slice_partition_rejected(self):
        with pytest.raises(ValueError, match="misses trace slices"):
            ShardPlan(
                units=(ShardUnit(app="a", slice_index=0, n_slices=2),)
            )

    def test_mixed_slice_counts_rejected(self):
        with pytest.raises(ValueError, match="mixes slice counts"):
            ShardPlan(
                units=(
                    ShardUnit(app="a", slice_index=0, n_slices=1),
                    ShardUnit(app="a", slice_index=1, n_slices=2),
                )
            )

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError, match="at least one unit"):
            ShardPlan(units=())

    def test_unit_order_is_canonical(self):
        a = ShardPlan(
            units=(
                ShardUnit(app="b"),
                ShardUnit(app="a", slice_index=1, n_slices=2),
                ShardUnit(app="a", slice_index=0, n_slices=2),
            )
        )
        b = ShardPlan(
            units=(
                ShardUnit(app="a", slice_index=0, n_slices=2),
                ShardUnit(app="a", slice_index=1, n_slices=2),
                ShardUnit(app="b"),
            )
        )
        assert a == b

    def test_assignments_cover_all_units_once(self):
        plan = ShardPlan.for_apps(["a", "b"], n_shards=3, slices_per_app=3)
        groups = plan.assignments()
        assert len(groups) == 3
        flat = [u for g in groups for u in g]
        assert sorted(u.key for u in flat) == [u.key for u in plan.units]

    def test_assignments_drop_empty_shards(self):
        plan = ShardPlan.for_apps(["a"], n_shards=8, slices_per_app=2)
        assert len(plan.assignments()) == 2


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
# Synthetic unit results for the merge-algebra property tests: real sealed
# sketch-retention metrics, shipped the way a worker ships them (sketch
# flushed), without paying for simulations.
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
    app: str, slice_index: int, n_slices: int, latencies: list[float]
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
        unit=ShardUnit(app=app, slice_index=slice_index, n_slices=n_slices),
        metrics=metrics,
        events_processed=7 * (slice_index + 1),
        arrivals=11 * (slice_index + 1),
        wall_clock=0.5,
    )


@st.composite
def unit_sets(draw):
    """A complete unit set: 1-3 apps, each fully sliced 1-4 ways."""
    n_apps = draw(st.integers(min_value=1, max_value=3))
    units = []
    for a in range(n_apps):
        n_slices = draw(st.integers(min_value=1, max_value=4))
        for i in range(n_slices):
            lats = draw(
                st.lists(
                    st.floats(
                        min_value=0.01,
                        max_value=50.0,
                        allow_nan=False,
                        allow_infinity=False,
                    ),
                    min_size=1,
                    max_size=20,
                )
            )
            units.append(_synthetic_unit(f"app{a}", i, n_slices, lats))
    return units


@st.composite
def shard_partitions(draw):
    """A unit set partitioned into shards in a random order."""
    units = draw(unit_sets())
    shuffled = draw(st.permutations(units))
    n_shards = draw(st.integers(min_value=1, max_value=len(units)))
    groups = [shuffled[i::n_shards] for i in range(n_shards)]
    return units, [g for g in groups if g]


def _random_merge_tree(snapshots, draw):
    """Merge a list of snapshots pairwise in a random tree shape."""
    nodes = list(snapshots)
    while len(nodes) > 1:
        i = draw(st.integers(min_value=0, max_value=len(nodes) - 2))
        left = nodes.pop(i)
        right = nodes.pop(i)
        nodes.insert(i, merge_snapshots(left, right))
    return nodes[0]


def _summaries(snapshot: ShardSnapshot) -> dict:
    return snapshot.summary()


def _assert_summary_equal(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for app in a:
        for key in a[app]:
            x, y = a[app][key], b[app][key]
            assert x == y or (math.isnan(x) and math.isnan(y)), (app, key)


class TestMergeAlgebra:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_commutative_and_associative_over_merge_trees(self, data):
        units, groups = data.draw(shard_partitions())
        shards = [ShardSnapshot(units=tuple(g)) for g in groups]
        # Reference: one left-fold in the given order.
        reference = reduce(merge_snapshots, shards)
        # Any permutation, any tree shape: identical snapshot object
        # (dataclass equality covers every unit's accumulator states
        # bit for bit) and identical collapsed metrics.
        permuted = data.draw(st.permutations(shards))
        tree_merged = _random_merge_tree(permuted, data.draw)
        assert tree_merged == reference
        assert tree_merged == ShardSnapshot(units=tuple(units))
        _assert_summary_equal(_summaries(tree_merged), _summaries(reference))

    def test_duplicate_units_rejected(self):
        unit = _synthetic_unit("a", 0, 1, [1.0])
        snap = ShardSnapshot(units=(unit,))
        with pytest.raises(ValueError, match="duplicate"):
            merge_snapshots(snap, snap)

    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_snapshots()

    def test_incomplete_collapse_rejected(self):
        snap = ShardSnapshot(units=(_synthetic_unit("a", 0, 2, [1.0]),))
        with pytest.raises(ValueError, match="incomplete"):
            snap.per_app_metrics()

    def test_counter_sums_are_exact(self):
        units = [_synthetic_unit("a", i, 3, [1.0]) for i in range(3)]
        snap = ShardSnapshot(units=tuple(units))
        metrics = snap.per_app_metrics()["a"]
        # counters were (slice+1)*(i+1): summed over slices = 6*(i+1).
        for i, name in enumerate(ADDITIVE_COUNTERS):
            assert getattr(metrics, name) == 6 * (i + 1), name
        assert metrics.peak_queue_depth == max(
            u.metrics.peak_queue_depth for u in units
        )
        assert metrics.duration == 300.0
        assert metrics.billing.total_cost == 0.25 + 0.5 + 0.75
        assert metrics.latency_stats.count == 3
        assert snap.events_processed == 7 * (1 + 2 + 3)
        assert snap.arrivals() == {"a": 11 * (1 + 2 + 3)}

    def test_every_int_field_is_a_counter_or_the_peak(self):
        # RunMetrics.merge sums every int field but the queue peak; a new
        # int field that must not sum has to be handled there first.
        ints = {f.name for f in fields(RunMetrics) if f.type == "int"}
        assert ints == set(ADDITIVE_COUNTERS) | {"peak_queue_depth"}

    def test_collapse_is_pure(self):
        units = [_synthetic_unit("a", i, 2, [1.0, 3.0]) for i in range(2)]
        snap = ShardSnapshot(units=tuple(units))
        before = pickle.dumps(snap)
        first = snap.per_app_metrics()["a"]
        assert snap.per_app_metrics()["a"] == first
        assert pickle.loads(before) == snap


class TestRunMetricsMerge:
    def test_merge_requires_sketch_retention(self):
        sketch = _synthetic_unit("a", 0, 1, [1.0]).metrics
        full = RunMetrics(app="a", policy="p", sla=2.0, retention="full")
        with pytest.raises(ValueError, match="retention='sketch'"):
            sketch.merge(full)
        with pytest.raises(ValueError, match="retention='sketch'"):
            full.merge(sketch)

    def test_merge_rejects_mismatched_runs(self):
        a = _synthetic_unit("a", 0, 1, [1.0]).metrics
        b = _synthetic_unit("a", 0, 1, [1.0]).metrics
        b.sla = 4.0
        with pytest.raises(ValueError, match="app/policy/SLA"):
            a.merge(b)


class TestSpawnSafety:
    """Everything crossing a process boundary pickles and round-trips."""

    @pytest.mark.parametrize(
        "obj",
        [
            ShardPlan.for_apps(["image-query", "amber-alert"], n_shards=2,
                               slices_per_app=2),
            ShardSnapshot(units=(_synthetic_unit("a", 0, 1, [1.0, 2.0]),)),
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
            ShardTask(
                shard_index=0,
                units=(ShardUnit(app="image-query"),),
                cell=MultiAppCellSpec(
                    envs=(EnvSpec(app="image-query"),), policy="grandslam"
                ),
            ),
        ],
        ids=["plan", "snapshot", "scenario", "faults", "task"],
    )
    def test_pickle_round_trip(self, obj):
        for protocol in (pickle.HIGHEST_PROTOCOL, pickle.DEFAULT_PROTOCOL):
            clone = pickle.loads(pickle.dumps(obj, protocol=protocol))
            assert clone == obj

    def test_run_sharded_under_spawn_context(self):
        # The real spawn transport: worker processes start from a clean
        # interpreter and must rebuild everything from pickled tasks.
        plan = ShardPlan.for_apps(
            ["image-query"], n_shards=2, slices_per_app=2
        )
        cell = MultiAppCellSpec(
            envs=(EnvSpec(app="image-query", duration=40.0),),
            policy="grandslam",
        )
        spawned = run_sharded(plan, cell, processes=2, mp_context="spawn")
        serial = run_sharded(plan, cell, processes=1)
        assert spawned == serial
        _assert_summary_equal(spawned.summary(), serial.summary())

    def test_serial_fallback_warns_from_daemonic_process(self, monkeypatch):
        import multiprocessing

        class FakeProcess:
            daemon = True

        monkeypatch.setattr(
            multiprocessing, "current_process", lambda: FakeProcess()
        )
        plan = ShardPlan.for_apps(["image-query"], n_shards=2,
                                  slices_per_app=2)
        cell = MultiAppCellSpec(
            envs=(EnvSpec(app="image-query", duration=20.0),),
            policy="grandslam",
        )
        with pytest.warns(RuntimeWarning, match="daemonic"):
            snap = run_sharded(plan, cell)
        assert len(snap.units) == 2


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
    plan = ShardPlan.for_apps(["image-query", "amber-alert"])
    with pytest.raises(ValueError, match="amber-alert"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_sharded(
                plan,
                MultiAppCellSpec(
                    envs=(EnvSpec(app="image-query"),), policy="grandslam"
                ),
            )
