"""Differential tests: sharded runs vs the 1-shard reference.

The shard plane's correctness bar: a 4-shard run of a cell merges to
**bit-identical** non-distributional metrics — costs, counters,
violation/availability/goodput ratios, conservation sums — as a 1-shard
run of the same cell, because both simulate exactly the same (app ×
trace-slice) units with the same seeds and fold them in the same
canonical order.  Latency quantiles from the merged sketch stay within
the sketch's documented rank-error bound of the exact per-unit latencies.

A chaos cell (FaultPlan with execution faults + resilience knobs) pins
that fault counters survive the barrier merge too.

The full-scale 100k-invocation version of this differential runs in the
benchmark tier (``benchmarks/test_perf_macrobench.py``); these runs are
sized for tier-1.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from tests.test_retention_differential import COUNTERS, EXACT_FIELDS

from repro.experiments.parallel import (
    EnvSpec,
    MultiAppCellSpec,
    _environment,
    merge_units,
    run_cell,
    run_sharded,
)
from repro.experiments.scenario import ScenarioSpec
from repro.faults.plan import ExecutionFault, FaultPlan, FlashCrowd, ResilienceSpec
from repro.overload import OverloadSpec
from repro.simulator import Runtime
from repro.simulator.runtime import derive_slice_seed

APPS = ("amber-alert", "image-query", "voice-assistant")


def _cell(apps, duration, **knobs):
    """A grandslam cell over flood environments of ``apps``."""
    return MultiAppCellSpec(
        envs=tuple(
            EnvSpec(app=app, preset="flood", sla=2.0, duration=duration)
            for app in apps
        ),
        policy="grandslam",
        **knobs,
    )


def _sharded(cell, *, shards, slices_per_app):
    """``cell`` on the shard plane: ``shards`` workers over its slices."""
    return dataclasses.replace(
        cell, retention="sketch", shards=shards, slices_per_app=slices_per_app
    )


def assert_metrics_identical(merged: dict, reference: dict) -> None:
    """Field-by-field parity: summaries and raw counters, NaN == NaN."""
    assert set(merged) == set(reference)
    for app in merged:
        ms, rs = merged[app].summary(), reference[app].summary()
        for key in EXACT_FIELDS:
            a, b = ms[key], rs[key]
            assert a == b or (math.isnan(a) and math.isnan(b)), (
                f"{app}.{key}: sharded={a!r} reference={b!r}"
            )
        for key in COUNTERS:
            assert getattr(merged[app], key) == getattr(
                reference[app], key
            ), (app, key)
        assert merged[app].n_completed == reference[app].n_completed
        assert merged[app].cost_breakdown() == reference[app].cost_breakdown()
        assert merged[app].duration == reference[app].duration


class TestFourShardParity:
    """The headline differential: 4 shards vs 1 shard, same cell."""

    DURATION = 400.0

    @pytest.fixture(scope="class")
    def snapshots(self):
        cell = _cell(APPS, self.DURATION)
        # Serial reference first: with the fork start method the pool
        # workers then inherit this process's warm environment cache.
        reference = run_sharded(_sharded(cell, shards=1, slices_per_app=4))
        sharded = run_sharded(_sharded(cell, shards=4, slices_per_app=4))
        return sharded, reference, cell.envs

    def test_snapshots_bit_identical(self, snapshots):
        sharded, reference, _ = snapshots
        # Dataclass equality covers every unit's counters and the exact
        # accumulator states (sketch centroids, stats, billing sums).
        assert sharded == reference

    def test_merged_metrics_field_by_field(self, snapshots):
        sharded, reference, _ = snapshots
        assert_metrics_identical(merge_units(sharded), merge_units(reference))

    def test_conservation_across_slices(self, snapshots):
        sharded, _, envs = snapshots
        merged = merge_units(sharded)
        for env in envs:
            arrivals = len(_environment(env).trace)
            m = merged[env.app]
            assert m.n_completed + m.unfinished + m.timed_out == arrivals, (
                env.app
            )
            assert m.n_completed > 0

    def test_merged_quantiles_within_rank_bound(self, snapshots):
        """Merged sketch quantiles vs exact full-retention references.

        Rebuilds each unit with ``retention="full"`` (same sliced trace,
        same derived seed — the simulations are bit-identical across
        retention modes) and checks the merged sketch against the
        concatenated exact latencies.
        """
        sharded, _, envs = snapshots
        merged = merge_units(sharded)
        env = envs[1]  # image-query: mid-size app keeps this affordable
        built = _environment(env)
        n_slices = 4
        width = built.trace.duration / n_slices
        lats = []
        for i in range(n_slices):
            end = built.trace.duration if i == n_slices - 1 else (i + 1) * width
            sliced = built.trace.slice(i * width, end)
            rt = Runtime(retention="full")
            rt.add_app(
                built.app,
                sliced,
                built.make_policy("grandslam"),
                seed=derive_slice_seed(3, env.app, i, n_slices),
            )
            metrics = rt.run()[built.app.name]
            lats.append(metrics.latencies())
        lat = np.sort(np.concatenate(lats))
        m = merged[env.app]
        assert m.n_completed == lat.size
        assert lat.size > m.latency_sketch.compression  # past exact regime
        bound = m.latency_sketch.rank_error_bound
        for q in (50.0, 90.0, 99.0):
            value = m.latency_percentile(q)
            lo = np.searchsorted(lat, value, side="left") / lat.size
            hi = np.searchsorted(lat, value, side="right") / lat.size
            target = q / 100.0
            err = (
                0.0
                if lo <= target <= hi
                else min(abs(target - lo), abs(target - hi))
            )
            assert err <= bound + 1e-12, (q, err, bound)


class TestOneSliceParity:
    """A one-env cell is the one-slice shard unit of its app, bit for bit.

    Both seed the tenant with ``derive_app_seed(sim_seed, app)`` and run
    the whole trace on a cluster of its own, so a solo scenario cell and
    its one ``run_sharded`` unit agree on every summary field.
    """

    @pytest.mark.parametrize("policy", ["grandslam", "icebreaker"])
    def test_solo_cell_matches_one_slice_unit(self, policy):
        (cell,) = ScenarioSpec(
            apps=("image-query",),
            policies=(policy,),
            duration=120.0,
            retention="sketch",
        ).cells()
        solo = run_cell(cell).summary["image-query"]
        (result,) = run_sharded(cell)
        unit = result.metrics.summary()
        assert set(solo) == set(unit)
        for key, value in solo.items():
            assert value == unit[key] or (
                math.isnan(value) and math.isnan(unit[key])
            ), key


class TestChaosParity:
    """Fault counters survive the barrier merge bit for bit."""

    def test_fault_counters_survive_merge(self):
        faults = FaultPlan(
            execution_faults=(ExecutionFault(rate=0.25),),
            resilience=ResilienceSpec(
                max_retries=6, retry_backoff=0.3, deadline_factor=4.0
            ),
        )
        cell = _cell(["image-query"], 300.0, faults=faults)
        sharded = run_sharded(_sharded(cell, shards=2, slices_per_app=2))
        reference = run_sharded(_sharded(cell, shards=1, slices_per_app=2))
        assert sharded == reference
        merged = merge_units(sharded)
        ref = merge_units(reference)
        assert_metrics_identical(merged, ref)
        m = merged["image-query"]
        # The chaos actually bit — and the bites made it through the merge.
        assert m.stage_retries > 0
        assert m.failed_executions > 0
        assert m.availability() <= 1.0


class TestOverloadParity:
    """Overload counters commute with sharding.

    Admission decisions are a pure function of the arrival timestamps
    (no RNG, no wall clock), so every slice replays the same sheds and
    rejections whether its unit runs in one process or four — the merged
    ``shed`` / ``rejected`` sums and the max-merged ``peak_queue_depth``
    are field-by-field identical to the 1-shard reference.
    """

    def test_overload_counters_survive_merge(self):
        faults = FaultPlan(
            flash_crowds=(FlashCrowd(rate=40.0, start=100.0, end=108.0),)
        )
        overload = OverloadSpec(
            queue_limit=8,
            shed_policy="deadline-aware",
            admission_rate=20.0,
            admission_burst=10.0,
        )
        cell = _cell(["image-query"], 300.0, faults=faults, overload=overload)
        sharded = run_sharded(_sharded(cell, shards=2, slices_per_app=2))
        reference = run_sharded(_sharded(cell, shards=1, slices_per_app=2))
        assert sharded == reference
        merged = merge_units(sharded)
        assert_metrics_identical(merged, merge_units(reference))
        m = merged["image-query"]
        # The overload machinery actually engaged on both sides of the
        # differential — the parity is not vacuous.
        assert m.shed > 0
        assert m.rejected > 0
        assert m.injected_arrivals > 0
        # peak depth merges by max over units, never exceeding the bound.
        units = [u for u in sharded if u.app == "image-query"]
        assert m.peak_queue_depth == max(
            u.metrics.peak_queue_depth for u in units
        )
        assert m.peak_queue_depth <= overload.queue_limit
        # Extended conservation across the slice boundaries.
        arrivals = len(_environment(cell.envs[0]).trace)
        assert arrivals + m.injected_arrivals == (
            m.n_completed + m.unfinished + m.timed_out + m.shed + m.rejected
        )


class TestShardedCellExtras:
    """A sharded cell reports extras from its merged metrics, as
    ``run_cell`` does for a shared-cluster cell."""

    def test_extras_come_from_merged_metrics(self):
        cell = _cell(
            ["image-query"], 120.0, retention="sketch", shards=2,
            slices_per_app=2,
        )
        res = run_cell(cell)
        extras = res.extras["image-query"]
        units = run_sharded(dataclasses.replace(cell, shards=1))
        merged = merge_units(units)["image-query"]
        assert res.events_processed == sum(u.events_processed for u in units)
        assert extras["arrivals"] == len(_environment(cell.envs[0]).trace)
        assert extras["initializations"] == merged.initializations > 0
        assert extras["completed"] == merged.completed_count
        assert extras["arrivals"] + extras["injected_arrivals"] == (
            extras["completed"] + extras["unfinished"] + extras["timed_out"]
            + extras["shed"] + extras["rejected"]
        )
