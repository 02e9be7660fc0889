"""Differential tests: retention="sketch" vs retention="full".

The scale plane's correctness contract (ISSUE 5): switching a run to
sketch retention changes *nothing* about the simulation — the event
sequence, every conservation counter, billing, availability and goodput
are bit-identical to a full-retention run of the same scenario.  Only
latency *distribution* queries become approximate, within the sketch's
documented rank-error bound (and exactly equal while the run is small
enough for the sketch's exact regime).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from tests.test_resilience import FixedConfigPolicy

from repro.dag import image_query, linear_pipeline
from repro.experiments.parallel import EnvSpec, MultiAppCellSpec, run_cell
from repro.experiments.runners import build_environment
from repro.experiments.scenario import ScenarioSpec
from repro.faults.plan import (
    ExecutionFault,
    FaultPlan,
    FlashCrowd,
    ResilienceSpec,
)
from repro.hardware import Backend, HardwareConfig
from repro.metrics import QuantileSketch
from repro.overload import OverloadSpec
from repro.simulator import Runtime
from repro.simulator.metrics import RunMetrics
from repro.telemetry.events import from_dict, to_dict, validate_event
from repro.telemetry.recorder import TraceRecorder
from repro.workload import Trace, constant_rate_process

#: Summary fields that must be bit-identical between retention modes.
#: Latency percentiles are included too: these runs stay inside the
#: sketch's exact regime (n <= compression), where quantile queries are
#: numpy-identical.
EXACT_FIELDS = (
    "total_cost",
    "violation_ratio",
    "invocations",
    "mean_latency",
    "p50_latency",
    "p99_latency",
    "reinit_fraction",
    "cpu_cost",
    "gpu_cost",
    "availability",
    "goodput",
)

#: RunMetrics counters that must match regardless of retention.
COUNTERS = (
    "unfinished",
    "timed_out",
    "stage_executions",
    "cold_stage_executions",
    "initializations",
    "failed_initializations",
    "stage_retries",
    "failed_executions",
    "fallbacks",
    "shed",
    "rejected",
    "injected_arrivals",
    "peak_queue_depth",
)


def _run(
    env, policy: str, retention: str, *, faults=None, overload=None
) -> RunMetrics:
    rt = Runtime(faults=faults, overload=overload, retention=retention)
    rt.add_app(env.app, env.trace, env.make_policy(policy), seed=3)
    return rt.run()[env.app.name]


def assert_equivalent(
    full: RunMetrics, sketch: RunMetrics, *, mean_rel_tol: float = 0.0
) -> None:
    """``mean_rel_tol`` > 0 compares ``mean_latency`` within rounding: the
    mean belongs to the latency store, an arrival-ordered numpy mean under
    ``full`` and a completion-ordered running sum under ``sketch``."""
    fs, ss = full.summary(), sketch.summary()
    for key in EXACT_FIELDS:
        a, b = fs[key], ss[key]
        if key == "mean_latency" and mean_rel_tol:
            assert math.isclose(a, b, rel_tol=mean_rel_tol), (key, a, b)
            continue
        assert a == b or (math.isnan(a) and math.isnan(b)), (
            f"{key}: full={a!r} sketch={b!r}"
        )
    for key in COUNTERS:
        assert getattr(full, key) == getattr(sketch, key), key
    assert full.n_completed == sketch.n_completed
    assert full.cost_breakdown() == sketch.cost_breakdown()
    assert full.backend_cost(Backend.CPU) == sketch.backend_cost(Backend.CPU)
    assert full.backend_cost(Backend.GPU) == sketch.backend_cost(Backend.GPU)
    # Billing is one exact fold in both modes; retention only picks the
    # latency store, and sketch mode keeps no per-invocation records.
    assert full.billing == sketch.billing
    assert sketch.invocations == []
    assert len(full.invocations) == full.n_completed


@pytest.fixture(scope="module")
def env():
    return build_environment("image-query", duration=150.0)


class TestCleanRunParity:
    @pytest.mark.parametrize("policy", ["grandslam", "smiless"])
    def test_summary_bit_identical(self, env, policy):
        assert_equivalent(_run(env, policy, "full"), _run(env, policy, "sketch"))

    def test_conservation(self, env):
        m = _run(env, "grandslam", "sketch")
        arrivals = m.n_completed + m.unfinished + m.timed_out
        assert arrivals == len(env.trace)


class TestChaosRunParity:
    def test_faults_and_timeouts_match(self, env):
        # Execution faults force retries; the deadline factor converts
        # some of the resulting slow invocations into timeouts — the
        # hardest counters to keep identical across retention modes.
        plan = FaultPlan(
            execution_faults=(ExecutionFault(rate=0.25),),
            resilience=ResilienceSpec(
                max_retries=6, retry_backoff=0.3, deadline_factor=4.0
            ),
        )
        full = _run(env, "grandslam", "full", faults=plan)
        sketch = _run(env, "grandslam", "sketch", faults=plan)
        assert full.stage_retries > 0
        assert_equivalent(full, sketch)


class TestOverloadRunParity:
    def test_shedding_admission_and_flash_crowd_match(self, env):
        # A flash crowd overruns token-bucket admission and the bounded
        # queues: rejected, shed and injected arrivals all move, and the
        # completions stay inside the sketch's exact regime.  Overload
        # reorders completions against arrivals, so the two latency
        # stores sum the mean in different orders (last-ulp differences).
        faults = FaultPlan(
            flash_crowds=(FlashCrowd(rate=20.0, start=40.0, end=44.0),)
        )
        overload = OverloadSpec(
            queue_limit=4,
            shed_policy="deadline-aware",
            admission_rate=5.0,
            admission_burst=5.0,
        )
        full = _run(env, "grandslam", "full", faults=faults, overload=overload)
        sketch = _run(
            env, "grandslam", "sketch", faults=faults, overload=overload
        )
        assert full.shed > 0 and full.rejected > 0
        assert full.injected_arrivals > 0
        assert full.n_completed <= sketch.latency_sketch.compression
        assert_equivalent(full, sketch, mean_rel_tol=1e-12)


class TestSummaryTypes:
    def test_every_value_is_float_when_a_backend_bills_nothing(self):
        app = linear_pipeline(1, models=("IR",))
        trace = constant_rate_process(2.0, 30.0, offset=1.0)
        for retention in ("full", "sketch"):
            rt = Runtime(retention=retention)
            rt.add_app(
                app, trace, FixedConfigPolicy(HardwareConfig.cpu(4)), seed=0
            )
            summary = rt.run()[app.name].summary()
            assert summary["gpu_cost"] == 0.0 < summary["cpu_cost"]
            for key, value in summary.items():
                assert type(value) is float, (retention, key, value)


class TestZeroCompletionRegression:
    """latency_percentile/summary on an empty sketch run must be NaN,
    exactly like full retention's empty-array path."""

    def test_direct_metrics_nan(self):
        for retention in ("full", "sketch"):
            m = RunMetrics(app="a", policy="p", sla=2.0, retention=retention)
            assert math.isnan(m.latency_percentile(50))
            assert math.isnan(m.latency_percentile(99))
            s = m.summary()
            assert math.isnan(s["mean_latency"])
            assert math.isnan(s["p50_latency"])
            assert math.isnan(s["p99_latency"])
            assert s["invocations"] == 0.0
            assert m.availability() == 1.0
            assert m.goodput() == 1.0
            assert m.violation_ratio() == 0.0

    def test_empty_trace_simulation(self, env):
        trace = Trace(np.empty(0), duration=30.0)
        for retention in ("full", "sketch"):
            rt = Runtime(retention=retention)
            rt.add_app(env.app, trace, env.make_policy("grandslam"), seed=3)
            m = rt.run()[env.app.name]
            assert m.n_completed == 0
            assert math.isnan(m.latency_percentile(50))
            assert math.isnan(m.summary()["mean_latency"])


class TestModeGuards:
    def test_latencies_raises_in_sketch_mode(self):
        m = RunMetrics(app="a", policy="p", sla=2.0, retention="sketch")
        with pytest.raises(RuntimeError, match="retention='full'"):
            m.latencies()

    def test_invalid_retention_rejected(self):
        with pytest.raises(ValueError, match="retention"):
            RunMetrics(app="a", policy="p", sla=2.0, retention="bogus")
        with pytest.raises(ValueError, match="retention"):
            ScenarioSpec(
                apps=("image-query",), policies=("grandslam",), retention="bogus"
            )


class TestGridParity:
    @pytest.mark.parametrize("n_envs", [1, 2])
    def test_multiapp_cell_retention(self, n_envs):
        envs = tuple(
            EnvSpec(app=app, preset="steady", sla=2.0, duration=100.0, seed=0)
            for app in ("image-query", "amber-alert")[:n_envs]
        )
        results = {
            retention: run_cell(
                MultiAppCellSpec(
                    envs=envs, policy="grandslam", sim_seed=3, retention=retention
                )
            )
            for retention in ("full", "sketch")
        }
        assert set(results["full"].summary) == {e.app for e in envs}
        assert set(results["sketch"].summary) == {e.app for e in envs}
        for app, full in results["full"].summary.items():
            sketch = results["sketch"].summary[app]
            for key in EXACT_FIELDS:
                a, b = full[key], sketch[key]
                assert a == b or (math.isnan(a) and math.isnan(b)), (app, key)


class TestTelemetryRoundTrip:
    def test_run_finished_carries_sketch(self, env):
        rec = TraceRecorder()
        rt = Runtime(retention="sketch", recorder=rec)
        rt.add_app(env.app, env.trace, env.make_policy("grandslam"), seed=3)
        m = rt.run()[env.app.name]
        finished = [e for e in rec.events if type(e).__name__ == "RunFinished"]
        assert len(finished) == 1
        event = finished[0]
        assert event.completed == m.n_completed
        assert validate_event(to_dict(event)) == []
        # JSON round-trip preserves the snapshot; the rebuilt sketch
        # answers the same quantile queries as the live one (bit-equal
        # here: the run is inside the exact regime).
        restored = from_dict(to_dict(event))
        assert restored.latency_sketch == event.latency_sketch
        rebuilt = QuantileSketch.from_flat(restored.latency_sketch)
        assert rebuilt.count == m.n_completed
        assert rebuilt.quantile(50) == pytest.approx(
            m.latency_percentile(50), rel=1e-9
        )
        assert rebuilt.quantile(99) == pytest.approx(
            m.latency_percentile(99), rel=1e-9
        )

    def test_full_mode_emits_empty_sketch(self):
        env = build_environment("image-query", duration=60.0)
        rec = TraceRecorder()
        rt = Runtime(recorder=rec)
        rt.add_app(env.app, env.trace, env.make_policy("grandslam"), seed=3)
        rt.run()
        (event,) = [e for e in rec.events if type(e).__name__ == "RunFinished"]
        assert event.latency_sketch == ()


def test_large_run_quantiles_within_bound():
    # Past the exact regime: sketch quantiles sit within the documented
    # rank-error bound of the full run's retained latencies.
    env = build_environment("image-query", preset="flood", duration=120.0)
    full = _run(env, "grandslam", "full")
    sketch = _run(env, "grandslam", "sketch")
    lat = np.sort(full.latencies())
    n = lat.size
    assert n > 400  # comfortably past compression=200
    bound = sketch.latency_sketch.rank_error_bound
    for q in (50.0, 90.0, 99.0):
        value = sketch.latency_percentile(q)
        lo = np.searchsorted(lat, value, side="left") / n
        hi = np.searchsorted(lat, value, side="right") / n
        target = q / 100.0
        err = 0.0 if lo <= target <= hi else min(abs(target - lo), abs(target - hi))
        assert err <= bound + 1e-12, (q, err, bound)


def test_mode_constant_exported():
    from repro.simulator.metrics import RETENTION_MODES

    assert RETENTION_MODES == ("full", "sketch")
    assert image_query().name  # app builder importable (sanity for fixtures)
