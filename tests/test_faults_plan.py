"""Unit tests for the declarative fault plan (:mod:`repro.faults`).

The plan is the contract between chaos scenarios and the engine: it must
round-trip through JSON, reject malformed specs loudly, and compose
overlapping windows the documented way (probabilities saturate below 1,
stragglers multiply, windows are half-open).
"""

import json
import math

import pytest

from repro.faults import (
    ExecutionFault,
    FaultPlan,
    FlashCrowd,
    InitFailureBurst,
    LatencyStraggler,
    MachineOutage,
    ResilienceSpec,
    RetryStorm,
)


class TestSpecValidation:
    def test_outage_rejects_negative_machine_and_bad_windows(self):
        with pytest.raises(ValueError, match="machine index"):
            MachineOutage(machine=-1, start=0.0)
        with pytest.raises(ValueError, match="start must be >= 0"):
            MachineOutage(machine=0, start=-1.0)
        with pytest.raises(ValueError, match="end must be > start"):
            MachineOutage(machine=0, start=5.0, end=5.0)

    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError, match="rate"):
            ExecutionFault(rate=1.5)
        with pytest.raises(ValueError, match="rate"):
            ExecutionFault(rate=-0.1)
        with pytest.raises(ValueError, match="rate"):
            InitFailureBurst(rate=2.0)

    def test_straggler_must_slow_not_speed_up(self):
        with pytest.raises(ValueError, match="factor"):
            LatencyStraggler(factor=0.5)
        with pytest.raises(ValueError, match="backend"):
            LatencyStraggler(factor=2.0, backend="tpu")

    def test_resilience_knob_bounds(self):
        with pytest.raises(ValueError, match="max_retries"):
            ResilienceSpec(max_retries=-1)
        with pytest.raises(ValueError, match="retry_backoff"):
            ResilienceSpec(retry_backoff=-0.5)
        with pytest.raises(ValueError, match="retry_backoff_max"):
            ResilienceSpec(retry_backoff_max=0.0)
        with pytest.raises(ValueError, match="max_crash_loop"):
            ResilienceSpec(max_crash_loop=0)
        with pytest.raises(ValueError, match="deadline_factor"):
            ResilienceSpec(deadline_factor=0.0)
        with pytest.raises(ValueError, match="fallback_after"):
            ResilienceSpec(fallback_after=0)

    def test_flash_crowd_bounds(self):
        with pytest.raises(ValueError, match="rate"):
            FlashCrowd(rate=0.0, start=1.0, end=2.0)
        with pytest.raises(ValueError, match="end must be > start"):
            FlashCrowd(rate=1.0, start=2.0, end=2.0)
        with pytest.raises(ValueError, match="finite"):
            FlashCrowd(rate=1.0, start=0.0, end=math.inf)

    def test_retry_storm_bounds(self):
        with pytest.raises(ValueError, match="resubmits"):
            RetryStorm(resubmits=0)
        with pytest.raises(ValueError, match="delay"):
            RetryStorm(delay=0.0)
        with pytest.raises(ValueError, match="end must be > start"):
            RetryStorm(start=5.0, end=5.0)

    def test_unknown_keys_rejected_with_alternatives(self):
        with pytest.raises(KeyError, match="unknown fault-plan keys"):
            FaultPlan.from_dict({"outage": [{"machine": 0, "start": 1.0}]})
        with pytest.raises(KeyError, match="valid keys"):
            FaultPlan.from_dict({"outages": [{"machine": 0, "begin": 1.0}]})
        with pytest.raises(KeyError, match="resilience"):
            FaultPlan.from_dict({"resilience": {"retries": 3}})

    def test_spec_entries_must_be_mappings(self):
        with pytest.raises(TypeError, match="entries must be dicts"):
            FaultPlan.from_dict({"outages": [3]})


class TestLoading:
    def test_single_dict_promoted_to_tuple(self):
        plan = FaultPlan.from_dict(
            {"outages": {"machine": 2, "start": 10.0, "end": 20.0}}
        )
        assert plan.outages == (MachineOutage(machine=2, start=10.0, end=20.0),)

    def test_function_scalar_promoted_to_tuple(self):
        plan = FaultPlan.from_dict(
            {"execution_faults": {"rate": 0.1, "functions": "detector"}}
        )
        assert plan.execution_faults[0].functions == ("detector",)

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            outages=(MachineOutage(machine=0, start=30.0, end=45.0),),
            execution_faults=(
                ExecutionFault(rate=0.2, functions=("f",), start=5.0, end=50.0),
            ),
            stragglers=(
                LatencyStraggler(factor=3.0, backend="gpu", start=0.0, end=10.0),
            ),
            init_failure_bursts=(InitFailureBurst(rate=0.5, start=1.0, end=2.0),),
            resilience=ResilienceSpec(max_retries=5, deadline_factor=4.0),
        )
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        assert FaultPlan.from_json(path) == plan

    def test_infinite_window_survives_round_trip(self):
        plan = FaultPlan(outages=(MachineOutage(machine=1, start=10.0),))
        assert plan.outages[0].end == math.inf
        revived = FaultPlan.from_dict(
            json.loads(json.dumps(plan.to_dict()))
        )
        assert revived == plan

    def test_plan_is_hashable_and_defaults_are_inert(self):
        assert hash(FaultPlan()) == hash(FaultPlan())
        plan = FaultPlan()
        assert plan.execution_fault_rate("f", 0.0) == 0.0
        assert plan.straggler_factor("f", "cpu", 0.0) == 1.0
        assert plan.extra_init_failure_rate(0.0) == 0.0
        assert plan.outages == ()


class TestQueries:
    def test_windows_are_half_open(self):
        plan = FaultPlan(
            execution_faults=(ExecutionFault(rate=0.25, start=10.0, end=20.0),)
        )
        assert plan.execution_fault_rate("f", 9.999) == 0.0
        assert plan.execution_fault_rate("f", 10.0) == 0.25
        assert plan.execution_fault_rate("f", 19.999) == 0.25
        assert plan.execution_fault_rate("f", 20.0) == 0.0

    def test_function_scoping(self):
        plan = FaultPlan(
            execution_faults=(ExecutionFault(rate=0.5, functions=("g",)),)
        )
        assert plan.execution_fault_rate("g", 0.0) == 0.5
        assert plan.execution_fault_rate("f", 0.0) == 0.0

    def test_overlapping_rates_saturate_below_one(self):
        plan = FaultPlan(
            execution_faults=(
                ExecutionFault(rate=0.7),
                ExecutionFault(rate=0.8),
            ),
            init_failure_bursts=(
                InitFailureBurst(rate=0.9),
                InitFailureBurst(rate=0.9),
            ),
        )
        assert plan.execution_fault_rate("f", 0.0) == pytest.approx(0.999999)
        assert plan.extra_init_failure_rate(0.0) == pytest.approx(0.999999)

    def test_overlapping_stragglers_multiply(self):
        plan = FaultPlan(
            stragglers=(
                LatencyStraggler(factor=2.0),
                LatencyStraggler(factor=3.0, backend="gpu"),
            )
        )
        assert plan.straggler_factor("f", "cpu", 0.0) == pytest.approx(2.0)
        assert plan.straggler_factor("f", "gpu", 0.0) == pytest.approx(6.0)


class TestOverloadComposition:
    """Flash crowds and retry storms: the overload plane's pressure sources."""

    def test_flash_crowd_times_are_pinned(self):
        crowd = FlashCrowd(rate=2.0, start=10.0, end=12.0)
        assert crowd.times() == (10.0, 10.5, 11.0, 11.5)
        # Exactly rate * (end - start) arrivals, window half-open.
        assert len(FlashCrowd(rate=4.0, start=0.0, end=3.0).times()) == 12

    def test_injected_times_merged_and_sorted(self):
        plan = FaultPlan(
            flash_crowds=(
                FlashCrowd(rate=1.0, start=5.0, end=7.0),
                FlashCrowd(rate=1.0, start=4.5, end=6.5),
            )
        )
        times = plan.injected_times()
        assert times == (4.5, 5.0, 5.5, 6.0)
        assert times == tuple(sorted(times))
        assert FaultPlan().injected_times() == ()

    def test_storm_for_respects_windows(self):
        early = RetryStorm(resubmits=2, delay=0.5, start=0.0, end=10.0)
        late = RetryStorm(resubmits=1, delay=2.0, start=10.0, end=20.0)
        plan = FaultPlan(retry_storms=(early, late))
        assert plan.storm_for(5.0) is early
        assert plan.storm_for(10.0) is late
        assert plan.storm_for(25.0) is None
        assert FaultPlan().storm_for(5.0) is None

    def test_overload_plan_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            flash_crowds=(FlashCrowd(rate=20.0, start=60.0, end=90.0),),
            retry_storms=(RetryStorm(resubmits=3, delay=1.5, end=120.0),),
            resilience=ResilienceSpec(retry_backoff_max=8.0),
        )
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        assert FaultPlan.from_json(path) == plan

    def test_capped_backoff_schedule_observed_in_run(self):
        """Pin the capped schedule min(b * 2**(k-1), cap) via StageRetried.

        An always-failing function burns the whole retry budget, so the
        recorded retry delays are exactly the exponential schedule
        saturating at ``retry_backoff_max``.
        """
        from repro.dag import linear_pipeline
        from repro.policies import OnDemandPolicy
        from repro.simulator import Runtime
        from repro.telemetry import TraceRecorder
        from repro.telemetry.events import StageRetried
        from repro.workload import Trace

        app = linear_pipeline(1, models=("IR",))
        trace = Trace([5.0], duration=60.0)
        plan = FaultPlan(
            execution_faults=(ExecutionFault(rate=1.0),),
            resilience=ResilienceSpec(
                max_retries=6, retry_backoff=0.5, retry_backoff_max=4.0
            ),
        )
        rec = TraceRecorder()
        rt = Runtime(faults=plan, recorder=rec)
        rt.add_app(app, trace, OnDemandPolicy(), seed=0)
        m = rt.run()[app.name]
        delays = [e.delay for e in rec if isinstance(e, StageRetried)]
        assert delays == [0.5, 1.0, 2.0, 4.0, 4.0, 4.0]
        assert m.timed_out == 1  # budget exhausted after the capped tail
        assert m.stage_retries == 6
