"""Behavioural tests for the overload-resilience plane (:mod:`repro.overload`).

Each mechanism gets a targeted scenario — bounded-queue shedding under
each policy, token-bucket admission control, circuit breakers, brownout
tiers, flash-crowd injection and retry-storm amplification — plus the
cross-cutting guarantees: the extended conservation identity
(``trace + injected == completed + unfinished + timed_out + shed +
rejected``), exact trace reconstruction of the new counters, no leaked
timers or demand charges at run end, and the zero-cost rule (an inert
spec changes nothing).
"""

import json
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.test_resilience import FixedConfigPolicy

from repro.dag import linear_pipeline
from repro.experiments import build_environment
from repro.faults import (
    ExecutionFault,
    FaultPlan,
    FlashCrowd,
    ResilienceSpec,
    RetryStorm,
)
from repro.hardware import HardwareConfig
from repro.overload import SHED_POLICIES, OverloadSpec, TokenBucket
from repro.policies import OnDemandPolicy
from repro.simulator import Runtime
from repro.telemetry import TraceRecorder, aggregate, to_dict, validate_event
from repro.telemetry.events import (
    Arrival,
    FallbackActivated,
    InvocationRejected,
    InvocationShed,
)
from repro.workload import Trace, constant_rate_process


def assert_conserved_extended(trace, m):
    """Offered load lands in exactly one of the five disposition bins."""
    assert len(trace) + m.injected_arrivals == (
        m.n_completed + m.unfinished + m.timed_out + m.shed + m.rejected
    )


def assert_overload_reconstructs(live, rec):
    """aggregate() rebuilds the overload counters and summary exactly.

    ``injected_arrivals`` is deliberately excluded: injected arrivals emit
    ordinary ``arrival`` events, so the trace view cannot tell them apart
    (and no summary figure depends on the split).
    """
    rebuilt = aggregate(rec.events, app=live.app)
    assert rebuilt.shed == live.shed
    assert rebuilt.rejected == live.rejected
    assert rebuilt.timed_out == live.timed_out
    assert rebuilt.fallbacks == live.fallbacks
    a, b = rebuilt.summary(), live.summary()
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], float) and math.isnan(a[key]):
            assert math.isnan(b[key])
        else:
            assert a[key] == b[key], key
    return rebuilt


# ------------------------------------------------------------------- spec
class TestSpecValidation:
    def test_knob_bounds(self):
        with pytest.raises(ValueError, match="queue_limit"):
            OverloadSpec(queue_limit=0)
        with pytest.raises(ValueError, match="shed_policy"):
            OverloadSpec(shed_policy="coin-flip")
        with pytest.raises(ValueError, match="admission_rate"):
            OverloadSpec(admission_rate=0.0)
        with pytest.raises(ValueError, match="admission_burst"):
            OverloadSpec(admission_rate=1.0, admission_burst=0.5)
        with pytest.raises(ValueError, match="breaker_failures"):
            OverloadSpec(breaker_failures=0)
        with pytest.raises(ValueError, match="breaker_cooldown"):
            OverloadSpec(breaker_failures=1, breaker_cooldown=0.0)
        with pytest.raises(ValueError, match="brownout_queue_delay"):
            OverloadSpec(brownout_queue_delay=0.0)
        with pytest.raises(ValueError, match="brownout_recover_delay"):
            OverloadSpec(brownout_queue_delay=1.0, brownout_recover_delay=-1.0)
        # Hysteresis: recover must sit strictly below engage.
        with pytest.raises(ValueError, match="hysteresis"):
            OverloadSpec(brownout_queue_delay=1.0, brownout_recover_delay=1.0)

    def test_unknown_keys_rejected_with_alternatives(self):
        with pytest.raises(KeyError, match="unknown overload-spec keys"):
            OverloadSpec.from_dict({"queue_cap": 8})
        with pytest.raises(KeyError, match="valid keys"):
            OverloadSpec.from_dict({"queue_limit": 8, "bogus": 1})

    def test_json_round_trip(self, tmp_path):
        spec = OverloadSpec(
            queue_limit=16,
            shed_policy="deadline-aware",
            admission_rate=50.0,
            admission_burst=25.0,
            breaker_failures=3,
            breaker_cooldown=10.0,
            brownout_queue_delay=2.0,
            brownout_recover_delay=0.5,
            degraded_config="cpu-16",
        )
        path = tmp_path / "overload.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert OverloadSpec.from_json(path) == spec
        assert OverloadSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        ) == spec

    def test_frozen_hashable_picklable(self):
        spec = OverloadSpec(queue_limit=8, admission_rate=5.0)
        assert hash(spec) == hash(OverloadSpec(queue_limit=8, admission_rate=5.0))
        assert pickle.loads(pickle.dumps(spec)) == spec
        with pytest.raises(AttributeError):
            spec.queue_limit = 4

    def test_mechanism_queries_and_bucket(self):
        inert = OverloadSpec()
        assert inert.queue_limit is None and inert.admission_rate is None
        assert not inert.breaks_circuits
        assert not inert.browns_out
        assert inert.make_bucket() is None
        armed = OverloadSpec(
            queue_limit=8,
            admission_rate=2.0,
            breaker_failures=2,
            brownout_queue_delay=1.0,
        )
        assert armed.queue_limit == 8 and armed.admission_rate == 2.0
        assert armed.breaks_circuits and armed.browns_out
        bucket = armed.make_bucket()
        assert isinstance(bucket, TokenBucket)
        assert bucket.rate == 2.0 and bucket.burst == armed.admission_burst


class TestTokenBucket:
    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            TokenBucket(rate=0.0, burst=2.0)
        with pytest.raises(ValueError, match="burst"):
            TokenBucket(rate=1.0, burst=0.5)

    def test_starts_full_and_refills(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        assert bucket.admit(0.0)
        assert bucket.admit(0.0)
        assert not bucket.admit(0.0)  # burst spent
        assert bucket.admit(1.0)  # one token refilled over 1 s
        assert not bucket.admit(1.0)
        assert not bucket.admit(1.5)  # only half a token back

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=3.0)
        for _ in range(3):
            assert bucket.admit(0.0)
        assert not bucket.admit(0.0)
        # A long idle gap refills to burst, not beyond.
        assert bucket.admit(100.0)
        assert bucket.tokens == pytest.approx(2.0)

    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
            min_size=1,
            max_size=50,
        ),
        rate=st.floats(min_value=0.01, max_value=100.0),
        burst=st.floats(min_value=1.0, max_value=50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_admission_is_a_pure_function_of_the_timestamps(
        self, times, rate, burst
    ):
        """Property (satellite 3): no hidden state, no randomness — two
        buckets replaying the same monotone timestamp sequence make
        identical decisions, which is exactly why admission commutes with
        sharding (each slice replays the same instants)."""
        sequence = sorted(times)
        first = TokenBucket(rate=rate, burst=burst)
        second = TokenBucket(rate=rate, burst=burst)
        decisions = [first.admit(t) for t in sequence]
        assert decisions == [second.admit(t) for t in sequence]
        # Token count stays within [0, burst] throughout.
        assert 0.0 <= first.tokens <= first.burst
        # The first arrival always finds a full bucket.
        assert decisions[0]


# --------------------------------------------------------- bounded queues
class TestBoundedQueues:
    """A burst deeper than the queue limit forces shedding; the victim
    depends on the policy.  Arrivals land faster than any instance can
    warm, so the queue is the only buffer."""

    N_ARRIVALS = 8
    LIMIT = 3

    def run(self, shed_policy):
        app = linear_pipeline(1, models=("IR",))
        times = [1.0 + 0.05 * k for k in range(self.N_ARRIVALS)]
        trace = Trace(times, duration=60.0)
        rec = TraceRecorder()
        rt = Runtime(
            overload=OverloadSpec(
                    queue_limit=self.LIMIT, shed_policy=shed_policy
                ),
            recorder=rec,
        )
        rt.add_app(
            app,
            trace,
            FixedConfigPolicy(HardwareConfig.cpu(4)),
            seed=0,
        )
        m = rt.run()[app.name]
        return trace, m, rec

    @pytest.mark.parametrize("shed_policy", SHED_POLICIES)
    def test_shedding_conserves_and_bounds_the_queue(self, shed_policy):
        trace, m, rec = self.run(shed_policy)
        assert m.shed == self.N_ARRIVALS - self.LIMIT
        assert m.peak_queue_depth == self.LIMIT
        assert_conserved_extended(trace, m)
        sheds = [e for e in rec if isinstance(e, InvocationShed)]
        assert len(sheds) == m.shed
        assert all(e.reason == shed_policy for e in sheds)
        assert all(e.function == "f0-IR" for e in sheds)
        assert_overload_reconstructs(m, rec)

    def test_reject_newest_sheds_the_incoming_arrival(self):
        _, m, rec = self.run("reject-newest")
        sheds = [e for e in rec if isinstance(e, InvocationShed)]
        # The victim is the arrival itself: shed at age zero, and the
        # first LIMIT invocations survive to completion.
        assert all(e.age == 0.0 for e in sheds)
        served = {e.invocation_id for e in rec if isinstance(e, Arrival)} - {
            e.invocation_id for e in sheds
        }
        assert served == set(range(self.LIMIT))

    def test_drop_oldest_evicts_the_queue_head(self):
        _, m, rec = self.run("drop-oldest")
        sheds = [e for e in rec if isinstance(e, InvocationShed)]
        # Victims are queued invocations (positive age), oldest first —
        # the newest LIMIT arrivals survive.
        assert all(e.age > 0.0 for e in sheds)
        assert [e.invocation_id for e in sheds] == list(
            range(self.N_ARRIVALS - self.LIMIT)
        )

    def test_deadline_aware_sheds_least_slack_first(self):
        _, m, rec = self.run("deadline-aware")
        sheds = [e for e in rec if isinstance(e, InvocationShed)]
        # With distinct arrival times the earliest arrival has the least
        # remaining SLA slack, so deadline-aware matches drop-oldest here.
        assert [e.invocation_id for e in sheds] == list(
            range(self.N_ARRIVALS - self.LIMIT)
        )


# ------------------------------------------------------ admission control
class TestAdmissionControl:
    def run(self, *, faults=None, times=None, duration=60.0):
        app = linear_pipeline(1, models=("IR",))
        if times is None:
            times = [0.5 + 0.1 * k for k in range(10)]
        trace = Trace(times, duration=duration)
        rec = TraceRecorder()
        rt = Runtime(
            faults=faults,
            overload=OverloadSpec(admission_rate=1.0, admission_burst=2.0),
            recorder=rec,
        )
        rt.add_app(app, trace, OnDemandPolicy(), seed=0)
        m = rt.run()[app.name]
        return trace, m, rec

    def test_rejections_are_pinned_and_never_enter_the_system(self):
        trace, m, rec = self.run()
        # Bucket: 2 tokens at t=0.5, refill 0.1/arrival — the first two
        # arrivals are admitted, the rest find a fractional token.
        assert m.rejected == 8
        assert m.n_completed + m.unfinished == 2
        assert_conserved_extended(trace, m)
        rejected = [e for e in rec if isinstance(e, InvocationRejected)]
        assert len(rejected) == 8
        # A rejected invocation never enters the system: no Arrival event,
        # no invocation record, disjoint id sets.
        arrival_ids = {e.invocation_id for e in rec if isinstance(e, Arrival)}
        assert len(arrival_ids) == 2
        assert arrival_ids.isdisjoint({e.invocation_id for e in rejected})
        assert_overload_reconstructs(m, rec)

    def test_admission_is_seed_deterministic(self):
        _, m1, rec1 = self.run()
        _, m2, rec2 = self.run()
        assert m1.summary() == m2.summary()
        assert rec1.events == rec2.events


# ------------------------------------------------------- circuit breaker
class TestCircuitBreaker:
    def test_open_probe_reopen_then_close(self):
        """Failures open the breaker; half-open probes fail while the
        fault window lasts (re-opening), then the first clean probe
        closes the circuit and the invocation completes."""
        app = linear_pipeline(1, models=("IR",))
        trace = Trace([1.0], duration=60.0)
        faults = FaultPlan(
            execution_faults=(ExecutionFault(rate=1.0, start=0.0, end=20.0),),
            resilience=ResilienceSpec(
                max_retries=50, retry_backoff=0.1, retry_backoff_max=1.0
            ),
        )
        rec = TraceRecorder()
        rt = Runtime(
            faults=faults,
            overload=OverloadSpec(breaker_failures=2, breaker_cooldown=5.0),
            recorder=rec,
        )
        rt.add_app(app, trace, OnDemandPolicy(), seed=0)
        m = rt.run()[app.name]
        reasons = [
            e.reason for e in rec if isinstance(e, FallbackActivated)
        ]
        assert set(reasons) == {"circuit-open", "circuit-close"}
        assert reasons[0] == "circuit-open"
        assert reasons[-1] == "circuit-close"
        # The fault window outlives the first cool-down, so at least one
        # half-open probe failed and re-opened the circuit.
        assert reasons.count("circuit-open") >= 2
        assert reasons.count("circuit-close") == 1
        assert m.fallbacks == len(reasons)
        # Once closed, service resumed and the invocation completed.
        assert m.n_completed == 1
        assert m.timed_out == 0 and m.unfinished == 0
        assert_conserved_extended(trace, m)
        assert_overload_reconstructs(m, rec)

    def test_breaker_pauses_dispatch_while_open(self):
        """Between circuit-open and the next probe no batch starts: the
        StageStart timeline has a gap covering the cool-down."""
        from repro.telemetry.events import StageStart

        app = linear_pipeline(1, models=("IR",))
        trace = Trace([1.0], duration=60.0)
        faults = FaultPlan(
            execution_faults=(ExecutionFault(rate=1.0, start=0.0, end=6.0),),
            resilience=ResilienceSpec(max_retries=50, retry_backoff=0.1),
        )
        rec = TraceRecorder()
        rt = Runtime(
            faults=faults,
            overload=OverloadSpec(breaker_failures=1, breaker_cooldown=10.0),
            recorder=rec,
        )
        rt.add_app(app, trace, OnDemandPolicy(), seed=0)
        rt.run()
        opened = [
            e.t
            for e in rec
            if isinstance(e, FallbackActivated) and e.reason == "circuit-open"
        ]
        assert opened
        starts = [e.t for e in rec if isinstance(e, StageStart)]
        in_cooldown = [
            t for t in starts if opened[0] < t < opened[0] + 10.0
        ]
        assert in_cooldown == []


# ------------------------------------------------------------- brownout
class TestBrownout:
    def test_degrades_on_queue_delay_and_restores(self):
        """A cold-start backlog pushes head-of-queue delay past the
        threshold: the function degrades to the spec's tier, then the
        policy's directive is restored once the queue drains."""
        app = linear_pipeline(1, models=("IR",))
        times = [0.1 + 0.01 * k for k in range(40)]
        trace = Trace(times, duration=120.0)
        rec = TraceRecorder()
        rt = Runtime(
            overload=OverloadSpec(
                brownout_queue_delay=1.0, degraded_config="cpu-16"
            ),
            recorder=rec,
        )
        gw = rt.add_app(
            app,
            trace,
            FixedConfigPolicy(HardwareConfig.cpu(4), keep_alive=30.0),
            seed=0,
        )
        m = rt.run()[app.name]
        reasons = [
            e.reason for e in rec if isinstance(e, FallbackActivated)
        ]
        assert reasons == ["brownout", "brownout-restore"]
        events = [e for e in rec if isinstance(e, FallbackActivated)]
        assert events[0].from_config == "cpu-4"
        assert events[0].to_config == "cpu-16"
        assert events[1].from_config == "cpu-16"
        assert events[1].to_config == "cpu-4"
        # The directive swap is part of the decision audit.
        from repro.telemetry import decision_audit

        brownout_changes = [
            d for d in decision_audit(rec.events) if "brownout" in d.reason
        ]
        assert len(brownout_changes) == 2
        # Ownership returned to the policy: the standing directive at run
        # end is the policy's own configuration.
        assert gw.ctx.directive("f0-IR").config == HardwareConfig.cpu(4)
        assert gw.overload_plane.brownout_saved == {}
        assert m.n_completed == len(trace)
        assert_conserved_extended(trace, m)
        assert_overload_reconstructs(m, rec)

    @pytest.mark.parametrize("delay", [0.05, 0.2, 0.5, 1.0])
    def test_smiless_traced_and_untraced_runs_agree(self, delay):
        """Observing a run must not change it: when brownout swaps in the
        degraded tier, smiless must reclaim the function with the same
        directives whether or not a recorder is attached."""
        env = build_environment(
            "image-query",
            preset="bursty",
            duration=300.0,
            train_duration=1200.0,
            seed=0,
        )
        spec = OverloadSpec(
            brownout_queue_delay=delay, brownout_recover_delay=delay / 4
        )

        def summary(recorder):
            rt = Runtime(overload=spec, recorder=recorder)
            rt.add_app(env.app, env.trace, env.make_policy("smiless"), seed=3)
            return rt.run()[env.app.name].summary()

        assert summary(None) == summary(TraceRecorder())


# -------------------------------------------- flash crowds / retry storms
class TestFlashCrowd:
    def test_injection_counts_and_conserves(self):
        app = linear_pipeline(1, models=("IR",))
        trace = constant_rate_process(5.0, 40.0, offset=5.0)
        faults = FaultPlan(
            flash_crowds=(FlashCrowd(rate=2.0, start=10.0, end=12.0),)
        )
        rec = TraceRecorder()
        rt = Runtime(faults=faults, recorder=rec)
        rt.add_app(
            app,
            trace,
            FixedConfigPolicy(HardwareConfig.cpu(4)),
            seed=0,
        )
        m = rt.run()[app.name]
        # rate * (end - start) = 4 extra arrivals, all through the
        # ordinary front door.
        assert m.injected_arrivals == 4
        arrivals = [e for e in rec if isinstance(e, Arrival)]
        assert len(arrivals) == len(trace) + 4
        assert {e.t for e in arrivals} >= {10.0, 10.5, 11.0, 11.5}
        assert_conserved_extended(trace, m)


    def test_smiless_absorbs_crowd_by_shedding_and_admission(self):
        """A flash crowd against bounded queues and admission control:
        both mechanisms engage, nothing is lost, the queue bound holds,
        the trace is schema-valid and exact, and observing the run does
        not change it."""
        env = build_environment(
            "image-query", preset="steady", sla=2.0, duration=60.0,
            train_duration=400.0, seed=0,
        )
        faults = FaultPlan(
            flash_crowds=(FlashCrowd(rate=30.0, start=20.0, end=26.0),),
        )
        spec = OverloadSpec(
            queue_limit=8,
            shed_policy="deadline-aware",
            admission_rate=15.0,
            admission_burst=10.0,
        )

        def run(recorder):
            rt = Runtime(faults=faults, overload=spec, recorder=recorder)
            rt.add_app(env.app, env.trace, env.make_policy("smiless"), seed=3)
            return rt.run()[env.app.name]

        rec = TraceRecorder()
        live = run(rec)
        assert live.shed > 0, "bounded queues never shed"
        assert live.rejected > 0, "admission never rejected"
        assert live.injected_arrivals > 0, "flash crowd injected nothing"
        assert_conserved_extended(env.trace, live)
        assert live.peak_queue_depth <= spec.queue_limit
        for event in rec:
            assert validate_event(to_dict(event)) == []
        assert_overload_reconstructs(live, rec)
        assert run(None).summary() == live.summary(), "traced != untraced"


class TestRetryStorm:
    def test_rejected_arrivals_resubmit_up_to_generation_cap(self):
        app = linear_pipeline(1, models=("IR",))
        trace = Trace([1.0, 1.01, 1.02], duration=30.0)
        faults = FaultPlan(retry_storms=(RetryStorm(resubmits=2, delay=1.0),))
        rec = TraceRecorder()
        rt = Runtime(
            faults=faults,
            overload=OverloadSpec(admission_rate=0.01, admission_burst=1.0),
            recorder=rec,
        )
        rt.add_app(app, trace, OnDemandPolicy(), seed=0)
        m = rt.run()[app.name]
        # One token at t=1.0: the first arrival is admitted.  The other
        # two are rejected and resubmit twice each (the generation cap),
        # every resubmission rejected again by the starved bucket.
        assert m.n_completed + m.unfinished == 1
        assert m.injected_arrivals == 4
        assert m.rejected == 6
        assert_conserved_extended(trace, m)
        # Resubmissions arrive exactly delay seconds after each rejection.
        rejected_t = sorted(
            e.t for e in rec if isinstance(e, InvocationRejected)
        )
        assert rejected_t == [1.01, 1.02, 2.01, 2.02, 3.01, 3.02]

    @pytest.mark.parametrize(
        "arrivals, storm, admission_rate, deadline_factor",
        [
            pytest.param(
                (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0), (3, 1.5, math.inf), 0.5,
                None, id="None",
            ),
            pytest.param(
                (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0), (3, 1.5, math.inf), 0.5,
                0.5, id="0.5",
            ),
            # Resubmissions rejected after the storm window closed.
            pytest.param(
                (1.0, 1.01, 1.02), (3, 1.0, 2.5), 0.01, None,
                id="rejected-after-window",
            ),
        ],
    )
    def test_generation_map_empty_at_run_end(
        self, arrivals, storm, admission_rate, deadline_factor
    ):
        """Resubmissions that complete (or time out, with a deadline) drop
        their generation entry, and so do those rejected after the storm
        window closed; nothing survives the run."""
        app = linear_pipeline(1, models=("IR",))
        trace = Trace(list(arrivals), duration=60.0)
        resubmits, delay, end = storm
        faults = FaultPlan(
            retry_storms=(RetryStorm(resubmits=resubmits, delay=delay, end=end),),
            resilience=ResilienceSpec(deadline_factor=deadline_factor),
        )
        rt = Runtime(
            faults=faults,
            overload=OverloadSpec(
                admission_rate=admission_rate, admission_burst=1.0
            ),
        )
        gateway = rt.add_app(app, trace, OnDemandPolicy(), seed=0)
        m = rt.run()[app.name]
        assert m.injected_arrivals > 0 and m.n_completed > 0
        if deadline_factor is not None:
            assert m.timed_out > 0
        assert_conserved_extended(trace, m)
        assert gateway.fault_plane.storm_generation == {}

    def test_storm_outside_window_is_inert(self):
        app = linear_pipeline(1, models=("IR",))
        trace = Trace([1.0, 1.01], duration=30.0)
        faults = FaultPlan(
            retry_storms=(RetryStorm(resubmits=5, delay=1.0, start=20.0),)
        )
        rt = Runtime(
            faults=faults,
            overload=OverloadSpec(admission_rate=0.01, admission_burst=1.0),
        )
        rt.add_app(app, trace, OnDemandPolicy(), seed=0)
        m = rt.run()[app.name]
        # The rejection happens before the storm window opens: no echo.
        assert m.injected_arrivals == 0
        assert m.rejected == 1


# ------------------------------------------------------------- zero cost
class TestZeroCost:
    def test_inert_spec_changes_nothing(self):
        """A spec with every mechanism disabled produces the identical
        event stream and summary as no spec at all."""
        env = build_environment(
            "image-query", preset="steady", sla=2.0, duration=60.0, seed=0
        )

        def run(overload):
            rec = TraceRecorder()
            rt = Runtime(overload=overload, recorder=rec)
            rt.add_app(env.app, env.trace, env.make_policy("smiless"), seed=3)
            m = rt.run()[env.app.name]
            return m, rec

        base_m, base_rec = run(None)
        inert_m, inert_rec = run(OverloadSpec())
        assert base_rec.events == inert_rec.events
        assert base_m.summary() == inert_m.summary()
        assert inert_m.shed == 0 and inert_m.rejected == 0


# ------------------------------------------------------------ leak tests
class TestNoLeaksAtRunEnd:
    """Satellite: deadline timers and demand charges must not survive the
    run, however invocations leave the system — completed, timed out,
    shed at the front door or rejected before entry."""

    @pytest.mark.parametrize("shed_policy", SHED_POLICIES)
    @pytest.mark.parametrize("policy", ["on-demand", "smiless"])
    def test_chaos_overload_grid_leaves_no_residue(self, policy, shed_policy):
        env = build_environment(
            "image-query", preset="steady", sla=2.0, duration=60.0,
            train_duration=400.0, seed=0,
        )
        faults = FaultPlan(
            execution_faults=(ExecutionFault(rate=0.2),),
            flash_crowds=(FlashCrowd(rate=10.0, start=20.0, end=24.0),),
            resilience=ResilienceSpec(
                max_retries=4, retry_backoff=0.2, deadline_factor=2.0
            ),
        )
        overload = OverloadSpec(
            queue_limit=8,
            shed_policy=shed_policy,
            admission_rate=5.0,
            admission_burst=5.0,
        )
        rt = Runtime(faults=faults, overload=overload)
        gw = rt.add_app(env.app, env.trace, env.make_policy(policy), seed=3)
        m = rt.run()[env.app.name]
        # The overload machinery actually engaged.
        assert m.shed + m.rejected > 0
        assert m.timed_out > 0
        assert_conserved_extended(env.trace, m)
        # No leaked deadline timers, no stranded demand charges, and the
        # cluster ends empty.
        assert gw.fault_plane.deadline_timers == {}
        assert all(v == 0 for v in gw.pending_stage_demand), (
            gw.pending_stage_demand
        )
        assert rt.cluster.cores_used() == 0
        assert rt.cluster.gpu_slots_used() == 0


# --------------------------------------------------- report reconstruction
class TestReportFromTrace:
    def overload_run(self, tmp_path):
        env = build_environment(
            "image-query", preset="steady", sla=2.0, duration=60.0, seed=0
        )
        faults = FaultPlan(
            flash_crowds=(FlashCrowd(rate=20.0, start=20.0, end=25.0),)
        )
        overload = OverloadSpec(
            queue_limit=8,
            shed_policy="deadline-aware",
            admission_rate=10.0,
            admission_burst=10.0,
        )
        rec = TraceRecorder()
        rt = Runtime(faults=faults, overload=overload, recorder=rec)
        rt.add_app(env.app, env.trace, env.make_policy("on-demand"), seed=3)
        m = rt.run()[env.app.name]
        path = tmp_path / "overload.jsonl"
        rec.write_jsonl(path)
        return m, rec, path

    def test_report_renders_overload_section_from_events_alone(
        self, tmp_path
    ):
        from repro.simulator.reporting import format_report

        live, rec, path = self.overload_run(tmp_path)
        assert live.shed > 0 and live.rejected > 0
        rebuilt = assert_overload_reconstructs(live, rec)
        live_report = format_report(live)
        rebuilt_report = format_report(rebuilt)
        expected = (
            f"overload absorbed: {live.shed} shed from bounded queues, "
            f"{live.rejected} rejected at admission"
        )
        assert expected in live_report
        assert expected in rebuilt_report

    def test_cli_report_from_trace(self, tmp_path, capsys):
        from repro.cli import main

        live, _, path = self.overload_run(tmp_path)
        assert main(["report", "image-query", "--from-trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "overload absorbed:" in out
        assert f"{live.shed} shed from bounded queues" in out
        assert f"{live.rejected} rejected at admission" in out
