"""Behavioural tests for the fault-injection plane and resilience machinery.

Each fault family gets a targeted scenario — machine outages, mid-flight
execution failures, deadlines, init-failure crash loops, GPU starvation —
plus the acceptance property: under a mid-run machine outage with
execution faults, every registered policy completes the trace with *no
lost invocations* (``arrivals == completed + unfinished + timed_out``),
bit-exact trace reconstruction, balanced per-instance billing and an
empty cluster afterwards.
"""

import math

import pytest

from repro.dag import linear_pipeline
from repro.experiments import build_environment
from repro.experiments.parallel import (
    EnvSpec,
    MultiAppCellSpec,
    cell_trace_path,
    run_grid,
)
from repro.experiments.runners import POLICY_NAMES
from repro.faults import (
    ExecutionFault,
    FaultPlan,
    InitFailureBurst,
    LatencyStraggler,
    MachineOutage,
    ResilienceSpec,
)
from repro.hardware import HardwareConfig
from repro.policies import AlwaysOnPolicy, OnDemandPolicy
from repro.policies.base import Policy
from repro.simulator import (
    Cluster,
    Deployment,
    FunctionDirective,
    MultiAppSimulator,
    Runtime,
)
from repro.telemetry import (
    TraceRecorder,
    aggregate,
    aggregate_all,
    read_jsonl,
    to_dict,
    validate_event,
)
from repro.telemetry.events import (
    ExecutionFailed,
    FallbackActivated,
    InstanceExpired,
    InvocationTimedOut,
    MachineDown,
    MachineUp,
    PrewarmMiss,
    StageRetried,
)
from repro.workload import Trace, constant_rate_process


def assert_conserved(trace, metrics):
    """No invocation is ever lost: every arrival lands in exactly one bin."""
    assert len(trace) == (
        len(metrics.invocations) + metrics.unfinished + metrics.timed_out
    )


def assert_reconstructs(live, rebuilt):
    """Trace-derived metrics equal the live counters, faults included."""
    assert rebuilt.timed_out == live.timed_out
    assert rebuilt.stage_retries == live.stage_retries
    assert rebuilt.failed_executions == live.failed_executions
    assert rebuilt.fallbacks == live.fallbacks
    assert rebuilt.failed_initializations == live.failed_initializations
    a, b = rebuilt.summary(), live.summary()
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], float) and math.isnan(a[key]):
            assert math.isnan(b[key])
        else:
            assert a[key] == b[key], key


def expiry_reasons(rec):
    return [e.reason for e in rec if isinstance(e, InstanceExpired)]


class FixedConfigPolicy(Policy):
    """Minimal policy: one fixed config, demand-driven launches only."""

    name = "fixed-config"

    def __init__(self, config, keep_alive=5.0):
        self.config = config
        self.keep_alive = keep_alive

    def on_register(self, app, ctx):
        for fn in app.function_names:
            ctx.set_directive(
                fn,
                FunctionDirective(
                    config=self.config,
                    keep_alive=self.keep_alive,
                    warm_grace=0.0,
                ),
            )


class PrewarmOncePolicy(FixedConfigPolicy):
    """Fixed config plus one pre-warm of the first function at ``fire_at``."""

    name = "prewarm-once"

    def __init__(self, config, keep_alive, fire_at):
        super().__init__(config, keep_alive)
        self.fire_at = fire_at

    def on_register(self, app, ctx):
        super().on_register(app, ctx)
        ctx.schedule_warmup(app.function_names[0], self.fire_at)


# --------------------------------------------------------------- outages
class TestMachineOutages:
    def test_outage_evicts_requeues_and_recovers(self):
        app = linear_pipeline(2, models=("IR", "DB"))
        trace = constant_rate_process(5.0, 60.0, offset=5.0)
        plan = FaultPlan(
            outages=(MachineOutage(machine=0, start=20.05, end=32.0),),
            resilience=ResilienceSpec(max_retries=10, retry_backoff=0.1),
        )
        rec = TraceRecorder()
        rt = Runtime(faults=plan, recorder=rec)
        rt.add_app(app, trace, AlwaysOnPolicy(), seed=0)
        m = rt.run()[app.name]
        # No invocation lost: the displaced work retried and completed.
        assert_conserved(trace, m)
        assert m.unfinished == 0 and m.timed_out == 0
        reasons = expiry_reasons(rec)
        assert reasons.count("machine-failed") > 0
        assert m.stage_retries > 0
        assert any(isinstance(e, MachineDown) for e in rec)
        assert any(isinstance(e, MachineUp) for e in rec)
        assert_reconstructs(m, aggregate(rec.events, app=app.name))

    def test_outage_on_unknown_machine_rejected(self):
        app = linear_pipeline(1, models=("IR",))
        trace = Trace([5.0], duration=20.0)
        plan = FaultPlan(outages=(MachineOutage(machine=99, start=1.0),))
        with pytest.raises(ValueError, match="only"):
            rt = Runtime(faults=plan)
            rt.add_app(app, trace, AlwaysOnPolicy(), seed=0)
            rt.run()


# ------------------------------------------------------- execution faults
class TestExecutionFaults:
    def test_faults_retry_and_conserve(self):
        app = linear_pipeline(2, models=("IR", "DB"))
        trace = constant_rate_process(4.0, 80.0, offset=4.0)
        plan = FaultPlan(
            execution_faults=(ExecutionFault(rate=0.3),),
            resilience=ResilienceSpec(max_retries=20, retry_backoff=0.05),
        )
        rec = TraceRecorder()
        rt = Runtime(faults=plan, recorder=rec)
        rt.add_app(app, trace, AlwaysOnPolicy(), seed=0)
        m = rt.run()[app.name]
        assert m.failed_executions > 0
        assert m.stage_retries > 0
        assert m.timed_out == 0
        assert_conserved(trace, m)
        assert sum(isinstance(e, ExecutionFailed) for e in rec) == (
            m.failed_executions
        )
        assert sum(isinstance(e, StageRetried) for e in rec) == m.stage_retries
        assert "execution-failed" in expiry_reasons(rec)
        assert_reconstructs(m, aggregate(rec.events, app=app.name))

    def test_retry_budget_exhaustion_abandons(self):
        app = linear_pipeline(1, models=("IR",))
        trace = Trace([5.0, 15.0, 25.0], duration=40.0)
        plan = FaultPlan(
            execution_faults=(ExecutionFault(rate=1.0),),
            resilience=ResilienceSpec(max_retries=2, retry_backoff=0.0),
        )
        rec = TraceRecorder()
        rt = Runtime(faults=plan, recorder=rec)
        rt.add_app(app, trace, OnDemandPolicy(), seed=0)
        m = rt.run()[app.name]
        # Every invocation burns its full budget, then is abandoned.
        assert len(m.invocations) == 0
        assert m.timed_out == len(trace)
        assert m.unfinished == 0
        assert_conserved(trace, m)
        assert m.failed_executions == len(trace) * 3  # initial + 2 retries
        assert m.stage_retries == len(trace) * 2
        timeouts = [e for e in rec if isinstance(e, InvocationTimedOut)]
        assert [e.reason for e in timeouts] == ["retries-exhausted"] * 3
        assert_reconstructs(m, aggregate(rec.events, app=app.name))


# ------------------------------------------------------------- deadlines
class TestDeadlines:
    def test_deadline_abandons_straggling_invocations(self):
        app = linear_pipeline(2, models=("IR", "DB"))  # sla = 2.0
        trace = Trace([5.0, 15.0], duration=40.0)
        plan = FaultPlan(
            stragglers=(LatencyStraggler(factor=40.0),),
            resilience=ResilienceSpec(deadline_factor=2.0),
        )
        rec = TraceRecorder()
        rt = Runtime(faults=plan, recorder=rec)
        rt.add_app(app, trace, AlwaysOnPolicy(), seed=0)
        m = rt.run()[app.name]
        assert m.timed_out == len(trace)
        assert len(m.invocations) == 0
        assert_conserved(trace, m)
        timeouts = [e for e in rec if isinstance(e, InvocationTimedOut)]
        assert all(e.reason == "deadline" for e in timeouts)
        # Abandonment fires exactly at deadline_factor x SLA after arrival.
        assert all(e.age == pytest.approx(2.0 * app.sla) for e in timeouts)
        assert_reconstructs(m, aggregate(rec.events, app=app.name))

    def test_deadline_cancelled_on_timely_completion(self):
        app = linear_pipeline(2, models=("IR", "DB"))
        trace = constant_rate_process(10.0, 40.0, offset=5.0)
        plan = FaultPlan(resilience=ResilienceSpec(deadline_factor=10.0))
        rec = TraceRecorder()
        rt = Runtime(faults=plan, recorder=rec)
        rt.add_app(app, trace, AlwaysOnPolicy(), seed=0)
        m = rt.run()[app.name]
        assert m.timed_out == 0
        assert len(m.invocations) == len(trace)
        assert not any(isinstance(e, InvocationTimedOut) for e in rec)


# ----------------------------------------------- init bursts / crash loops
class TestInitFailureBursts:
    def test_crash_loop_capped_then_falls_back(self):
        app = linear_pipeline(1, models=("IR",))
        trace = Trace([5.0], duration=30.0)
        plan = FaultPlan(
            init_failure_bursts=(InitFailureBurst(rate=1.0),),
            resilience=ResilienceSpec(
                max_crash_loop=3, fallback_after=1, fallback_config="cpu-16"
            ),
        )
        rec = TraceRecorder()
        rt = Runtime(faults=plan, recorder=rec)
        rt.add_app(
            app,
            trace,
            FixedConfigPolicy(HardwareConfig.cpu(4)),
            seed=0,
        )
        m = rt.run()[app.name]
        # 3 cpu-4 attempts, crash-loop fallback, 3 cpu-16 attempts, stop:
        # the loop terminates instead of relaunching forever.
        assert m.failed_initializations == 6
        assert m.fallbacks == 1
        fallbacks = [e for e in rec if isinstance(e, FallbackActivated)]
        assert [e.reason for e in fallbacks] == ["crash-loop"]
        assert fallbacks[0].from_config == "cpu-4"
        assert fallbacks[0].to_config == "cpu-16"
        # The invocation never ran but is still accounted for.
        assert m.unfinished == 1
        assert_conserved(trace, m)
        assert_reconstructs(m, aggregate(rec.events, app=app.name))

    def test_burst_window_passes_and_service_recovers(self):
        app = linear_pipeline(1, models=("IR",))
        trace = Trace([12.0], duration=30.0)
        plan = FaultPlan(
            init_failure_bursts=(InitFailureBurst(rate=1.0, start=0.0, end=10.0),)
        )
        rt = Runtime(faults=plan)
        rt.add_app(
            app,
            trace,
            FixedConfigPolicy(HardwareConfig.cpu(4)),
            seed=0,
        )
        m = rt.run()[app.name]
        # Launch happens after the burst window: init succeeds first try.
        assert m.failed_initializations == 0
        assert len(m.invocations) == 1


# ------------------------------------------------------- GPU starvation
class TestGpuStarvationFallback:
    def test_starved_gpu_function_degrades_to_cpu(self):
        app = linear_pipeline(1, models=("IR",))
        trace = Trace([5.0], duration=30.0)
        cluster = Cluster.build(n_machines=1, gpu_slots_per_machine=0)
        plan = FaultPlan(
            resilience=ResilienceSpec(fallback_after=1, fallback_config="cpu-16")
        )
        rec = TraceRecorder()
        rt = Runtime(cluster=cluster, faults=plan, recorder=rec)
        rt.add_app(
            app,
            trace,
            FixedConfigPolicy(HardwareConfig.gpu(0.3)),
            seed=0,
        )
        m = rt.run()[app.name]
        assert m.fallbacks == 1
        fallbacks = [e for e in rec if isinstance(e, FallbackActivated)]
        assert [e.reason for e in fallbacks] == ["gpu-starvation"]
        assert fallbacks[0].from_config == "gpu-30"
        assert fallbacks[0].to_config == "cpu-16"
        # Degraded service still completes the invocation on CPU.
        assert len(m.invocations) == 1
        assert m.unfinished == 0
        assert_reconstructs(m, aggregate(rec.events, app=app.name))


# --------------------------------------------------- PrewarmMiss emission
class TestPrewarmMissPin:
    """A PrewarmMiss means the warm-up *prediction* was wrong — shutdown
    and fault-injected kills must not count (satellite fix)."""

    APP = ("IR",)

    def run(self, policy, faults=None, duration=30.0):
        app = linear_pipeline(1, models=self.APP)
        trace = Trace([1.0], duration=duration)
        rec = TraceRecorder()
        rt = Runtime(faults=faults, recorder=rec)
        rt.add_app(app, trace, policy, seed=0)
        m = rt.run()[app.name]
        return m, rec

    def test_no_miss_at_run_shutdown(self):
        policy = PrewarmOncePolicy(
            HardwareConfig.cpu(4), keep_alive=1000.0, fire_at=20.0
        )
        m, rec = self.run(policy)
        assert "shutdown" in expiry_reasons(rec)
        assert not any(isinstance(e, PrewarmMiss) for e in rec)

    def test_no_miss_when_machine_fails(self):
        plan = FaultPlan(
            outages=(MachineOutage(machine=0, start=25.0, end=28.0),)
        )
        policy = PrewarmOncePolicy(
            HardwareConfig.cpu(4), keep_alive=1000.0, fire_at=20.0
        )
        m, rec = self.run(policy, faults=plan)
        assert "machine-failed" in expiry_reasons(rec)
        assert not any(isinstance(e, PrewarmMiss) for e in rec)

    def test_genuine_expiry_still_a_miss(self):
        policy = PrewarmOncePolicy(
            HardwareConfig.cpu(4), keep_alive=3.0, fire_at=15.0
        )
        m, rec = self.run(policy)
        misses = [e for e in rec if isinstance(e, PrewarmMiss)]
        assert len(misses) == 1


# --------------------------------------------------- acceptance property
@pytest.fixture(scope="module")
def chaos_env():
    return build_environment(
        "image-query", preset="steady", sla=2.0, duration=60.0,
        train_duration=400.0, seed=0,
    )


@pytest.fixture(scope="module")
def chaos_plan(chaos_env):
    # Outage lands just after a mid-trace arrival, so work is in flight.
    trace = chaos_env.trace
    t0 = float(trace.times[len(trace) // 2]) + 0.05
    return FaultPlan(
        outages=(MachineOutage(machine=0, start=t0, end=t0 + 8.0),),
        execution_faults=(ExecutionFault(rate=0.15),),
        resilience=ResilienceSpec(max_retries=8, retry_backoff=0.2),
    )


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_no_invocation_lost_under_chaos(chaos_env, chaos_plan, policy):
    """Acceptance: mid-run outage + execution faults under every policy."""
    env = chaos_env
    rec = TraceRecorder()
    rt = Runtime(faults=chaos_plan, recorder=rec)
    rt.add_app(env.app, env.trace, env.make_policy(policy), seed=3)
    live = rt.run()[env.app.name]
    # Conservation: every arrival is completed, unfinished or timed out.
    assert_conserved(env.trace, live)
    # The chaos actually bit and was absorbed.
    assert live.stage_retries > 0
    assert expiry_reasons(rec).count("machine-failed") > 0
    # Every emitted event satisfies the published schema, and the
    # trace-derived metrics equal the live counters exactly.
    for event in rec:
        assert validate_event(to_dict(event)) == []
    assert_reconstructs(live, aggregate(rec.events, app=env.app.name))
    # Per-instance billing stays balanced through evictions and retries.
    for usage in rec:
        if not isinstance(usage, InstanceExpired):
            continue
        assert usage.lifetime == pytest.approx(
            usage.init_seconds + usage.busy_seconds + usage.idle_seconds
        )
    # Every allocation was released: the cluster ends empty.
    assert rt.cluster.cores_used() == 0
    assert rt.cluster.gpu_slots_used() == 0


def test_multiapp_conservation_under_chaos(chaos_env):
    envs = [
        chaos_env,
        build_environment(
            "amber-alert", preset="steady", sla=2.0, duration=60.0,
            train_duration=400.0, seed=1,
        ),
    ]
    plan = FaultPlan(
        outages=(MachineOutage(machine=0, start=20.05, end=28.0),),
        execution_faults=(ExecutionFault(rate=0.15),),
        resilience=ResilienceSpec(max_retries=8, retry_backoff=0.2),
    )
    rec = TraceRecorder()
    sim = MultiAppSimulator(
        [Deployment(e.app, e.trace, e.make_policy("on-demand")) for e in envs],
        seed=3,
        faults=plan,
        recorder=rec,
    )
    live = sim.run()
    rebuilt = aggregate_all(rec.events)
    assert set(rebuilt) == set(live)
    for env in envs:
        m = live[env.app.name]
        assert_conserved(env.trace, m)
        assert_reconstructs(m, rebuilt[env.app.name])
    assert sum(m.stage_retries for m in live.values()) > 0
    assert sim.cluster.cores_used() == 0
    assert sim.cluster.gpu_slots_used() == 0


# ------------------------------------------------------ chaos determinism
def test_chaos_grid_bit_identical_serial_vs_parallel(tmp_path):
    """Same seed + same plan => identical summaries and JSONL bytes,
    whether cells run serially or fan across worker processes."""
    plan = FaultPlan(
        outages=(MachineOutage(machine=0, start=20.05, end=28.0),),
        execution_faults=(ExecutionFault(rate=0.2),),
        resilience=ResilienceSpec(max_retries=6, retry_backoff=0.1),
    )
    env = EnvSpec(app="image-query", duration=60.0, train_duration=400.0)

    def cells(trace_dir):
        return [
            MultiAppCellSpec(
                envs=(env,), policy=p, sim_seed=3,
                trace_dir=str(trace_dir), faults=plan,
            )
            for p in ("always-on", "on-demand")
        ]

    serial = run_grid(cells(tmp_path / "serial"), workers=1)
    parallel = run_grid(cells(tmp_path / "parallel"), workers=2)
    assert [r.summary for r in serial] == [r.summary for r in parallel]
    for cs, cp in zip(cells(tmp_path / "serial"), cells(tmp_path / "parallel")):
        assert cell_trace_path(cs).read_bytes() == cell_trace_path(cp).read_bytes()
    # The runs really were chaotic, not trivially identical no-fault runs.
    events = read_jsonl(cell_trace_path(cells(tmp_path / "serial")[0]))
    assert any(isinstance(e, StageRetried) for e in events)
    assert any(isinstance(e, MachineDown) for e in events)
