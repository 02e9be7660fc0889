"""Property-based invariants of the simulator and the cost model.

These run randomized scenarios through the full engine and check the
conservation laws that hold regardless of policy, workload, or seed:

- billing: every instance's lifetime splits exactly into init + busy + idle;
- work: every invocation executes every DAG stage exactly once, in order;
- capacity: all cluster allocations are returned by the end of the run;
- Theorem 5.1: the adaptive cold-start policy is cost-minimal among the
  candidate strategies in its own regime.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prewarming import cost_per_invocation
from repro.dag import linear_pipeline, random_dag
from repro.hardware import HardwareConfig
from repro.policies import AlwaysOnPolicy, OnDemandPolicy
from repro.policies.base import Policy
from repro.simulator import FunctionDirective, Runtime
from repro.telemetry import TraceRecorder
from repro.telemetry.events import InstanceExpired
from repro.workload import Trace, poisson_process


class RandomDirectivePolicy(Policy):
    """Arbitrary-but-valid directives: stresses the engine's generality."""

    name = "random-directives"

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def on_register(self, app, ctx):
        configs = [HardwareConfig.cpu(4), HardwareConfig.cpu(8), HardwareConfig.gpu(0.2)]
        for fn in app.function_names:
            ctx.set_directive(
                fn,
                FunctionDirective(
                    config=configs[int(self.rng.integers(len(configs)))],
                    keep_alive=float(self.rng.choice([0.0, 2.0, 10.0, math.inf])),
                    batch=int(self.rng.integers(1, 5)),
                    min_warm=int(self.rng.integers(0, 2)),
                    warm_grace=float(self.rng.uniform(0, 8)),
                ),
            )


def run_random_scenario(n_functions, seed, rate=0.4, duration=80.0, recorder=None):
    app = random_dag(n_functions, rng=seed)
    trace = poisson_process(rate, duration, rng=seed + 1)
    rt = Runtime(recorder=recorder)
    rt.add_app(app, trace, RandomDirectivePolicy(seed + 2), seed=seed + 3)
    return app, trace, rt, rt.run()[app.name]


class TestEngineInvariants:
    @given(n=st.integers(1, 6), seed=st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_billing_conservation(self, n, seed):
        rec = TraceRecorder()
        _, _, _, m = run_random_scenario(n, seed, recorder=rec)
        expired = [e for e in rec if isinstance(e, InstanceExpired)]
        for usage in expired:
            assert usage.lifetime >= -1e-9
            split = usage.init_seconds + usage.busy_seconds + usage.idle_seconds
            assert split == pytest.approx(usage.lifetime, abs=1e-6)
            assert usage.cost == pytest.approx(
                usage.lifetime * HardwareConfig.from_key(usage.config).unit_cost
            )
        assert m.billing.instances == len(expired)

    @given(n=st.integers(1, 6), seed=st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_every_stage_runs_once_in_order(self, n, seed):
        app, trace, _, m = run_random_scenario(n, seed)
        completed = [inv for inv in m.invocations if inv.finished]
        for inv in completed:
            assert set(inv.stages) == set(app.function_names)
            for fn in app.function_names:
                rec = inv.stages[fn]
                assert rec.ready_at <= rec.started_at + 1e-9
                assert rec.started_at <= rec.finished_at
                for pred in app.predecessors(fn):
                    assert inv.stages[pred].finished_at <= rec.ready_at + 1e-9

    @given(n=st.integers(1, 6), seed=st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_cluster_capacity_restored(self, n, seed):
        _, _, rt, _ = run_random_scenario(n, seed)
        assert rt.cluster.cores_used() == 0
        assert rt.cluster.gpu_slots_used() == 0

    @given(n=st.integers(1, 5), seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_stage_execution_accounting(self, n, seed):
        app, _, _, m = run_random_scenario(n, seed)
        completed = [inv for inv in m.invocations if inv.finished]
        # completed invocations contribute exactly one execution per stage;
        # unfinished ones at most one per stage
        lo = len(completed) * len(app)
        hi = (len(completed) + m.unfinished) * len(app)
        assert lo <= m.stage_executions <= hi

    @given(n=st.integers(1, 5), seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_latencies_positive_and_causal(self, n, seed):
        _, _, _, m = run_random_scenario(n, seed)
        lat = m.latencies()
        assert (lat > 0).all()
        for inv in m.invocations:
            assert inv.completed_at >= inv.arrival


class TestFailureInjection:
    def test_failed_inits_retried_and_counted(self):
        app = linear_pipeline(1, models=("IR",))
        trace = poisson_process(0.3, 120.0, rng=0)
        rt = Runtime(init_failure_rate=0.4)
        rt.add_app(app, trace, OnDemandPolicy(), seed=1)
        m = rt.run()[app.name]
        assert m.failed_initializations > 0
        # every completed invocation still executed despite the crash-loops
        assert all(inv.finished for inv in m.invocations)

    def test_failure_rate_zero_means_no_failures(self):
        app = linear_pipeline(1, models=("IR",))
        trace = poisson_process(0.3, 60.0, rng=0)
        rt = Runtime()
        rt.add_app(app, trace, OnDemandPolicy(), seed=1)
        m = rt.run()[app.name]
        assert m.failed_initializations == 0

    def test_failures_raise_cost(self):
        app = linear_pipeline(1, models=("IR",))
        trace = Trace(list(np.arange(5.0, 120.0, 10.0)), duration=120.0)
        rt = Runtime()
        rt.add_app(app, trace, OnDemandPolicy(), seed=2)
        clean = rt.run()[app.name]
        rt = Runtime(init_failure_rate=0.5)
        rt.add_app(app, trace, OnDemandPolicy(), seed=2)
        faulty = rt.run()[app.name]
        assert faulty.failed_initializations > 0
        # crash-looped attempts are billed, so total cost can only rise
        assert faulty.total_cost() > clean.total_cost()

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Runtime(init_failure_rate=1.0)


class TestTheorem51:
    """Theorem 5.1: in the pre-warm regime the adaptive policy is cheapest."""

    @given(
        t=st.floats(0.1, 8.0),
        i=st.floats(0.05, 4.0),
        slack=st.floats(0.01, 20.0),
        u=st.floats(1e-6, 1e-3),
    )
    @settings(max_examples=200, deadline=None)
    def test_prewarm_beats_alternatives_in_its_regime(self, t, i, slack, u):
        it = t + i + slack  # Case I: T + I < IT
        adaptive = cost_per_invocation(t, i, it, u)
        keep_alive_forever = it * u  # billed through the whole gap
        recreate = (t + i) * u  # terminate-and-recreate cycle
        assert adaptive <= keep_alive_forever + 1e-15
        assert adaptive <= recreate + 1e-15

    @given(
        t=st.floats(0.1, 8.0),
        i=st.floats(0.05, 4.0),
        frac=st.floats(0.05, 0.99),
        u=st.floats(1e-6, 1e-3),
    )
    @settings(max_examples=200, deadline=None)
    def test_keepalive_beats_recreate_in_its_regime(self, t, i, frac, u):
        it = (t + i) * frac  # Case II: T + I >= IT
        adaptive = cost_per_invocation(t, i, it, u)
        recreate = (t + i) * u
        assert adaptive <= recreate + 1e-15
