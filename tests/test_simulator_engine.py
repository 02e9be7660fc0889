"""Integration tests for the serverless simulator engine.

The two reference policies bracket the design space and make engine
behaviour easy to assert: always-on never cold-starts after warm-up but
bills idle time continuously; on-demand bills almost no idle time but puts
every initialization on the critical path.
"""

import math

import numpy as np
import pytest

from repro.dag import image_query, linear_pipeline
from repro.hardware import Backend, HardwareConfig
from repro.policies import AlwaysOnPolicy, OnDemandPolicy
from repro.policies.base import Policy
from repro.simulator import Cluster, FunctionDirective, Runtime
from repro.telemetry import TraceRecorder
from repro.telemetry.events import InstanceExpired
from repro.workload import Trace, constant_rate_process


def run(app, trace, policy):
    rt = Runtime()
    rt.add_app(app, trace, policy, seed=0)
    return rt.run()[app.name]


class TestBasicExecution:
    def test_all_invocations_complete(self):
        app = linear_pipeline(3, models=("IR", "DB", "QA"))
        trace = constant_rate_process(20.0, 100.0, offset=5.0)
        m = run(app, trace, AlwaysOnPolicy())
        assert len(m.invocations) == len(trace)
        assert m.unfinished == 0
        assert all(inv.finished for inv in m.invocations)

    def test_every_stage_executes_once_per_invocation(self):
        app = image_query()
        trace = constant_rate_process(30.0, 90.0, offset=5.0)
        m = run(app, trace, AlwaysOnPolicy())
        assert m.stage_executions == len(trace) * len(app)
        for inv in m.invocations:
            assert set(inv.stages) == set(app.function_names)

    def test_dag_ordering_respected(self):
        app = image_query()
        trace = constant_rate_process(30.0, 60.0, offset=5.0)
        m = run(app, trace, AlwaysOnPolicy())
        for inv in m.invocations:
            for fn in app.function_names:
                for pred in app.predecessors(fn):
                    assert (
                        inv.stages[pred].finished_at
                        <= inv.stages[fn].started_at + 1e-9
                    )

    def test_latency_accounts_arrival_to_completion(self):
        app = linear_pipeline(2, models=("IR", "DB"))
        trace = Trace([10.0], duration=20.0)
        m = run(app, trace, AlwaysOnPolicy())
        inv = m.invocations[0]
        assert inv.latency == pytest.approx(inv.completed_at - 10.0)

    def test_deterministic_given_seed(self):
        app = image_query()
        trace = constant_rate_process(15.0, 120.0, offset=3.0)
        a = run(app, trace, AlwaysOnPolicy())
        b = run(app, trace, AlwaysOnPolicy())
        np.testing.assert_allclose(a.latencies(), b.latencies())
        assert a.total_cost() == pytest.approx(b.total_cost())


class TestColdVsWarm:
    def test_on_demand_every_stage_cold(self):
        app = linear_pipeline(2, models=("IR", "DB"))
        trace = constant_rate_process(30.0, 90.0, offset=5.0)
        m = run(app, trace, OnDemandPolicy())
        assert m.reinit_fraction() == pytest.approx(1.0)
        # latency includes both init times
        assert m.latencies().min() > 3.0

    def test_always_on_warm_after_first(self):
        app = linear_pipeline(2, models=("IR", "DB"))
        trace = constant_rate_process(30.0, 90.0, offset=10.0)
        m = run(app, trace, AlwaysOnPolicy())
        assert m.reinit_fraction() == 0.0

    def test_on_demand_cheaper_but_slower_than_always_on(self):
        """The core trade-off cold-start management navigates."""
        app = linear_pipeline(2, models=("IR", "DB"))
        trace = constant_rate_process(60.0, 600.0, offset=10.0)
        on_demand = run(app, trace, OnDemandPolicy())
        always_on = run(app, trace, AlwaysOnPolicy())
        assert on_demand.total_cost() < always_on.total_cost()
        assert on_demand.latencies().mean() > always_on.latencies().mean()


class TestKeepAlive:
    class FixedKeepAlive(Policy):
        name = "fixed-ka"

        def __init__(self, keep_alive):
            self.keep_alive = keep_alive

        def on_register(self, app, ctx):
            for fn in app.function_names:
                ctx.set_directive(
                    fn,
                    FunctionDirective(
                        config=HardwareConfig.cpu(4),
                        keep_alive=self.keep_alive,
                        warm_grace=0.0,
                    ),
                )

    def test_keep_alive_spans_gap(self):
        app = linear_pipeline(1, models=("IR",))
        trace = Trace([10.0, 20.0], duration=40.0)
        m = run(app, trace, self.FixedKeepAlive(keep_alive=15.0))
        # second invocation reuses the instance: only one initialization
        assert m.initializations == 1

    def test_short_keep_alive_reinitializes(self):
        app = linear_pipeline(1, models=("IR",))
        trace = Trace([10.0, 20.0], duration=40.0)
        m = run(app, trace, self.FixedKeepAlive(keep_alive=2.0))
        assert m.initializations == 2

    def test_keep_alive_idle_is_billed(self):
        app = linear_pipeline(1, models=("IR",))
        trace = Trace([10.0, 20.0], duration=40.0)
        kept = run(app, trace, self.FixedKeepAlive(keep_alive=15.0))
        assert kept.cost_breakdown()["keepalive"] > 0


class TestPrewarming:
    class PrewarmOnce(Policy):
        """Warm one instance so it is ready exactly at a known arrival."""

        name = "prewarm-once"

        def __init__(self, ready_at, init_guess):
            self.ready_at = ready_at
            self.init_guess = init_guess

        def on_register(self, app, ctx):
            for fn in app.function_names:
                ctx.set_directive(
                    fn,
                    FunctionDirective(
                        config=HardwareConfig.cpu(4),
                        keep_alive=0.0,
                        warm_grace=10.0,
                    ),
                )
                ctx.schedule_warmup(
                    fn, self.ready_at - self.init_guess, HardwareConfig.cpu(4)
                )

    def test_prewarmed_stage_is_warm(self):
        app = linear_pipeline(1, models=("IR",))
        trace = Trace([30.0], duration=40.0)
        policy = self.PrewarmOnce(ready_at=30.0, init_guess=3.0)
        rt = Runtime()
        rt.add_app(app, trace, policy, seed=0, noisy=False)
        m = rt.run()[app.name]
        inv = m.invocations[0]
        assert not inv.stages["f0-IR"].cold_start
        assert inv.latency < 1.0

    def test_warmup_dedup_absorbs_duplicates(self):
        app = linear_pipeline(1, models=("IR",))
        trace = Trace([30.0], duration=40.0)

        class DoubleWarm(self.PrewarmOnce):
            def on_register(inner, app, ctx):
                super().on_register(app, ctx)
                # a second identical request must not launch a second pod
                ctx.schedule_warmup(
                    "f0-IR", 27.5, HardwareConfig.cpu(4)
                )

        rt = Runtime()
        rt.add_app(app, trace, DoubleWarm(30.0, 3.0), seed=0, noisy=False)
        m = rt.run()[app.name]
        assert m.initializations == 1


class TestBatching:
    class BatchPolicy(Policy):
        name = "batcher"

        def __init__(self, batch):
            self.batch = batch

        def on_register(self, app, ctx):
            for fn in app.function_names:
                ctx.set_directive(
                    fn,
                    FunctionDirective(
                        config=HardwareConfig.gpu(0.5),
                        keep_alive=math.inf,
                        batch=self.batch,
                        min_warm=1,
                    ),
                )
                ctx.schedule_warmup(fn, 0.0)

    def test_simultaneous_arrivals_batched(self):
        """Work-conserving batching: the first arrival dispatches on the
        idle instance immediately; the stragglers coalesce into one batch."""
        app = linear_pipeline(1, models=("IR",))
        trace = Trace([30.0, 30.0, 30.0], duration=60.0)
        rec = TraceRecorder()
        rt = Runtime(recorder=rec)
        rt.add_app(app, trace, self.BatchPolicy(batch=4), seed=0)
        m = rt.run()[app.name]
        batches = sorted(inv.stages["f0-IR"].batch for inv in m.invocations)
        assert batches == [1, 2, 2]
        assert m.stage_executions == 3
        expired = [e for e in rec if isinstance(e, InstanceExpired)]
        assert sum(e.batches_served for e in expired) == 2

    def test_batch_limit_respected(self):
        app = linear_pipeline(1, models=("IR",))
        trace = Trace([30.0] * 5, duration=60.0)
        m = run(app, trace, self.BatchPolicy(batch=2))
        assert max(inv.stages["f0-IR"].batch for inv in m.invocations) <= 2


class TestCapacityPressure:
    def test_queueing_when_cluster_full(self):
        """A tiny cluster forces pending launches instead of crashes."""
        app = linear_pipeline(1, models=("IR",))
        cluster = Cluster.build(n_machines=1, cores_per_machine=16)
        trace = Trace(list(np.linspace(10, 11, 8)), duration=60.0)
        rt = Runtime(cluster=cluster)
        rt.add_app(
            app,
            trace,
            OnDemandPolicy(config=HardwareConfig.cpu(16)),
            seed=0,
        )
        m = rt.run()[app.name]
        assert len(m.invocations) + m.unfinished == 8
        # never more than one concurrent 16-core instance on 16 cores
        assert max(p[1] for p in m.pod_samples) <= 1


class TestMetricsPlumbing:
    def test_pod_samples_track_backends(self):
        app = linear_pipeline(1, models=("IR",))
        trace = constant_rate_process(10.0, 60.0, offset=5.0)
        m = run(app, trace, AlwaysOnPolicy(config=HardwareConfig.gpu(0.2)))
        pods = m.pods_over_time()
        assert pods.shape[1] == 3
        assert pods[:, 2].max() >= 1  # gpu pods
        assert pods[:, 1].max() == 0  # no cpu pods

    def test_backend_cost_split(self):
        app = linear_pipeline(1, models=("IR",))
        trace = constant_rate_process(10.0, 60.0, offset=5.0)
        m = run(app, trace, AlwaysOnPolicy(config=HardwareConfig.gpu(0.2)))
        assert m.backend_cost(Backend.GPU) > 0
        assert m.backend_cost(Backend.CPU) == 0

    def test_arrival_samples_sum_to_trace(self):
        app = linear_pipeline(1, models=("IR",))
        trace = constant_rate_process(7.0, 100.0, offset=1.0)
        m = run(app, trace, AlwaysOnPolicy())
        arrivals = m.arrivals_over_time()
        assert arrivals[:, 1].sum() == len(trace)

    def test_violation_ratio_with_sla(self):
        app = linear_pipeline(2, models=("TRS", "TG")).with_sla(0.1)
        trace = constant_rate_process(30.0, 60.0, offset=5.0)
        m = run(app, trace, AlwaysOnPolicy())
        assert m.violation_ratio() == 1.0

    def test_policy_must_set_all_directives(self):
        class Lazy(Policy):
            name = "lazy"

            def on_register(self, app, ctx):
                pass

        app = linear_pipeline(1, models=("IR",))
        with pytest.raises(RuntimeError, match="directive"):
            rt = Runtime()
            rt.add_app(app, Trace([1.0], duration=5.0), Lazy(), seed=0)
            rt.run()
