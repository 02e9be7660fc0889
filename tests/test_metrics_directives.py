"""Focused tests for RunMetrics accounting and FunctionDirective validation."""

import itertools
import math

import numpy as np
import pytest

from repro.hardware import Backend, HardwareConfig
from repro.simulator import FunctionDirective, Instance, Placement
from repro.simulator.invocation import Invocation, StageRecord
from repro.simulator.metrics import InstanceUsage, RunMetrics


def make_usage(function="f", config=None, lifetime=10.0, busy=2.0, init=1.0):
    cfg = config or HardwareConfig.cpu(2)
    return InstanceUsage(
        function=function,
        config=cfg,
        lifetime=lifetime,
        init_seconds=init,
        busy_seconds=busy,
        idle_seconds=lifetime - busy - init,
        cost=lifetime * cfg.unit_cost,
        batches_served=1,
        invocations_served=2,
    )


_ids = itertools.count()


def make_invocation(arrival=0.0, latency=1.0):
    inv = Invocation(app="a", arrival=arrival, invocation_id=next(_ids))
    inv.completed_at = arrival + latency
    return inv


class TestRunMetricsAccounting:
    def test_total_and_backend_costs(self):
        m = RunMetrics(app="a", policy="p", sla=2.0)
        usages = [
            make_usage(config=HardwareConfig.cpu(2)),
            make_usage(config=HardwareConfig.gpu(0.2)),
        ]
        for usage in usages:
            m.record_instance(usage)
        assert m.total_cost() == pytest.approx(sum(u.cost for u in usages))
        assert m.backend_cost(Backend.CPU) == pytest.approx(usages[0].cost)
        assert m.backend_cost(Backend.GPU) == pytest.approx(usages[1].cost)

    def test_cpu_gpu_ratio_without_gpu(self):
        m = RunMetrics(app="a", policy="p", sla=2.0)
        m.record_instance(make_usage())
        assert m.backend_cost(Backend.CPU) > 0
        assert m.backend_cost(Backend.GPU) == 0.0

    def test_cost_breakdown_sums_to_total(self):
        m = RunMetrics(app="a", policy="p", sla=2.0)
        m.record_instance(make_usage())
        m.record_instance(make_usage(lifetime=5.0, busy=1.0, init=0.5))
        parts = m.cost_breakdown()
        assert sum(parts.values()) == pytest.approx(m.total_cost())

    def test_violation_ratio_counts_unfinished(self):
        m = RunMetrics(app="a", policy="p", sla=2.0)
        for latency in (1.0, 3.0):
            m.record_completion(latency)
        m.unfinished = 2
        # 1 violating completed + 2 unfinished over 4 total
        assert m.violation_ratio() == pytest.approx(3 / 4)

    def test_violation_ratio_empty(self):
        assert RunMetrics(app="a", policy="p", sla=2.0).violation_ratio() == 0.0

    def test_latency_percentile(self):
        m = RunMetrics(app="a", policy="p", sla=2.0)
        m.invocations = [make_invocation(latency=v) for v in (1.0, 2.0, 3.0)]
        assert m.latency_percentile(50) == pytest.approx(2.0)

    def test_latency_percentile_empty_is_nan(self):
        # Zero-traffic runs are legitimate: percentile matches summary()'s
        # NaN convention instead of raising.
        empty = RunMetrics(app="a", policy="p", sla=2.0)
        assert math.isnan(empty.latency_percentile(50))
        assert math.isnan(empty.summary()["p50_latency"])

    def test_reinit_fraction_and_per_invocation(self):
        m = RunMetrics(app="a", policy="p", sla=2.0)
        m.stage_executions = 10
        m.cold_stage_executions = 3
        m.initializations = 6
        for _ in range(3):
            m.record_completion(1.0)
        assert m.reinit_fraction() == pytest.approx(0.3)
        assert m.initializations == 6 and m.completed_count == 3

    def test_reinit_fraction_no_executions(self):
        assert RunMetrics(app="a", policy="p", sla=2.0).reinit_fraction() == 0.0

    def test_pod_and_arrival_arrays(self):
        m = RunMetrics(app="a", policy="p", sla=2.0)
        m.pod_samples = [(1.0, 2, 1), (2.0, 3, 0)]
        m.arrival_samples = [(1.0, 4), (2.0, 0)]
        pods = m.pods_over_time()
        assert pods.shape == (2, 3)
        arrivals = m.arrivals_over_time()
        assert arrivals[:, 1].sum() == 4

    def test_empty_pod_arrays_have_shape(self):
        m = RunMetrics(app="a", policy="p", sla=2.0)
        assert m.pods_over_time().shape == (0, 3)
        assert m.arrivals_over_time().shape == (0, 2)

    def test_summary_keys(self):
        m = RunMetrics(app="a", policy="p", sla=2.0)
        m.invocations = [make_invocation()]
        s = m.summary()
        for key in (
            "total_cost",
            "violation_ratio",
            "invocations",
            "mean_latency",
            "p99_latency",
            "reinit_fraction",
            "cpu_cost",
            "gpu_cost",
        ):
            assert key in s

    def test_summary_without_latencies_is_nan(self):
        s = RunMetrics(app="a", policy="p", sla=2.0).summary()
        assert np.isnan(s["mean_latency"])


class TestInstanceUsageSnapshot:
    def test_from_instance(self):
        cfg = HardwareConfig.cpu(4)
        inst = Instance(
            function="f",
            config=cfg,
            placement=Placement(0, cfg),
            launched_at=0.0,
            init_duration=2.0,
        )
        inst.mark_warm(2.0)
        inst.mark_busy(3.0, 2)
        inst.mark_idle(5.0, 2.0)
        usage = InstanceUsage.from_instance(inst, now=10.0)
        assert usage.lifetime == pytest.approx(10.0)
        assert usage.init_seconds == pytest.approx(2.0)
        assert usage.busy_seconds == pytest.approx(2.0)
        assert usage.idle_seconds == pytest.approx(6.0)
        assert usage.invocations_served == 2


class TestFunctionDirectiveValidation:
    def test_valid_defaults(self):
        d = FunctionDirective(config=HardwareConfig.cpu(1))
        assert d.keep_alive == 0.0
        assert d.batch == 1
        assert d.min_warm == 0
        assert d.warm_grace > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"keep_alive": -1.0},
            {"batch": 0},
            {"min_warm": -1},
            {"warm_grace": -0.1},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            FunctionDirective(config=HardwareConfig.cpu(1), **kwargs)


class TestInvocationRecords:
    def test_stage_created_on_access(self):
        inv = Invocation(app="a", arrival=1.0, invocation_id=0)
        rec = inv.stage("x")
        assert isinstance(rec, StageRecord)
        assert inv.stage("x") is rec

    def test_latency_requires_completion(self):
        inv = Invocation(app="a", arrival=1.0, invocation_id=0)
        assert not inv.finished
        with pytest.raises(ValueError):
            _ = inv.latency
        inv.completed_at = 3.5
        assert inv.latency == pytest.approx(2.5)

    def test_queue_wait(self):
        rec = StageRecord(function="x", ready_at=1.0, started_at=2.5)
        assert rec.queue_wait == pytest.approx(1.5)
        assert StageRecord(function="x").queue_wait == 0.0

    def test_explicit_ids(self):
        a = Invocation(app="a", arrival=0.0, invocation_id=0)
        b = Invocation(app="a", arrival=0.0, invocation_id=1)
        assert a.invocation_id != b.invocation_id
