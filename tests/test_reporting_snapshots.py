"""Snapshot tests for the plain-text report renderers.

The reports are read by humans and scraped by scripts, so their exact
shape is part of the contract: these tests freeze the current output of
every renderer over a hand-built, fully deterministic
:class:`~repro.simulator.metrics.RunMetrics` — including the zero-traffic
path — so layout drift shows up as a diff, not a surprise.
"""

from textwrap import dedent

from repro.hardware import HardwareConfig
from repro.simulator.invocation import Invocation
from repro.simulator.metrics import InstanceUsage, RunMetrics
from repro.simulator.reporting import (
    format_cost_breakdown,
    format_function_table,
    format_latency_histogram,
    format_report,
)


def usage(fn, cfg, lifetime, init, busy, served):
    return InstanceUsage(
        function=fn,
        config=cfg,
        lifetime=lifetime,
        init_seconds=init,
        busy_seconds=busy,
        idle_seconds=lifetime - init - busy,
        cost=lifetime * cfg.unit_cost,
        batches_served=served,
        invocations_served=served,
    )


def inv(i, arrival, latency):
    v = Invocation(app="demo", arrival=arrival, invocation_id=i)
    v.completed_at = arrival + latency
    return v


def make_metrics() -> RunMetrics:
    m = RunMetrics(app="demo", policy="unit", sla=2.0, duration=100.0)
    for u in (
        usage("A", HardwareConfig.cpu(2), 40.0, 2.0, 10.0, 5),
        usage("A", HardwareConfig.cpu(2), 10.0, 2.0, 2.0, 1),
        usage("B", HardwareConfig.gpu(0.3), 20.0, 4.0, 8.0, 6),
    ):
        m.record_instance(u)
    for i, lat in enumerate((0.5, 1.0, 1.5, 1.5, 2.5, 4.0)):
        m.invocations.append(inv(i, float(i), lat))
        m.record_completion(lat)
    m.unfinished = 1
    m.stage_executions = 12
    m.cold_stage_executions = 3
    m.initializations = 3
    m.failed_initializations = 1
    return m


def test_cost_breakdown_snapshot():
    assert format_cost_breakdown(make_metrics()) == dedent(
        """\
        total cost $0.0060
          init       $0.0011 (18%)
          inference  $0.0023 (37%)
          keepalive  $0.0027 (44%)"""
    )


def test_function_table_snapshot():
    assert format_function_table(make_metrics()) == dedent(
        """\
        function       instances    billed      cost  served
        A                      2     50.0s $  0.0009       6
        B                      1     20.0s $  0.0051       6"""
    )


def test_latency_histogram_snapshot():
    out = format_latency_histogram(make_metrics(), bins=4, width=10)
    assert out == "\n".join(
        [
            "  0.00- 1.01s |##########|    2",
            "  1.01- 2.02s |##########|    2 <- SLA",
            "  2.02- 3.03s |#####     |    1",
            "  3.03- 4.04s |#####     |    1",
        ]
    )


def test_latency_histogram_no_traffic():
    empty = RunMetrics(app="idle", policy="unit", sla=2.0)
    assert format_latency_histogram(empty) == "(no completed invocations)"


def test_full_report_snapshot():
    assert format_report(make_metrics()) == dedent(
        """\
        run report — app=demo policy=unit sla=2.0s duration=100s
        invocations: 6 completed, 1 unfinished, 0 timed out
        violations 42.9%, availability 85.7%, goodput 57.1%
        latency: mean 1.83s p50 1.50s p99 3.93s

        total cost $0.0060
          init       $0.0011 (18%)
          inference  $0.0023 (37%)
          keepalive  $0.0027 (44%)

        function       instances    billed      cost  served
        A                      2     50.0s $  0.0009       6
        B                      1     20.0s $  0.0051       6

          0.00- 0.40s |                                        |    0
          0.40- 0.81s |####################                    |    1
          0.81- 1.21s |####################                    |    1
          1.21- 1.62s |########################################|    2
          1.62- 2.02s |                                        |    0 <- SLA
          2.02- 2.42s |                                        |    0
          2.42- 2.83s |####################                    |    1
          2.83- 3.23s |                                        |    0
          3.23- 3.64s |                                        |    0
          3.64- 4.04s |####################                    |    1

        (re)initializations: 3 (25.0% of stage executions cold, 1 failed)"""
    )


def test_full_report_faults_footer_snapshot():
    """Runs that absorbed faults grow one extra summary section."""
    m = make_metrics()
    m.timed_out = 2
    m.stage_retries = 4
    m.failed_executions = 3
    m.fallbacks = 1
    report = format_report(m)
    assert report.startswith(
        dedent(
            """\
            run report — app=demo policy=unit sla=2.0s duration=100s
            invocations: 6 completed, 1 unfinished, 2 timed out
            violations 55.6%, availability 66.7%, goodput 44.4%"""
        )
    )
    assert report.endswith(
        "faults absorbed: 4 stage retries, 3 failed executions, 1 fallbacks"
    )


def test_full_report_zero_traffic_snapshot():
    empty = RunMetrics(app="idle", policy="unit", sla=2.0, duration=50.0)
    assert format_report(empty) == dedent(
        """\
        run report — app=idle policy=unit (no traffic)

        total cost $0.0000
          init       $0.0000 (0%)
          inference  $0.0000 (0%)
          keepalive  $0.0000 (0%)

        function       instances    billed      cost  served

        (no completed invocations)

        (re)initializations: 0 (0.0% of stage executions cold)"""
    )
