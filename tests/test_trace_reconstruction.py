"""Property tests: metrics are a pure view over the event stream.

The telemetry plane's core contract is that ``aggregate(trace)`` rebuilds
the exact ``RunMetrics`` the live counters produced — float for float —
for any (app, policy) combination, through a JSONL round-trip, and for
multi-tenant runs.  These tests pin that contract, plus the per-runtime
invocation-id guarantee that makes traces comparable across processes
and grid orderings.
"""

import math

import pytest

from repro.experiments import build_environment
from repro.simulator import Deployment, MultiAppSimulator, Runtime
from repro.telemetry import (
    TraceRecorder,
    aggregate,
    aggregate_all,
    decision_audit,
    read_jsonl,
    to_dict,
    validate_event,
)
from repro.telemetry.events import Arrival, DirectiveChanged

PAIRS = [
    ("image-query", "smiless"),
    ("amber-alert", "on-demand"),
    ("voice-assistant", "grandslam"),
    ("image-query", "always-on"),
]


@pytest.fixture(scope="module")
def environments():
    return {
        app: build_environment(app, preset="steady", sla=2.0, duration=80.0, seed=0)
        for app in {a for a, _ in PAIRS}
    }


def assert_metrics_equal(live, rebuilt):
    """Exact equality of every counter and derived view."""
    assert rebuilt.app == live.app
    assert rebuilt.policy == live.policy
    assert rebuilt.sla == live.sla
    assert rebuilt.duration == live.duration
    assert rebuilt.unfinished == live.unfinished
    assert rebuilt.stage_executions == live.stage_executions
    assert rebuilt.cold_stage_executions == live.cold_stage_executions
    assert rebuilt.initializations == live.initializations
    assert rebuilt.failed_initializations == live.failed_initializations
    assert rebuilt.timed_out == live.timed_out
    assert rebuilt.stage_retries == live.stage_retries
    assert rebuilt.failed_executions == live.failed_executions
    assert rebuilt.fallbacks == live.fallbacks
    assert rebuilt.pod_samples == live.pod_samples
    assert rebuilt.arrival_samples == live.arrival_samples
    assert rebuilt.total_cost() == live.total_cost()
    assert rebuilt.billing == live.billing
    assert [i.latency for i in rebuilt.invocations] == [
        i.latency for i in live.invocations
    ]
    a, b = rebuilt.summary(), live.summary()
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], float) and math.isnan(a[key]):
            assert math.isnan(b[key])
        else:
            assert a[key] == b[key], key


@pytest.mark.parametrize("app,policy", PAIRS)
def test_aggregate_reconstructs_live_counters(environments, app, policy):
    env = environments[app]
    rec = TraceRecorder()
    rt = Runtime(recorder=rec)
    rt.add_app(env.app, env.trace, env.make_policy(policy), seed=3)
    live = rt.run()[env.app.name]
    assert len(rec) > 0
    # Every emitted event satisfies the published schema.
    for event in rec:
        assert validate_event(to_dict(event)) == []
    assert_metrics_equal(live, aggregate(rec.events))


def test_aggregate_survives_jsonl_round_trip(environments, tmp_path):
    env = environments["image-query"]
    rec = TraceRecorder()
    rt = Runtime(recorder=rec)
    rt.add_app(env.app, env.trace, env.make_policy("smiless"), seed=3)
    live = rt.run()[env.app.name]
    path = tmp_path / "run.jsonl"
    rec.write_jsonl(path)
    assert_metrics_equal(live, aggregate(read_jsonl(path)))


def test_aggregate_with_init_failures(environments):
    env = environments["image-query"]
    rec = TraceRecorder()
    rt = Runtime(init_failure_rate=0.3, recorder=rec)
    rt.add_app(env.app, env.trace, env.make_policy("on-demand"), seed=3)
    live = rt.run()[env.app.name]
    assert live.failed_initializations > 0
    assert_metrics_equal(live, aggregate(rec.events))


def test_aggregate_with_fault_plan(environments):
    """Reconstruction stays exact when the chaos machinery is active."""
    from repro.faults import (
        ExecutionFault,
        FaultPlan,
        MachineOutage,
        ResilienceSpec,
    )

    env = environments["image-query"]
    plan = FaultPlan(
        outages=(MachineOutage(machine=0, start=20.05, end=30.0),),
        execution_faults=(ExecutionFault(rate=0.2),),
        resilience=ResilienceSpec(max_retries=8, retry_backoff=0.2),
    )
    rec = TraceRecorder()
    rt = Runtime(faults=plan, recorder=rec)
    rt.add_app(env.app, env.trace, env.make_policy("smiless"), seed=3)
    live = rt.run()[env.app.name]
    assert live.stage_retries > 0
    for event in rec:
        assert validate_event(to_dict(event)) == []
    assert_metrics_equal(live, aggregate(rec.events))


def test_aggregate_all_multiapp(environments):
    envs = [environments["image-query"], environments["amber-alert"]]
    rec = TraceRecorder()
    live = MultiAppSimulator(
        [Deployment(e.app, e.trace, e.make_policy("on-demand")) for e in envs],
        seed=3,
        recorder=rec,
    ).run()
    rebuilt = aggregate_all(rec.events)
    assert set(rebuilt) == set(live)
    for name in live:
        assert_metrics_equal(live[name], rebuilt[name])
    # aggregate() on a multi-app trace needs the app made explicit.
    with pytest.raises(ValueError):
        aggregate(rec.events)
    assert_metrics_equal(
        live["image-query"], aggregate(rec.events, app="image-query")
    )


def test_null_recorder_runs_bit_identical(environments):
    env = environments["image-query"]

    def run(recorder=None):
        rt = Runtime(recorder=recorder)
        rt.add_app(env.app, env.trace, env.make_policy("smiless"), seed=3)
        return rt.run()[env.app.name].summary()

    assert run() == run(TraceRecorder())


def test_every_directive_change_has_a_reason(environments):
    """The decision audit must explain every change (acceptance criterion)."""
    for app, policy in PAIRS:
        env = environments[app]
        rec = TraceRecorder()
        rt = Runtime(recorder=rec)
        rt.add_app(env.app, env.trace, env.make_policy(policy), seed=3)
        rt.run()
        changes = decision_audit(rec.events)
        assert changes, f"{policy} issued no directives"
        for change in changes:
            assert isinstance(change, DirectiveChanged)
            assert change.reason.strip(), (
                f"{policy} changed {change.function} without a reason"
            )


def test_invocation_ids_are_per_runtime(environments):
    """Two runs in one process trace identical invocation ids (satellite 1)."""
    env = environments["amber-alert"]

    def arrival_ids():
        rec = TraceRecorder()
        rt = Runtime(recorder=rec)
        rt.add_app(env.app, env.trace, env.make_policy("on-demand"), seed=3)
        rt.run()
        ids = [e.invocation_id for e in rec if isinstance(e, Arrival)]
        return ids

    first, second = arrival_ids(), arrival_ids()
    assert first == second
    assert first[0] == 0  # fresh counter per runtime, not process-global
    assert first == sorted(first)
