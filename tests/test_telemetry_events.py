"""Unit tests for the telemetry plane: events, recorders, exports, audits."""

import json
import math
from dataclasses import fields

import pytest

from repro.telemetry import (
    EVENT_SCHEMA,
    EVENT_TYPES,
    TraceRecorder,
    decision_audit,
    format_decision_audit,
    from_dict,
    prewarm_audit,
    read_jsonl,
    to_chrome_trace,
    to_dict,
    validate_event,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.events import (
    CLUSTER_SCOPE,
    Arrival,
    DirectiveChanged,
    ExecutionFailed,
    FallbackActivated,
    InstanceExpired,
    InstanceLaunched,
    InvocationTimedOut,
    MachineDown,
    MachineUp,
    PrewarmScheduled,
    RunStarted,
    SimEvent,
    SlaViolation,
    StageFinish,
    StageRetried,
    StageStart,
    WindowTick,
)

#: One concrete instance of every registered event type, for round-trips.
SAMPLES = {
    "run_started": RunStarted(
        t=0.0, app="a", policy="p", sla=2.0, window=1.0, functions=("f", "g")
    ),
    "run_finished": EVENT_TYPES["run_finished"](
        t=9.0, app="a", duration=9.0, unfinished=1
    ),
    "arrival": Arrival(t=1.0, app="a", invocation_id=7),
    "stage_ready": EVENT_TYPES["stage_ready"](
        t=1.0, app="a", invocation_id=7, function="f"
    ),
    "stage_start": StageStart(
        t=1.5, app="a", invocation_id=7, function="f", instance_id=3,
        batch=2, cold=True,
    ),
    "stage_finish": StageFinish(
        t=2.5, app="a", invocation_id=7, function="f", instance_id=3
    ),
    "cold_start": EVENT_TYPES["cold_start"](
        t=1.5, app="a", invocation_id=7, function="f", instance_id=3, wait=0.5
    ),
    "invocation_finished": EVENT_TYPES["invocation_finished"](
        t=3.0, app="a", invocation_id=7, latency=2.0
    ),
    "sla_violation": SlaViolation(
        t=3.0, app="a", invocation_id=7, latency=2.5, sla=2.0
    ),
    "instance_launched": InstanceLaunched(
        t=0.5, app="a", function="f", instance_id=3, config="cpu-4",
        init_duration=1.5, prewarm=False,
    ),
    "instance_init_failed": EVENT_TYPES["instance_init_failed"](
        t=2.0, app="a", function="f", instance_id=4
    ),
    "instance_expired": InstanceExpired(
        t=8.0, app="a", function="f", instance_id=3, config="cpu-4",
        reason="keep-alive-expired", lifetime=7.5, init_seconds=1.5,
        busy_seconds=2.0, idle_seconds=4.0, cost=0.01, batches_served=2,
        invocations_served=3,
    ),
    "directive_changed": DirectiveChanged(
        t=0.0, app="a", function="f", config="gpu-30", keep_alive=math.inf,
        batch=4, min_warm=1, warm_grace=6.0, reason="unit test",
    ),
    "prewarm_scheduled": PrewarmScheduled(
        t=4.0, app="a", function="f", fire_at=6.0, count=1, config="cpu-4"
    ),
    "prewarm_hit": EVENT_TYPES["prewarm_hit"](
        t=6.5, app="a", function="f", instance_id=5, idle_wait=0.3
    ),
    "prewarm_miss": EVENT_TYPES["prewarm_miss"](
        t=9.0, app="a", function="f", instance_id=6, idle_seconds=2.0
    ),
    "window_tick": WindowTick(
        t=1.0, app="a", window_index=0, arrivals=3, cpu_pods=2, gpu_pods=1
    ),
    "machine_down": MachineDown(t=5.0, app=CLUSTER_SCOPE, machine=2),
    "machine_up": MachineUp(t=7.0, app=CLUSTER_SCOPE, machine=2),
    "execution_failed": ExecutionFailed(
        t=5.1, app="a", function="f", instance_id=3, batch=2
    ),
    "stage_retried": StageRetried(
        t=5.1, app="a", invocation_id=7, function="f", attempt=1, delay=0.5
    ),
    "invocation_timed_out": InvocationTimedOut(
        t=6.0, app="a", invocation_id=7, reason="deadline", age=5.0
    ),
    "fallback_activated": FallbackActivated(
        t=6.5, app="a", function="f", from_config="gpu-30",
        to_config="cpu-16", reason="gpu-starvation",
    ),
    "instance_swapped_in": EVENT_TYPES["instance_swapped_in"](
        t=4.2, app="a", function="f", instance_id=8, config="gpu-30",
        swap_duration=1.2,
    ),
    "model_evicted": EVENT_TYPES["model_evicted"](t=4.2, app="a", function="g"),
    "invocation_shed": EVENT_TYPES["invocation_shed"](
        t=6.2, app="a", invocation_id=7, function="f",
        reason="deadline-aware", age=1.5,
    ),
    "invocation_rejected": EVENT_TYPES["invocation_rejected"](
        t=6.3, app="a", invocation_id=8
    ),
    "token_stage": EVENT_TYPES["token_stage"](
        t=1.5, app="a", invocation_id=7, function="f", tokens_in=256,
        tokens_out=128, prefill=0.4, decode=1.1,
    ),
}


def test_registry_covers_every_sample_and_vice_versa():
    assert set(SAMPLES) == set(EVENT_TYPES) == set(EVENT_SCHEMA)


@pytest.mark.parametrize("tag", sorted(SAMPLES))
def test_round_trip_through_json(tag):
    event = SAMPLES[tag]
    d = to_dict(event)
    assert d["type"] == tag
    assert validate_event(d) == []
    # inf survives python json (non-strict); strict output is chrome's job
    revived = from_dict(json.loads(json.dumps(d)))
    assert revived == event
    assert type(revived) is type(event)


def test_duplicate_type_tag_rejected():
    with pytest.raises(TypeError, match="duplicate"):

        class Dup(SimEvent):  # noqa: F811 - intentionally clashing
            type = "arrival"

    with pytest.raises(TypeError, match="type"):

        class Untagged(SimEvent):
            pass


def test_validate_event_catches_problems():
    assert validate_event({"type": "nope"}) == ["unknown event type 'nope'"]
    good = to_dict(SAMPLES["arrival"])
    missing = dict(good)
    del missing["invocation_id"]
    assert any("missing" in p for p in validate_event(missing))
    extra = dict(good, bogus=1)
    assert any("unexpected" in p for p in validate_event(extra))
    wrong = dict(good, invocation_id="seven")
    assert any("invocation_id" in p for p in validate_event(wrong))
    # bool must not satisfy an int field
    boolish = dict(good, invocation_id=True)
    assert any("bool not allowed" in p for p in validate_event(boolish))


def test_every_field_has_a_schema_entry():
    for tag, cls in EVENT_TYPES.items():
        assert set(EVENT_SCHEMA[tag]) == {f.name for f in fields(cls)}


# ------------------------------------------------------------------ recorders
def test_trace_recorder_collects_and_filters():
    rec = TraceRecorder()
    rec.emit(SAMPLES["arrival"])
    rec.emit(Arrival(t=2.0, app="b", invocation_id=0))
    assert len(rec) == 2
    assert list(rec) == rec.events


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    events = [SAMPLES[tag] for tag in sorted(SAMPLES)]
    assert write_jsonl(events, path) == len(events)
    assert read_jsonl(path) == events


def test_read_jsonl_reports_bad_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type":"arrival","t":0.0,"app":"a","invocation_id":1}\nnot json\n')
    with pytest.raises(ValueError, match="bad.jsonl:2"):
        read_jsonl(path)


# ------------------------------------------------------------------ chrome
def test_chrome_trace_structure_and_strict_json(tmp_path):
    events = [
        SAMPLES["run_started"],
        SAMPLES["instance_launched"],
        SAMPLES["directive_changed"],  # keep_alive = inf
        SAMPLES["stage_start"],
        SAMPLES["stage_finish"],
        SAMPLES["window_tick"],
        SAMPLES["instance_expired"],
    ]
    doc = to_chrome_trace(events)
    phases = {e["ph"] for e in doc["traceEvents"]}
    assert {"X", "i", "C", "M"} <= phases
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    # init span + lifetime span + one exec span
    assert len(spans) == 3
    assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in spans)
    # inf keep-alive must still serialize as strict JSON
    path = tmp_path / "chrome.json"
    write_chrome_trace(events, path)
    loaded = json.loads(path.read_text(), parse_constant=lambda _: pytest.fail(
        "non-strict JSON constant in chrome trace"
    ))
    assert loaded["traceEvents"]


# ------------------------------------------------------------------ audits
def test_decision_audit_lists_changes_with_reasons():
    events = [SAMPLES["run_started"], SAMPLES["directive_changed"]]
    audit = decision_audit(events)
    assert [d.reason for d in audit] == ["unit test"]
    text = format_decision_audit(events)
    assert "unit test" in text and "gpu-30" in text and "inf" in text


def test_decision_audit_empty():
    assert "no directive changes" in format_decision_audit([])


def test_fault_audit_covers_fault_lifecycle():
    from repro.telemetry import fault_audit

    events = [
        SAMPLES["run_started"],
        SAMPLES["machine_down"],
        SAMPLES["instance_init_failed"],
        SAMPLES["execution_failed"],
        SAMPLES["stage_retried"],
        SAMPLES["invocation_timed_out"],
        SAMPLES["fallback_activated"],
        SAMPLES["machine_up"],
        SAMPLES["arrival"],
    ]
    tags = [e.type for e in fault_audit(events)]
    assert tags == [
        "machine_down",
        "instance_init_failed",
        "execution_failed",
        "stage_retried",
        "invocation_timed_out",
        "fallback_activated",
        "machine_up",
    ]


def test_chrome_trace_renders_fault_events(tmp_path):
    events = [
        SAMPLES["run_started"],
        SAMPLES["machine_down"],
        SAMPLES["execution_failed"],
        SAMPLES["stage_retried"],
        SAMPLES["invocation_timed_out"],
        SAMPLES["fallback_activated"],
        SAMPLES["machine_up"],
    ]
    doc = to_chrome_trace(events)
    names = [e["args"]["name"] for e in doc["traceEvents"] if e["name"] == "process_name"]
    assert "cluster" in names and CLUSTER_SCOPE not in names
    instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    cats = {e["cat"] for e in instants}
    assert {"cluster", "fault", "policy"} <= cats
    # Strict JSON round trip still holds with the fault instants present.
    path = tmp_path / "chaos.json"
    write_chrome_trace(events, path)
    assert json.loads(path.read_text())["traceEvents"]


def test_prewarm_audit_covers_lifecycle():
    events = [
        SAMPLES["run_started"],
        SAMPLES["prewarm_scheduled"],
        SAMPLES["prewarm_hit"],
        SAMPLES["prewarm_miss"],
        SAMPLES["arrival"],
    ]
    tags = [e.type for e in prewarm_audit(events)]
    assert tags == ["prewarm_scheduled", "prewarm_hit", "prewarm_miss"]
