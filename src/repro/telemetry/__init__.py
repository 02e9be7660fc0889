"""Event-sourced telemetry plane for the simulator.

The simulator's observation path is inverted here: instead of mutating
counters in the hot loop, each :class:`~repro.simulator.gateway.Gateway`
calls its :class:`~repro.telemetry.plane.TelemetryPlane`, which emits
typed :mod:`~repro.telemetry.events` into the runtime's
:class:`~repro.telemetry.recorder.TraceRecorder`, and everything the
evaluation consumes is a *derived view* over the recorded stream:

- :func:`~repro.telemetry.aggregate.aggregate` folds a trace back into a
  :class:`~repro.simulator.metrics.RunMetrics` equal to the live one;
- :func:`~repro.telemetry.chrome.to_chrome_trace` renders per-instance
  spans for Perfetto / ``chrome://tracing``;
- :func:`~repro.telemetry.audit.decision_audit` explains every policy
  directive change with its recorded reason.

The plane is pay-for-what-you-use: a runtime without a recorder builds
no plane, so each hook point is one ``None`` check that builds nothing,
and untraced runs are bit-identical to the pre-telemetry engine.
See ``docs/observability.md`` for the event taxonomy and trace formats.
"""

from repro.telemetry.aggregate import aggregate, aggregate_all
from repro.telemetry.audit import (
    decision_audit,
    fault_audit,
    format_decision_audit,
    prewarm_audit,
)
from repro.telemetry.chrome import to_chrome_trace, write_chrome_trace
from repro.telemetry.events import (
    EVENT_SCHEMA,
    EVENT_TYPES,
    SimEvent,
    from_dict,
    to_dict,
    validate_event,
)
from repro.telemetry.recorder import TraceRecorder, read_jsonl, write_jsonl

__all__ = [
    "SimEvent",
    "EVENT_TYPES",
    "EVENT_SCHEMA",
    "to_dict",
    "from_dict",
    "validate_event",
    "TraceRecorder",
    "write_jsonl",
    "read_jsonl",
    "aggregate",
    "aggregate_all",
    "to_chrome_trace",
    "write_chrome_trace",
    "decision_audit",
    "prewarm_audit",
    "fault_audit",
    "format_decision_audit",
]
