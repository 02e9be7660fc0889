"""Where the simulator's event stream goes.

The :class:`~repro.simulator.runtime.Runtime` holds at most one recorder,
and every gateway's :class:`~repro.telemetry.plane.TelemetryPlane` emits
through it.  ``Runtime(recorder=None)``, the default, means "no trace":
no plane is built, so the gateway builds no event object and simulated
outcomes are bit-identical to a traced run's.

:class:`TraceRecorder` appends every event to an in-memory list and can
persist it as JSONL (one event dict per line), the interchange format
``repro trace`` writes, :func:`read_jsonl` loads, and CI validates
against :data:`repro.telemetry.events.EVENT_SCHEMA`.

A recorder is deliberately dumb: no filtering, no aggregation.  Derived
views (metrics, Chrome traces, decision audits) consume the recorded
stream after the run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator

from repro.telemetry.events import SimEvent, from_dict, to_dict

__all__ = [
    "TraceRecorder",
    "write_jsonl",
    "read_jsonl",
]


class TraceRecorder:
    """In-memory event recorder with JSONL persistence.

    ``emit`` runs inside the event loop, so it only appends (no I/O on
    the hot path).
    """

    def __init__(self) -> None:
        self.events: list[SimEvent] = []

    def emit(self, event: SimEvent) -> None:
        """Append one event to the in-memory trace."""
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[SimEvent]:
        return iter(self.events)

    def write_jsonl(self, path: str | Path) -> int:
        """Persist the trace as JSONL; returns the number of events."""
        return write_jsonl(self.events, path)


def write_jsonl(events: Iterable[SimEvent], path: str | Path) -> int:
    """Write events to ``path``, one JSON object per line."""
    n = 0
    with Path(path).open("w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(to_dict(event), separators=(",", ":")))
            fh.write("\n")
            n += 1
    return n


def read_jsonl(path: str | Path) -> list[SimEvent]:
    """Load a JSONL trace back into typed events."""
    events: list[SimEvent] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(from_dict(json.loads(line)))
            except (json.JSONDecodeError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad event line: {exc}") from exc
    return events
