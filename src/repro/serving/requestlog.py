"""JSONL request-log persistence for the live serving façade.

A request log is the serving plane's durable record of one live session,
written as one JSON object per line so it can be tailed, grepped and
truncated safely:

- ``{"kind": "header", ...}`` — first line: the full recipe needed to
  rebuild the session offline (environment specs, policy, seeds, overload
  spec, horizon, pacing mode).
- ``{"kind": "request", ...}`` — one line per front-door request in stamp
  order: the application, the simulated arrival time assigned by the
  driver, and the client-supplied tenant label.  *Every* request is
  recorded — including ones the token bucket later rejects — because the
  bucket is a pure function of the arrival timestamps: replaying the full
  stamp sequence reproduces the identical 429 decisions.
- ``{"kind": "response", ...}`` — one line per resolved request: terminal
  status, invocation id, latency and the request-level audit fields.
- ``{"kind": "summary", ...}`` — final line: per-app ``RunMetrics``
  summaries and counters from the live run, letting ``repro serve
  --replay`` verify bit-identical reproduction without the original
  process.

:func:`read_request_log` parses a log back into a :class:`ParsedLog`,
the one reader of the format; offline replay
(:mod:`repro.serving.replay`) builds each app's trace from its
:meth:`ParsedLog.request_times`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, IO

__all__ = [
    "LOG_VERSION",
    "ParsedLog",
    "RequestLogWriter",
    "read_request_log",
]

#: Format version stamped into every header line.
LOG_VERSION = 1


class RequestLogWriter:
    """Append-only JSONL writer for one live serving session."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh: IO[str] | None = self.path.open("w", encoding="utf-8")

    def _write(self, record: dict[str, Any]) -> None:
        if self._fh is None:
            raise ValueError(f"request log {self.path} is already closed")
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")

    def header(self, payload: dict[str, Any]) -> None:
        """Write the session-recipe header (must be the first record)."""
        self._write({"kind": "header", "version": LOG_VERSION, **payload})
        self._fh.flush()

    def request(self, payload: dict[str, Any]) -> None:
        """Record one front-door request (accepted *or* later rejected)."""
        self._write({"kind": "request", **payload})

    def response(self, payload: dict[str, Any]) -> None:
        """Record one resolved request (terminal status + audit fields)."""
        self._write({"kind": "response", **payload})

    def summary(self, payload: dict[str, Any]) -> None:
        """Write the final per-app metrics footer and flush."""
        self._write({"kind": "summary", **payload})
        self._fh.flush()

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


@dataclass
class ParsedLog:
    """A request log parsed back into its typed record streams."""

    header: dict[str, Any]
    requests: list[dict[str, Any]] = field(default_factory=list)
    responses: list[dict[str, Any]] = field(default_factory=list)
    summary: dict[str, Any] | None = None

    @property
    def apps(self) -> list[str]:
        """Application names hosted by the recorded session."""
        return [env["app"] for env in self.header["envs"]]

    def request_times(self, app: str) -> list[float]:
        """Arrival stamps for one app, in recorded (= sorted) order."""
        return [
            float(r["t"]) for r in self.requests if r["app"] == app
        ]


def read_request_log(path: str | Path) -> ParsedLog:
    """Parse a JSONL request log; validates the header line."""
    parsed: ParsedLog | None = None
    with Path(path).open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.pop("kind", None)
            if parsed is None:
                if kind != "header":
                    raise ValueError(
                        f"{path}:{lineno}: expected a header record first, "
                        f"got kind={kind!r}"
                    )
                version = record.get("version")
                if version != LOG_VERSION:
                    raise ValueError(
                        f"{path}: unsupported request-log version {version!r} "
                        f"(expected {LOG_VERSION})"
                    )
                parsed = ParsedLog(header=record)
            elif kind == "request":
                parsed.requests.append(record)
            elif kind == "response":
                parsed.responses.append(record)
            elif kind == "summary":
                parsed.summary = record
            else:
                raise ValueError(
                    f"{path}:{lineno}: unknown record kind {kind!r}"
                )
    if parsed is None:
        raise ValueError(f"{path}: empty request log")
    return parsed
