"""Asyncio HTTP front door for the live serving façade.

A deliberately minimal HTTP/1.1 layer over ``asyncio.start_server`` — no
third-party dependencies — exposing the simulated runtime as a traffic
target:

- ``POST /invoke/<app>`` — inject one invocation; the response returns
  when the *simulated* invocation reaches a terminal disposition:
  ``200`` completed (per-stage timing in the body), ``429`` rejected by
  token-bucket admission (with ``Retry-After``), ``503`` shed under
  overload or past the session horizon, ``504`` simulated timeout or
  unfinished at shutdown.
- ``GET /healthz`` — liveness plus the simulated clock.
- ``GET /stats`` — live per-app counters (open, completed, rejected…).
- ``POST /control/stop`` — finalize the session (drain + seal metrics,
  write the request-log footer) and return the final summaries.

The single pump task owns the simulation: connection handlers only queue
requests and await their tickets, so the event heap is never touched
concurrently.  Everything below runs in one thread on one event loop.
"""

from __future__ import annotations

import asyncio
import json
import math
from collections import deque
from typing import TYPE_CHECKING, Any

from repro.serving.driver import HorizonPassed, SimDriver, Ticket
from repro.serving.pacing import TimeWarpPacer, WallClockPacer
from repro.serving.requestlog import RequestLogWriter

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.simulator.metrics import RunMetrics

__all__ = ["LiveServer"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: HTTP status for each terminal ticket disposition.
_STATUS_CODES = {
    "completed": 200,
    "rejected": 429,
    "shed": 503,
    "timed_out": 504,
    "unfinished": 504,
}

#: Seconds the idle pump waits for a new request before re-checking for
#: due simulation work.
_IDLE_POLL = 0.02


class LiveServer:
    """One live serving session: HTTP front door + simulation pump."""

    def __init__(
        self,
        driver: SimDriver,
        pacer: TimeWarpPacer | WallClockPacer,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        log: RequestLogWriter | None = None,
        max_requests: int | None = None,
    ) -> None:
        self.driver = driver
        self.pacer = pacer
        self.host = host
        self._requested_port = port
        self.log = log
        self.max_requests = max_requests
        self._inbox: deque[tuple[str, str | None, asyncio.Future]] = deque()
        self._wake = asyncio.Event()
        self._done = asyncio.Event()
        self._drained = asyncio.Event()
        self._drained.set()
        self._active_conns = 0
        self._stop_requested = False
        self._finalized = False
        self._server: asyncio.AbstractServer | None = None
        self._pump_task: asyncio.Task | None = None
        self.metrics: "dict[str, RunMetrics] | None" = None

    # ------------------------------------------------------------- lifecycle
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the kernel's choice)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind the socket, start the driver and the pump task."""
        if not self.driver._started:
            self.driver.start()
        self.pacer.start()
        if self.log is not None:
            self.log.header(
                self.driver.header_payload(
                    pacing=self.pacer.mode,
                    time_scale=self.pacer.time_scale,
                )
            )
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self._requested_port
        )
        self._pump_task = asyncio.create_task(self._pump())

    def request_stop(self) -> None:
        """Ask the pump to drain and finalize (idempotent, signal-safe)."""
        self._stop_requested = True
        self._wake.set()

    async def run(self) -> "dict[str, RunMetrics]":
        """Serve until stopped; returns the finalized per-app metrics."""
        await self._done.wait()
        if self._pump_task is not None:
            await self._pump_task
        await self._shutdown()
        assert self.metrics is not None
        return self.metrics

    async def stop(self) -> "dict[str, RunMetrics]":
        """Programmatic stop: request, drain, shut down, return metrics."""
        self.request_stop()
        return await self.run()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            await asyncio.wait_for(self._drained.wait(), timeout=5.0)
        except asyncio.TimeoutError:  # pragma: no cover - defensive
            pass

    # ------------------------------------------------------------------ pump
    def _advance(self) -> int:
        if isinstance(self.pacer, WallClockPacer):
            return self.driver.advance_to(
                self.pacer.sim_target(self.driver.horizon)
            )
        return self.driver.advance_while_busy()

    def _should_stop(self) -> bool:
        if self._inbox:
            return False
        if self._stop_requested:
            # Drain only what the serve phase can still advance; work
            # straddling the horizon is finish()'s to resolve.
            return True
        if self.driver.actionable_work():
            return False
        if self.driver.pending_work():
            # Horizon saturation: open invocations whose remaining
            # events all lie past the horizon.  The serve phase can
            # never resolve them, so the session is over — finish()'s
            # drain window delivers their terminal responses.
            return True
        if (
            self.max_requests is not None
            and len(self.driver.tickets) >= self.max_requests
        ):
            return True
        if (
            isinstance(self.pacer, WallClockPacer)
            and self.pacer.sim_now() >= self.driver.horizon
        ):
            # A wall-clock session naturally ends at its horizon.
            return True
        return False

    async def _pump(self) -> None:
        driver = self.driver
        try:
            while True:
                progressed = False
                while self._inbox:
                    app, tenant, future = self._inbox.popleft()
                    self._inject(app, tenant, future)
                    progressed = True
                progressed |= self._advance() > 0
                if self._should_stop():
                    break
                if progressed:
                    await asyncio.sleep(0)
                else:
                    self._wake.clear()
                    try:
                        await asyncio.wait_for(
                            self._wake.wait(), timeout=_IDLE_POLL
                        )
                    except asyncio.TimeoutError:
                        pass
        finally:
            self._finalize()
            self._done.set()

    def _inject(
        self, app: str, tenant: str | None, future: asyncio.Future
    ) -> None:
        try:
            ticket = self.driver.submit(
                app,
                tenant=tenant,
                on_done=lambda t, fut=future: self._resolve(fut, t),
            )
        except HorizonPassed as exc:
            if not future.done():
                future.set_result((503, {"error": str(exc)}, {}))
            return
        if self.log is not None:
            self.log.request(
                {
                    "index": ticket.index,
                    "app": ticket.app,
                    "t": ticket.t,
                    "tenant": ticket.tenant,
                }
            )

    def _resolve(self, future: asyncio.Future, ticket: Ticket) -> None:
        status_code = _STATUS_CODES[ticket.status]
        payload = self._ticket_payload(ticket)
        headers: dict[str, str] = {}
        if ticket.status == "rejected":
            retry_sim = self.driver.retry_after(ticket.app)
            scale = self.pacer.time_scale
            retry_wall = retry_sim / scale if scale else retry_sim
            payload["retry_after"] = retry_wall
            headers["Retry-After"] = str(max(0, math.ceil(retry_wall)))
        if self.log is not None:
            self.log.response(payload)
        if not future.done():
            future.set_result((status_code, payload, headers))

    def _ticket_payload(self, ticket: Ticket) -> dict[str, Any]:
        """Request-level audit fields shared by responses and the log."""
        inv = ticket.inv
        payload: dict[str, Any] = {
            "index": ticket.index,
            "app": ticket.app,
            "status": ticket.status,
            "invocation_id": ticket.invocation_id,
            "tenant": ticket.tenant,
            "arrival": ticket.t,
            "resolved_at": ticket.resolved_at,
        }
        if inv is not None and ticket.status == "completed":
            sla = self.driver.gateways[ticket.app].app.sla
            latency = inv.completed_at - inv.arrival
            payload.update(
                {
                    "completed_at": inv.completed_at,
                    "latency": latency,
                    "sla": sla,
                    "sla_violated": latency > sla + 1e-9,
                    "stages": {
                        name: {
                            "ready_at": stage.ready_at,
                            "started_at": stage.started_at,
                            "finished_at": stage.finished_at,
                            "queue_wait": stage.queue_wait,
                            "cold_start": stage.cold_start,
                            "batch": stage.batch,
                            "instance_id": stage.instance_id,
                        }
                        for name, stage in inv.stages.items()
                    },
                }
            )
        return payload

    def _finalize(self) -> None:
        if self._finalized:
            return
        self._finalized = True
        # finish() resolves leftover tickets first (their response
        # records land in the log), then the footer seals the file.
        self.metrics = self.driver.finish()
        for app, tenant, future in self._inbox:
            if not future.done():
                future.set_result(
                    (503, {"error": "session is shutting down"}, {})
                )
        self._inbox.clear()
        if self.log is not None:
            self.log.summary(self.driver.summary_payload())
            self.log.close()

    # ------------------------------------------------------------- dispatch
    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        if path.startswith("/invoke/"):
            if method != "POST":
                return 405, {"error": "POST required"}, {}
            return await self._invoke(path[len("/invoke/"):], body)
        if path == "/healthz":
            return 200, {
                "status": "ok",
                "sim_now": self.driver.now,
                "pacing": self.pacer.mode,
                "apps": sorted(self.driver.gateways),
            }, {}
        if path == "/stats":
            return 200, self.driver.stats(), {}
        if path == "/control/stop":
            if method != "POST":
                return 405, {"error": "POST required"}, {}
            self.request_stop()
            await self._done.wait()
            return 200, {
                "stopped": True,
                "summary": self.driver.summary_payload(),
            }, {}
        return 404, {"error": f"unknown path {path!r}"}, {}

    async def _invoke(
        self, app: str, body: bytes
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        if app not in self.driver.gateways:
            return 404, {
                "error": f"unknown application {app!r}",
                "apps": sorted(self.driver.gateways),
            }, {}
        if self._stop_requested or self._finalized:
            return 503, {"error": "session is shutting down"}, {}
        if (
            self.max_requests is not None
            and len(self.driver.tickets) + len(self._inbox)
            >= self.max_requests
        ):
            return 503, {"error": "session request limit reached"}, {}
        tenant: str | None = None
        if body:
            try:
                parsed = json.loads(body)
                if isinstance(parsed, dict):
                    tenant = parsed.get("tenant")
            except json.JSONDecodeError:
                return 400, {"error": "body must be JSON"}, {}
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inbox.append((app, tenant, future))
        self._wake.set()
        return await future

    # ---------------------------------------------------------------- http
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._active_conns += 1
        self._drained.clear()
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    break
                try:
                    method, path, _ = (
                        request_line.decode("latin-1").strip().split(" ", 2)
                    )
                except ValueError:
                    await self._respond(
                        writer, 400, {"error": "malformed request line"}, {}
                    )
                    break
                headers: dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    key, _, value = line.decode("latin-1").partition(":")
                    headers[key.strip().lower()] = value.strip()
                length = int(headers.get("content-length", "0") or "0")
                body = await reader.readexactly(length) if length else b""
                try:
                    status, payload, extra = await self._dispatch(
                        method.upper(), path, body
                    )
                except Exception as exc:  # pragma: no cover - defensive
                    status, payload, extra = 500, {"error": repr(exc)}, {}
                await self._respond(writer, status, payload, extra)
                if headers.get("connection", "").lower() == "close":
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._active_conns -= 1
            if self._active_conns == 0:
                self._drained.set()

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        extra: dict[str, str],
    ) -> None:
        data = json.dumps(payload).encode()
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
        )
        for key, value in extra.items():
            head += f"{key}: {value}\r\n"
        writer.write(head.encode("latin-1") + b"\r\n" + data)
        await writer.drain()
