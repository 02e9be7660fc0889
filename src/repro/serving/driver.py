"""Live simulation driver: inject HTTP requests into a shared Runtime.

The :class:`SimDriver` hosts one multi-tenant :class:`~repro.simulator
.runtime.Runtime` whose arrivals come from a *live* front door instead of
a pre-built trace.  Each accepted request is stamped with a simulated
arrival time and scheduled as a real arrival event, so admission control,
queueing, batching and billing all run through the exact machinery an
offline replay uses — which is what makes a captured session reproduce
bit-identically (see ``docs/serving.md`` for the full argument).

Determinism contract (the replay-parity invariants):

- **Stamps are globally strictly increasing** in submission order
  (``nextafter(max(now, last_stamp))``), so the live global arrival order
  equals the replayed per-app-sorted merge order and invocation ids — and
  with them every per-app RNG stream — coincide.
- **Stamps are strictly after the current simulated instant**, so an
  injection never sorts before an event that already fired.
- **Arrival sequence slots are reserved up front** (a fixed per-gateway
  :data:`DEFAULT_CAPACITY`, claimed in
  :meth:`LiveGateway._arrival_capacity` before the window-tick block),
  so equal-time events keep the offline tie-breaking classes: arrivals <
  window ticks < dynamic events, per gateway in registration order.
- **The serve phase never advances past the horizon**; :meth:`SimDriver
  .finish` then runs ``Runtime.finish``, the same tail ``Runtime.run``
  ends with (``run_until`` to the horizon, the bounded drain loop,
  per-gateway finalization).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.experiments.parallel import MultiAppCellSpec, _environment
from repro.simulator.gateway import WINDOW, Gateway
from repro.simulator.runtime import Runtime, derive_app_seed
from repro.workload.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.dag.graph import AppDAG
    from repro.policies.base import Policy
    from repro.simulator.invocation import Invocation
    from repro.simulator.metrics import RunMetrics

__all__ = [
    "DEFAULT_CAPACITY",
    "HorizonPassed",
    "LiveGateway",
    "SimDriver",
    "Ticket",
]

#: Arrival-sequence slots reserved per live gateway.  Reservation is a
#: counter bump, not an allocation, so the default is deliberately roomy.
DEFAULT_CAPACITY = 1_000_000

#: Terminal request dispositions a ticket can resolve to.
TERMINAL_STATUSES = (
    "completed",
    "timed_out",
    "shed",
    "rejected",
    "unfinished",
)


class HorizonPassed(RuntimeError):
    """The session's simulated horizon has been reached; no more arrivals."""


@dataclass
class Ticket:
    """One front-door request tracked from injection to terminal status."""

    app: str
    index: int
    t: float
    tenant: str | None = None
    invocation_id: int | None = None
    inv: "Invocation | None" = None
    #: One of :data:`TERMINAL_STATUSES`, or ``None`` while in flight.
    status: str | None = None
    #: Simulated instant the terminal disposition landed.
    resolved_at: float | None = None
    on_done: Callable[["Ticket"], None] | None = field(
        default=None, repr=False
    )

    @property
    def done(self) -> bool:
        return self.status is not None


class LiveGateway(Gateway):
    """A gateway whose arrivals are injected one request at a time.

    Construction mirrors an offline gateway with an *empty* trace whose
    ``duration`` is the session horizon, so window-tick count, horizon
    math and finalization all match the eventual replay.
    """

    def __init__(
        self,
        app: "AppDAG",
        policy: "Policy",
        *,
        runtime: Runtime,
        horizon: float,
        seed: int = 0,
    ) -> None:
        if horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        super().__init__(
            app,
            Trace(np.empty(0), duration=float(horizon)),
            policy,
            runtime=runtime,
            seed=seed,
        )
        self._injected = 0

    def _arrival_capacity(self) -> int:
        return DEFAULT_CAPACITY

    def inject(
        self,
        t: float,
        on_arrival: Callable[["Invocation"], None] | None = None,
    ) -> None:
        """Schedule one live arrival at simulated time ``t``.

        ``t`` must be strictly after the current simulated instant (so
        the event sorts after everything that already fired) and at or
        before the horizon.  The arrival fires through the ordinary
        ``_handle_arrival`` path on the next reserved sequence slot.
        """
        if self._injected >= DEFAULT_CAPACITY:
            raise RuntimeError(
                f"live gateway {self.app.name!r} exhausted its arrival "
                f"capacity of {DEFAULT_CAPACITY}"
            )
        if t <= self.events.now:
            raise ValueError(
                f"arrival stamp {t} must be strictly after the current "
                f"simulated instant {self.events.now}"
            )
        if t > self.trace.duration:
            raise HorizonPassed(
                f"arrival stamp {t} is past the horizon "
                f"{self.trace.duration}"
            )
        seq = self._arrival_seq_base + self._injected
        self._injected += 1

        def fire() -> None:
            inv = self._handle_arrival(t)
            if on_arrival is not None:
                on_arrival(inv)

        self.events.schedule(t, fire, seq=seq)


class SimDriver:
    """Drive one live co-run cell: inject, step, finish, report.

    The driver is pacing- and transport-agnostic: the HTTP server (or a
    test) calls :meth:`submit` to stamp and inject requests and one of
    the advance methods to step the shared event heap; terminal
    dispositions come back through each ticket's ``on_done`` callback,
    wired into the gateway's ``_on_done`` hook.
    """

    def __init__(
        self,
        cell: MultiAppCellSpec,
        *,
        horizon: float,
        drain_timeout: float = 300.0,
    ) -> None:
        if cell.faults is not None:
            raise ValueError(
                "live serving does not support fault plans yet "
                "(flash crowds and retry storms would inject arrivals "
                "outside the request log)"
            )
        if cell.slices_per_app != 1:
            raise ValueError("live serving does not support sharding")
        if cell.trace_dir is not None:
            raise ValueError(
                "live serving does not record telemetry traces "
                "(it writes a request log instead)"
            )
        names = [spec.app for spec in cell.envs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate application names: {names}")
        self.cell = cell
        self.horizon = float(horizon)
        self.runtime = Runtime(
            drain_timeout=drain_timeout,
            overload=cell.overload,
            init_failure_rate=cell.init_failure_rate,
            retention=cell.retention,
        )
        self.gateways: dict[str, LiveGateway] = {}
        for spec in cell.envs:
            env = _environment(spec)
            gateway = LiveGateway(
                env.app,
                env.make_policy(cell.policy),
                runtime=self.runtime,
                horizon=self.horizon,
                seed=derive_app_seed(cell.sim_seed, env.app.name),
            )
            gateway._on_done = self._handle_done
            self.runtime.gateways.append(gateway)
            self.gateways[env.app.name] = gateway
        self.tickets: list[Ticket] = []
        self._pending: dict[int, Ticket] = {}
        self._early: dict[int, str] = {}
        self._last_stamp = 0.0
        self._unfired = 0
        self._started = False
        self._metrics: "dict[str, RunMetrics] | None" = None
        #: Per-app terminal-status counts (live /stats view).
        self.status_counts: dict[str, dict[str, int]] = {
            name: {status: 0 for status in TERMINAL_STATUSES}
            for name in self.gateways
        }

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Register policies and reserve event-sequence blocks."""
        if self._started:
            raise RuntimeError("driver already started")
        self.runtime.setup()
        self._started = True

    @property
    def finished(self) -> bool:
        return self._metrics is not None

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.runtime.events.now

    def pending_work(self) -> bool:
        """Whether unfired injections or open invocations remain."""
        return self._unfired > 0 or self.runtime.open_invocations > 0

    def actionable_work(self) -> bool:
        """Pending work the serve phase can still advance.

        An open invocation whose remaining events all lie past the
        horizon is *pending* but not *actionable*: only :meth:`finish`'s
        drain window may fire those events, so a pump waiting for
        :meth:`pending_work` to clear would spin forever.
        """
        if self._unfired > 0:
            return True
        if self.runtime.open_invocations == 0:
            return False
        when = self.runtime.events.next_time()
        return when is not None and when <= self.horizon

    # ------------------------------------------------------------- injection
    def submit(
        self,
        app: str,
        *,
        tenant: str | None = None,
        on_done: Callable[[Ticket], None] | None = None,
    ) -> Ticket:
        """Stamp and inject one request; returns its in-flight ticket."""
        if not self._started:
            raise RuntimeError("driver not started; call start() first")
        if self.finished:
            raise RuntimeError("driver already finished")
        gateway = self.gateways[app]  # KeyError -> unknown app (HTTP 404)
        stamp = float(
            np.nextafter(max(self.now, self._last_stamp), math.inf)
        )
        if stamp > self.horizon:
            raise HorizonPassed(
                f"session horizon {self.horizon} reached at t={self.now}"
            )
        ticket = Ticket(
            app=app,
            index=len(self.tickets),
            t=stamp,
            tenant=tenant,
            on_done=on_done,
        )
        gateway.inject(stamp, lambda inv: self._register(ticket, inv))
        self._last_stamp = stamp
        self.tickets.append(ticket)
        self._unfired += 1
        return ticket

    def _register(self, ticket: Ticket, inv: "Invocation") -> None:
        """Bind the fired arrival's invocation to its ticket."""
        self._unfired -= 1
        ticket.invocation_id = inv.invocation_id
        ticket.inv = inv
        early = self._early.pop(inv.invocation_id, None)
        if early is not None:
            # Terminal disposition landed synchronously inside
            # _handle_arrival (admission rejection or bounded-queue shed).
            self._resolve(ticket, early)
        else:
            self._pending[inv.invocation_id] = ticket

    def _handle_done(self, inv: "Invocation", status: str) -> None:
        ticket = self._pending.pop(inv.invocation_id, None)
        if ticket is not None:
            self._resolve(ticket, status)
        else:
            self._early[inv.invocation_id] = status

    def _resolve(self, ticket: Ticket, status: str) -> None:
        ticket.status = status
        ticket.resolved_at = self.now
        self.status_counts[ticket.app][status] += 1
        if ticket.on_done is not None:
            ticket.on_done(ticket)

    # ------------------------------------------------------------- stepping
    def advance_while_busy(self, max_steps: int = 500) -> int:
        """Time-warp stepping: fire events only while work is pending.

        The clock *parks* the instant the system goes idle (no unfired
        injections, no open invocations), so between requests no window
        ticks burn and the next stamp hugs the last completion.  Events
        past the horizon are left for :meth:`finish`.
        """
        events = self.runtime.events
        steps = 0
        while steps < max_steps and self.pending_work():
            when = events.next_time()
            if when is None or when > self.horizon:
                break
            events.step()
            steps += 1
        return steps

    def advance_to(self, sim_t: float, max_steps: int = 500) -> int:
        """Wall-clock stepping: advance to the wall-mapped instant.

        Fires everything due at or before ``min(sim_t, horizon)`` whether
        or not work is pending — keep-alive windows and predictor ticks
        burn exactly as a deployed gateway's would — then bumps the clock
        to the target so subsequent stamps track wall time.
        """
        events = self.runtime.events
        limit = min(float(sim_t), self.horizon)
        steps = 0
        while steps < max_steps:
            when = events.next_time()
            if when is None or when > limit:
                if limit > events.now:
                    events.run_until(limit)  # fires nothing; bumps the clock
                break
            events.step()
            steps += 1
        return steps

    # ------------------------------------------------------------- shutdown
    def finish(self) -> "dict[str, RunMetrics]":
        """Drain and finalize through :meth:`Runtime.finish`.

        Any ticket still unresolved after the bounded drain window is
        resolved as ``unfinished`` (the HTTP layer's 504 at shutdown).
        """
        if self._metrics is not None:
            return self._metrics
        if not self._started:
            raise RuntimeError("driver not started; call start() first")
        self._metrics = self.runtime.finish()
        for ticket in list(self._pending.values()):
            self._resolve(ticket, "unfinished")
        self._pending.clear()
        return self._metrics

    # ------------------------------------------------------------- reporting
    def retry_after(self, app: str) -> float:
        """Simulated seconds until the app's token bucket refills one token."""
        overload = self.gateways[app].overload_plane
        bucket = overload.bucket if overload is not None else None
        if bucket is None:
            return 0.0
        deficit = max(0.0, 1.0 - bucket.tokens)
        return deficit / bucket.rate

    def stats(self) -> dict[str, Any]:
        """Live per-app counters for the ``/stats`` endpoint."""
        return {
            "sim_now": self.now,
            "horizon": self.horizon,
            "finished": self.finished,
            "requests": len(self.tickets),
            "apps": {
                name: {
                    "open": gw.open_invocations,
                    "rejected": gw.metrics.rejected,
                    "shed": gw.metrics.shed,
                    "timed_out": gw.metrics.timed_out,
                    **self.status_counts[name],
                }
                for name, gw in self.gateways.items()
            },
        }

    def header_payload(
        self, *, pacing: str, time_scale: float | None = None
    ) -> dict[str, Any]:
        """The request-log header recipe for this session."""
        cell = self.cell
        return {
            "envs": [asdict(spec) for spec in cell.envs],
            "policy": cell.policy,
            "sim_seed": cell.sim_seed,
            "init_failure_rate": cell.init_failure_rate,
            "retention": cell.retention,
            "overload": (
                cell.overload.to_dict() if cell.overload is not None else None
            ),
            "horizon": self.horizon,
            "window": WINDOW,
            "drain_timeout": self.runtime.drain_timeout,
            "capacity": DEFAULT_CAPACITY,
            "pacing": pacing,
            "time_scale": time_scale,
        }

    def summary_payload(self) -> dict[str, Any]:
        """The request-log footer: final metrics for replay verification."""
        metrics = self.finish()
        return {
            "metrics": {name: m.summary() for name, m in metrics.items()},
            "counters": {name: m.dispositions() for name, m in metrics.items()},
        }
