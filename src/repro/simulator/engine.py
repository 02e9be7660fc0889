"""Single-application facade over the multi-tenant runtime core.

:class:`ServerlessSimulator` replays an invocation trace against one
application under a pluggable scheduling policy.  It is a thin view of the
general multi-tenant machinery: a private
:class:`~repro.simulator.runtime.Runtime` (clock, event heap, cluster,
billing) carrying exactly one :class:`~repro.simulator.gateway.Gateway`
(queues, directives, instance pools, per-app metrics).  All dispatch,
lifecycle and windowing semantics live in the gateway — see
:mod:`repro.simulator.gateway` for the §VI mechanism rules and
``docs/architecture.md`` for the layering.

The facade exposes the shared mechanism (``events``, ``cluster``) and
the run lifecycle; ``run()`` returns the single app's
:class:`~repro.simulator.metrics.RunMetrics`.  Per-application state
(``pools``, ``queues``, ``directives``, ...) lives on ``sim.gateway``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.dag.graph import AppDAG
from repro.simulator.cluster import Cluster
from repro.simulator.events import EventQueue
from repro.simulator.gateway import Gateway, SimulationContext
from repro.simulator.metrics import RunMetrics
from repro.simulator.runtime import Runtime
from repro.workload.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.faults.plan import FaultPlan
    from repro.overload.spec import OverloadSpec
    from repro.policies.base import Policy
    from repro.telemetry.recorder import Recorder

__all__ = ["ServerlessSimulator", "SimulationContext"]


class ServerlessSimulator:
    """Replays a trace for one application under one policy."""

    def __init__(
        self,
        app: AppDAG,
        trace: Trace,
        policy: "Policy",
        *,
        cluster: Cluster | None = None,
        events: EventQueue | None = None,
        window: float = 1.0,
        drain_timeout: float = 300.0,
        seed: int = 0,
        noisy: bool = True,
        init_failure_rate: float = 0.0,
        gpu_contention: float = 0.0,
        recorder: "Recorder | None" = None,
        faults: "FaultPlan | None" = None,
        overload: "OverloadSpec | None" = None,
        retention: str = "full",
    ) -> None:
        self.runtime = Runtime(
            cluster=cluster,
            events=events,
            drain_timeout=drain_timeout,
            recorder=recorder,
            faults=faults,
            overload=overload,
        )
        self.gateway = self.runtime.add_app(
            app,
            trace,
            policy,
            window=window,
            seed=seed,
            noisy=noisy,
            init_failure_rate=init_failure_rate,
            gpu_contention=gpu_contention,
            retention=retention,
        )

    # Shared mechanism lives on the runtime.
    @property
    def events(self) -> EventQueue:
        """The runtime's event heap (the simulated clock)."""
        return self.runtime.events

    @property
    def cluster(self) -> Cluster:
        """The runtime's shared capacity model."""
        return self.runtime.cluster

    @property
    def drain_timeout(self) -> float:
        """Bounded drain window after the trace horizon."""
        return self.runtime.drain_timeout

    # ------------------------------------------------------------------ run
    def setup(self) -> None:
        """Register the policy and start the arrival / window-tick streams.

        Split from :meth:`run` so callers driving the event loop by hand
        (tests, co-scheduling experiments) can interleave their own events.
        """
        self.gateway.setup()

    def finalize(self) -> RunMetrics:
        """Terminate remaining instances and seal the metrics."""
        return self.gateway.finalize()

    @property
    def open_invocations(self) -> int:
        """Invocations that have arrived but not completed."""
        return self.gateway.open_invocations

    def run(self) -> RunMetrics:
        """Execute the full trace and return the run metrics."""
        return self.runtime.run()[self.gateway.app.name]
