"""Multi-application co-scheduling facade over the runtime core.

The paper's evaluation (§VII-A) runs a dedicated load generator for *each*
of the three applications simultaneously against the same 8-machine
cluster.  :class:`MultiAppSimulator` reproduces that setting as a thin
facade: one shared :class:`~repro.simulator.runtime.Runtime` (a single
simulated clock and one :class:`~repro.simulator.cluster.Cluster`) with
one :class:`~repro.simulator.gateway.Gateway` per deployment, so capacity
pressure from one application back-pressures the others exactly as on the
real testbed.

This is the one experiment facade: a solo run is a one-deployment
co-run.  Each tenant's seed derives from the root seed and its application
name (:func:`~repro.simulator.runtime.derive_app_seed`), so results are
invariant under deployment reordering.  Callers that need a raw seed per
tenant (tests pinning historical values, the shard plane's per-slice
seeds) add the gateways to a :class:`~repro.simulator.runtime.Runtime`
themselves (:meth:`~repro.simulator.runtime.Runtime.add_app` takes the
seed as given).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.simulator.cluster import Cluster
from repro.simulator.events import EventQueue
from repro.simulator.metrics import RunMetrics
from repro.simulator.runtime import Deployment, Runtime, derive_app_seed

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.faults.plan import FaultPlan
    from repro.overload.spec import OverloadSpec
    from repro.telemetry.recorder import TraceRecorder

__all__ = ["Deployment", "MultiAppSimulator"]


class MultiAppSimulator:
    """Co-run several applications on a shared clock and cluster."""

    def __init__(
        self,
        deployments: list[Deployment],
        *,
        cluster: Cluster | None = None,
        drain_timeout: float = 300.0,
        seed: int = 0,
        recorder: "TraceRecorder | None" = None,
        init_failure_rate: float = 0.0,
        faults: "FaultPlan | None" = None,
        overload: "OverloadSpec | None" = None,
        retention: str = "full",
    ) -> None:
        if not deployments:
            raise ValueError("need at least one deployment")
        self.runtime = Runtime(
            cluster=cluster,
            drain_timeout=drain_timeout,
            recorder=recorder,
            faults=faults,
            overload=overload,
            init_failure_rate=init_failure_rate,
            retention=retention,
        )
        self.gateways = [
            self.runtime.add_app(
                d.app, d.trace, d.policy, seed=derive_app_seed(seed, d.app.name)
            )
            for d in deployments
        ]

    @property
    def events(self) -> EventQueue:
        """The shared event heap (one clock for all tenants)."""
        return self.runtime.events

    @property
    def cluster(self) -> Cluster:
        """The shared capacity model all tenants contend on."""
        return self.runtime.cluster

    def run(self) -> dict[str, RunMetrics]:
        """Serve all traces to completion; metrics keyed by app name."""
        return self.runtime.run()
