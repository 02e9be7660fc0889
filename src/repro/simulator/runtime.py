"""Shared runtime: one clock, one event heap, one cluster, N gateways.

:class:`Runtime` is the multi-tenant core of the simulator.  It owns the
*shared mechanism* — the :class:`~repro.simulator.events.EventQueue` (the
simulated clock), the :class:`~repro.simulator.cluster.Cluster` capacity
model, and the drain policy — while every co-resident application brings
its own :class:`~repro.simulator.gateway.Gateway` (queues, directives,
instance pools, per-app metrics).  A single-application run is just a
runtime with one gateway; the paper's §VII-A co-run is the same runtime
with three.  Capacity pressure from one tenant back-pressures the others
through the shared cluster exactly as on the real 8-machine testbed.

The runtime is the simulator's direct API: :meth:`Runtime.add_app` takes
each gateway's seed as given.  The experiment facade
(:class:`~repro.simulator.multiapp.MultiAppSimulator`) and every grid cell
derive it from the root seed and the application name
(:func:`derive_app_seed`), so adding or permuting tenants never perturbs
another tenant's noise streams.  Run-wide settings (faults, overload,
initialization failures, record retention) are declared once, here.

The runtime also owns the trace sink: one recorder (a
:class:`~repro.telemetry.recorder.TraceRecorder`) shared by every
gateway's :class:`~repro.telemetry.plane.TelemetryPlane`, or ``None``
for an untraced run, which records nothing and costs nothing; and the
run-scoped invocation-id counter, so traces from independent runtimes are
comparable regardless of how many runs one process executed before.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.dag.graph import AppDAG
from repro.simulator.cluster import Cluster, ModelResidencyCache
from repro.simulator.events import EventQueue
from repro.simulator.gateway import Gateway
from repro.simulator.metrics import RunMetrics
from repro.telemetry.events import CLUSTER_SCOPE, MachineDown, MachineUp
from repro.workload.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.faults.plan import FaultPlan
    from repro.overload.spec import OverloadSpec
    from repro.policies.base import Policy
    from repro.telemetry.recorder import TraceRecorder


def derive_app_seed(seed: int, app_name: str) -> int:
    """Order-independent per-application seed.

    Hashes ``(seed, app_name)`` with BLAKE2b so a tenant's RNG streams
    (oracle noise, fault injection) depend only on the root seed and its
    own name — never on its position in the deployment list or on which
    other tenants co-run.  ``hashlib`` rather than ``hash()`` keeps the
    derivation stable across interpreter runs (``PYTHONHASHSEED``).
    """
    digest = hashlib.blake2b(
        f"{seed}:{app_name}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def derive_slice_seed(
    seed: int, app_name: str, slice_index: int, n_slices: int
) -> int:
    """Order-independent seed for one trace time-slice of an application.

    The shard plane (:func:`~repro.experiments.parallel.run_sharded`)
    partitions a single app's trace into ``n_slices`` contiguous windows,
    each simulated as its own runtime.  Every slice gets its own noise streams — derived, like
    :func:`derive_app_seed`, only from stable names, never from which
    shard or process runs the slice.  An unsliced unit
    (``n_slices == 1``) collapses to the plain per-app derivation so a
    one-slice shard run reproduces a standalone per-app run bit for bit.
    """
    if not 0 <= slice_index < n_slices:
        raise ValueError(
            f"slice_index must be in [0, {n_slices}), got {slice_index}"
        )
    if n_slices == 1:
        return derive_app_seed(seed, app_name)
    return derive_app_seed(seed, f"{app_name}#slice{slice_index}/{n_slices}")


@dataclass(frozen=True)
class Deployment:
    """One application with its trace and scheduling policy."""

    app: AppDAG
    trace: Trace
    policy: "Policy"


class Runtime:
    """Shared clock, event heap, cluster and billing for N gateways."""

    def __init__(
        self,
        *,
        cluster: Cluster | None = None,
        drain_timeout: float = 300.0,
        recorder: "TraceRecorder | None" = None,
        faults: "FaultPlan | None" = None,
        overload: "OverloadSpec | None" = None,
        init_failure_rate: float = 0.0,
        retention: str = "full",
    ) -> None:
        if drain_timeout < 0:
            raise ValueError(f"drain_timeout must be >= 0, got {drain_timeout}")
        if not 0.0 <= init_failure_rate < 1.0:
            raise ValueError(
                f"init_failure_rate must be in [0, 1), got {init_failure_rate}"
            )
        self.events = EventQueue()
        self.cluster = cluster if cluster is not None else Cluster.build()
        self.drain_timeout = float(drain_timeout)
        self.recorder = recorder
        # Fault plan and overload spec: run-wide, but each gateway builds
        # its own FaultPlane / OverloadPlane (per-app state) from them.
        self.faults = faults
        self.overload = overload
        # Per-warmup initialization failure probability and record
        # retention ("full" or "sketch"): run-wide, so every gateway
        # copies them at construction.
        self.init_failure_rate = float(init_failure_rate)
        self.retention = retention
        # Host-memory model residency (GPU swap-in): shared across tenants
        # like the cluster itself — one app's working set can evict
        # another's, which is exactly the co-run contention of §VII-A.
        # Idle unless a swap-capable profile is deployed.
        self.residency = ModelResidencyCache()
        self.gateways: list[Gateway] = []
        # Run-scoped invocation ids: every runtime numbers its invocations
        # from 0, so traces are stable whether a process ran one simulation
        # or a whole grid before this one.
        self._invocation_ids = itertools.count()
        # Instance ids are run-scoped for the same reason: a grid worker
        # that ran three simulations must trace the same ids as a fresh
        # process running only this one.
        self._instance_ids = itertools.count()

    def next_invocation_id(self) -> int:
        """Next invocation id on this runtime's own counter."""
        return next(self._invocation_ids)

    def next_instance_id(self) -> int:
        """Next instance id on this runtime's own counter."""
        return next(self._instance_ids)

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.events.now

    def add_app(
        self,
        app: AppDAG,
        trace: Trace,
        policy: "Policy",
        *,
        seed: int = 0,
        noisy: bool = True,
    ) -> Gateway:
        """Register one application on this runtime; returns its gateway."""
        if any(gw.app.name == app.name for gw in self.gateways):
            raise ValueError(
                f"duplicate application names: "
                f"{[gw.app.name for gw in self.gateways] + [app.name]}"
            )
        gateway = Gateway(
            app,
            trace,
            policy,
            runtime=self,
            seed=seed,
            noisy=noisy,
        )
        self.gateways.append(gateway)
        return gateway

    # ------------------------------------------------------------------ run
    def setup(self) -> None:
        """Start every gateway's arrival / window-tick streams."""
        self._schedule_outages()
        for gateway in self.gateways:
            gateway.setup()

    # -- fault injection: machine outages -----------------------------------
    def _schedule_outages(self) -> None:
        """Schedule every machine outage window from the fault plan.

        Down events evict the machine's instances through each gateway
        (requeueing in-flight batches onto the retry path); finite up
        events make the capacity allocatable again and kick queued
        launches.
        """
        if self.faults is None or not self.faults.outages:
            return
        n = len(self.cluster.machines)
        for outage in self.faults.outages:
            if outage.machine >= n:
                raise ValueError(
                    f"outage targets machine {outage.machine} but the "
                    f"cluster has only {n} machines"
                )
            self.events.schedule(
                outage.start, lambda m=outage.machine: self._machine_down(m)
            )
            if outage.end != float("inf"):
                self.events.schedule(
                    outage.end, lambda m=outage.machine: self._machine_up(m)
                )

    def _machine_down(self, index: int) -> None:
        """Crash a machine: refuse placements, evict its instances."""
        machine = self.cluster.machines[index]
        if machine.failed:  # overlapping outage windows
            return
        self.cluster.fail_machine(index)
        if self.recorder is not None:
            self.recorder.emit(
                MachineDown(t=self.events.now, app=CLUSTER_SCOPE, machine=index)
            )
        for gateway in self.gateways:
            gateway.evict_machine(index)

    def _machine_up(self, index: int) -> None:
        """Restore a crashed machine and retry queued launches."""
        machine = self.cluster.machines[index]
        if not machine.failed:
            return
        self.cluster.restore_machine(index)
        if self.recorder is not None:
            self.recorder.emit(
                MachineUp(t=self.events.now, app=CLUSTER_SCOPE, machine=index)
            )
        for gateway in self.gateways:
            gateway.retry_pending_launches()

    @property
    def open_invocations(self) -> int:
        """Invocations in flight across all gateways."""
        return sum(gw.open_invocations for gw in self.gateways)

    def run(self) -> dict[str, RunMetrics]:
        """Serve every gateway's trace to completion; metrics by app name."""
        if not self.gateways:
            raise ValueError("runtime has no gateways; call add_app first")
        self.setup()
        return self.finish()

    def finish(self) -> dict[str, RunMetrics]:
        """Run to the horizon, drain, and finalize every gateway.

        The horizon is the longest trace; after it, in-flight invocations
        get a bounded drain window before finalization.
        """
        horizon = max(gw.trace.duration for gw in self.gateways)
        self.events.run_until(horizon)
        deadline = horizon + self.drain_timeout
        while (
            any(gw.open_invocations > 0 for gw in self.gateways)
            and self.events.now < deadline
        ):
            if not self.events.step():
                break
        return {gw.app.name: gw.finalize() for gw in self.gateways}

    def total_cost(self, metrics: dict[str, RunMetrics] | None = None) -> float:
        """Aggregate billed cost across all applications."""
        if metrics is None:
            metrics = {gw.app.name: gw.metrics for gw in self.gateways}
        return sum(m.total_cost() for m in metrics.values())
