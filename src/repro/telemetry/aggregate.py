"""Rebuild :class:`~repro.simulator.metrics.RunMetrics` from an event trace.

The inversion at the heart of the telemetry plane: the event stream is the
primary artifact and every counter the evaluation figures consume is a
*derived view* over it.  ``aggregate(events)`` folds one application's
events back into a ``RunMetrics`` whose counters equal the ones the live
gateway accumulated — exactly, not approximately — which
``tests/test_trace_reconstruction.py`` property-tests across (app, policy)
pairs and the ``repro trace`` command re-checks on every trace it writes.

Event-to-counter mapping:

====================  ====================================================
``run_started``       app / policy / SLA identity
``arrival``           one ``Invocation`` (arrival order preserved)
``stage_ready``       ``StageRecord.ready_at``
``stage_start``       ``started_at``/``instance_id``/``batch``/``cold``;
                      ``stage_executions`` and ``cold_stage_executions``
``stage_finish``      ``StageRecord.finished_at``
``invocation_finished``  ``Invocation.completed_at`` and the completion
                      counters (``RunMetrics.record_completion``)
``instance_launched`` ``initializations``
``instance_init_failed``  ``failed_initializations``
``instance_swapped_in``  ``swap_ins``
``instance_expired``  one ``InstanceUsage`` folded into ``billing``
``window_tick``       ``arrival_samples`` and ``pod_samples``
``run_finished``      ``duration`` and the ``unfinished`` count
``execution_failed``  ``failed_executions``
``stage_retried``     ``stage_retries`` (and ``Invocation.retries``)
``invocation_timed_out``  ``timed_out``
``fallback_activated``  ``fallbacks``
``invocation_shed``   ``shed``
``invocation_rejected``  ``rejected``
====================  ====================================================

Cluster-scoped events (``machine_down`` / ``machine_up``, whose ``app``
is :data:`~repro.telemetry.events.CLUSTER_SCOPE`) belong to no tenant:
they are excluded from single-app inference and from
:func:`aggregate_all`'s per-app fan-out; their per-app consequences are
already carried by ``instance_expired`` events with the
``machine-failed`` reason.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.hardware.configs import HardwareConfig
from repro.simulator.invocation import Invocation
from repro.simulator.metrics import InstanceUsage, RunMetrics
from repro.telemetry.events import (
    CLUSTER_SCOPE,
    Arrival,
    ExecutionFailed,
    FallbackActivated,
    InstanceExpired,
    InstanceInitFailed,
    InstanceLaunched,
    InstanceSwappedIn,
    InvocationFinished,
    InvocationRejected,
    InvocationShed,
    InvocationTimedOut,
    RunFinished,
    RunStarted,
    SimEvent,
    StageFinish,
    StageReady,
    StageRetried,
    StageStart,
    WindowTick,
)

__all__ = ["aggregate", "aggregate_all"]


def aggregate(events: Iterable[SimEvent], app: str | None = None) -> RunMetrics:
    """Fold one application's events into a reconstructed ``RunMetrics``.

    ``events`` may hold several applications' interleaved streams (a
    multi-tenant trace); pass ``app`` to select one.  With a single-app
    trace the selector may be omitted.  Raises ``ValueError`` when the
    trace has no ``run_started`` for the selected app.
    """
    events = list(events)
    if app is None:
        apps = tuple(
            dict.fromkeys(e.app for e in events if e.app != CLUSTER_SCOPE)
        )
        if len(apps) != 1:
            raise ValueError(
                f"trace holds {len(apps)} applications {list(apps)}; "
                "pass app= to select one"
            )
        app = apps[0]
    stream: Sequence[SimEvent] = [e for e in events if e.app == app]

    started = next((e for e in stream if isinstance(e, RunStarted)), None)
    if started is None:
        raise ValueError(f"trace has no run_started event for app {app!r}")

    metrics = RunMetrics(app=app, policy=started.policy, sla=started.sla)
    invocations: dict[int, Invocation] = {}

    for event in stream:
        if isinstance(event, Arrival):
            inv = Invocation(
                app=app, arrival=event.t, invocation_id=event.invocation_id
            )
            invocations[event.invocation_id] = inv
            metrics.invocations.append(inv)
        elif isinstance(event, StageReady):
            invocations[event.invocation_id].stage(event.function).ready_at = (
                event.t
            )
        elif isinstance(event, StageStart):
            rec = invocations[event.invocation_id].stage(event.function)
            rec.started_at = event.t
            rec.instance_id = event.instance_id
            rec.batch = event.batch
            rec.cold_start = event.cold
            metrics.stage_executions += 1
            if event.cold:
                metrics.cold_stage_executions += 1
        elif isinstance(event, StageFinish):
            invocations[event.invocation_id].stage(
                event.function
            ).finished_at = event.t
        elif isinstance(event, InvocationFinished):
            invocations[event.invocation_id].completed_at = event.t
            metrics.record_completion(event.latency)
        elif isinstance(event, InstanceLaunched):
            metrics.initializations += 1
        elif isinstance(event, InstanceInitFailed):
            metrics.failed_initializations += 1
        elif isinstance(event, InstanceSwappedIn):
            metrics.swap_ins += 1
        elif isinstance(event, ExecutionFailed):
            metrics.failed_executions += 1
        elif isinstance(event, StageRetried):
            metrics.stage_retries += 1
            invocations[event.invocation_id].retries = event.attempt
        elif isinstance(event, InvocationTimedOut):
            metrics.timed_out += 1
            invocations[event.invocation_id].abandoned_at = event.t
        elif isinstance(event, InvocationShed):
            metrics.shed += 1
            invocations[event.invocation_id].abandoned_at = event.t
        elif isinstance(event, InvocationRejected):
            # Rejected arrivals never entered the system: no `arrival`
            # event precedes this one, so only the counter moves.
            metrics.rejected += 1
        elif isinstance(event, FallbackActivated):
            metrics.fallbacks += 1
        elif isinstance(event, InstanceExpired):
            metrics.record_instance(
                InstanceUsage(
                    function=event.function,
                    config=HardwareConfig.from_key(event.config),
                    lifetime=event.lifetime,
                    init_seconds=event.init_seconds,
                    busy_seconds=event.busy_seconds,
                    idle_seconds=event.idle_seconds,
                    cost=event.cost,
                    batches_served=event.batches_served,
                    invocations_served=event.invocations_served,
                )
            )
        elif isinstance(event, WindowTick):
            metrics.arrival_samples.append((event.t, event.arrivals))
            metrics.pod_samples.append(
                (event.t, event.cpu_pods, event.gpu_pods)
            )
        elif isinstance(event, RunFinished):
            # Mirror Gateway.finalize: in-flight invocations survive
            # solely as the `unfinished` counter.
            metrics.seal(duration=event.duration, unfinished=event.unfinished)
    return metrics


def aggregate_all(events: Iterable[SimEvent]) -> dict[str, RunMetrics]:
    """Reconstruct every application's metrics from a multi-tenant trace."""
    events = list(events)
    apps = tuple(
        dict.fromkeys(e.app for e in events if e.app != CLUSTER_SCOPE)
    )
    return {app: aggregate(events, app) for app in apps}
