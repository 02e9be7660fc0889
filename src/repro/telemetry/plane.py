"""The telemetry plane of one gateway (see ``docs/observability.md``).

Built for each gateway whose runtime has a recorder; a gateway without
one holds ``None`` and builds no event object.  Each hook names one
gateway fact and emits that fact's typed events through the recorder, in
the order the trace has always carried them.  The gateway calls each
hook exactly where it mutates the matching
:class:`~repro.simulator.metrics.RunMetrics` state, so
:func:`repro.telemetry.aggregate.aggregate` rebuilds the live metrics
from the recorded stream.

Hook-to-event mapping:

=====================  ===================================================
``run_started``        ``run_started``
``directive``          ``directive_changed``
``arrival``            ``arrival``
``rejected``           ``invocation_rejected``
``stage_ready``        ``stage_ready``
``batch_started``      ``prewarm_hit`` (first batch of a pre-warmed
                       instance), then per item ``stage_start``,
                       ``cold_start`` (cold items) and ``token_stage``
                       (token-work items on a token service model)
``stage_finished``     ``stage_finish``
``completed``          ``invocation_finished``, then ``sla_violation``
                       when the latency exceeds the SLA
``retried``            ``stage_retried``
``gave_up``            ``invocation_shed`` or ``invocation_timed_out``
``execution_failed``   ``execution_failed``
``fallback``           ``fallback_activated``
``launched``           ``instance_launched``, then ``instance_swapped_in``
                       for a swap-in launch
``init_failed``        ``instance_init_failed``
``evicted``            one ``model_evicted`` per evicted resident model
``terminated``         ``prewarm_miss`` (an unused pre-warm that genuinely
                       expired), then ``instance_expired``
``prewarm_scheduled``  ``prewarm_scheduled``
``window``             ``window_tick``
``run_finished``       ``run_finished``
=====================  ===================================================

Cluster-scoped ``machine_down`` / ``machine_up`` belong to no gateway;
the :class:`~repro.simulator.runtime.Runtime` emits them itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.telemetry import events as ev

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.hardware.configs import HardwareConfig
    from repro.hardware.servicetime import WorkUnit
    from repro.simulator.container import Instance
    from repro.simulator.gateway import Gateway
    from repro.simulator.invocation import FunctionDirective, Invocation
    from repro.simulator.metrics import InstanceUsage
    from repro.telemetry.recorder import TraceRecorder

#: Termination reasons that mean a pre-warmed instance genuinely expired
#: unused — the only ones that should count as a ``prewarm_miss``.
#: Run shutdown, init failures and fault-injected kills (machine outages,
#: mid-flight execution failures) say nothing about the policy's warm-up
#: prediction being wrong.
_GENUINE_EXPIRY = frozenset(
    {"keep-alive-expired", "keep-alive-sweep", "scale-in", "stale-config"}
)


class TelemetryPlane:
    """One gateway's event emission into the runtime's recorder."""

    def __init__(self, recorder: TraceRecorder, gateway: Gateway) -> None:
        self.emit = recorder.emit
        self.gw = gateway
        self.events = gateway.events
        self.app = gateway.app.name

    def _emit(self, event_type: type, **fields) -> None:
        """Emit one event of this gateway's app, stamped now."""
        self.emit(event_type(t=self.events.now, app=self.app, **fields))

    # ------------------------------------------------------------ run
    def run_started(self) -> None:
        gw = self.gw
        self._emit(
            ev.RunStarted,
            policy=gw.policy.name,
            sla=gw.app.sla,
            window=gw.ctx.window,
            functions=tuple(gw.app.function_names),
        )

    def directive(
        self, function: str, directive: FunctionDirective, reason: str
    ) -> None:
        self._emit(
            ev.DirectiveChanged,
            function=function,
            config=directive.config.key,
            keep_alive=directive.keep_alive,
            batch=directive.batch,
            min_warm=directive.min_warm,
            warm_grace=directive.warm_grace,
            reason=reason,
        )

    # ------------------------------------------------------------ invocations
    def arrival(self, inv: Invocation) -> None:
        self.emit(
            ev.Arrival(t=inv.arrival, app=self.app, invocation_id=inv.invocation_id)
        )

    def rejected(self, inv: Invocation) -> None:
        self.emit(
            ev.InvocationRejected(
                t=inv.arrival, app=self.app, invocation_id=inv.invocation_id
            )
        )

    def stage_ready(self, inv: Invocation, fn: str) -> None:
        self._emit(ev.StageReady, invocation_id=inv.invocation_id, function=fn)

    def batch_started(
        self,
        inst: Instance,
        items: list[Invocation],
        exec_time: float,
        work: WorkUnit | None,
    ) -> None:
        now = self.events.now
        fn = inst.function
        batch_n = len(items)
        # Prefill/decode attribution of the sampled wall-clock time: split
        # pro rata by the service model's phase expectations, so the two
        # phases sum to exec_time exactly (noise and fixed overhead
        # apportioned proportionally).
        token_split: tuple[float, float] | None = None
        if work is not None:
            model = self.gw.oracles[inst.fn_index].profile.service_model
            if model is not None:
                pre, dec = model.split(inst.config, batch_n, work)
                if pre + dec > 0.0:
                    prefill = exec_time * pre / (pre + dec)
                    token_split = (prefill, exec_time - prefill)
        if inst.prewarmed and inst.batches_served == 1:
            self._emit(
                ev.PrewarmHit,
                function=fn,
                instance_id=inst.instance_id,
                idle_wait=now - inst.warm_at,
            )
        for inv in items:
            rec = inv.stage(fn)
            self._emit(
                ev.StageStart,
                invocation_id=inv.invocation_id,
                function=fn,
                instance_id=inst.instance_id,
                batch=batch_n,
                cold=rec.cold_start,
            )
            if rec.cold_start:
                self._emit(
                    ev.ColdStart,
                    invocation_id=inv.invocation_id,
                    function=fn,
                    instance_id=inst.instance_id,
                    wait=now - (rec.ready_at or 0.0),
                )
            if token_split is not None and inv.work is not None:
                self._emit(
                    ev.TokenStage,
                    invocation_id=inv.invocation_id,
                    function=fn,
                    tokens_in=inv.work.tokens_in,
                    tokens_out=inv.work.tokens_out,
                    prefill=token_split[0],
                    decode=token_split[1],
                )

    def stage_finished(self, inv: Invocation, fn: str, inst: Instance) -> None:
        self._emit(
            ev.StageFinish,
            invocation_id=inv.invocation_id,
            function=fn,
            instance_id=inst.instance_id,
        )

    def completed(self, inv: Invocation, latency: float) -> None:
        self._emit(
            ev.InvocationFinished, invocation_id=inv.invocation_id, latency=latency
        )
        sla = self.gw.app.sla
        # Same epsilon as RunMetrics.record_completion.
        if latency > sla + 1e-9:
            self._emit(
                ev.SlaViolation,
                invocation_id=inv.invocation_id,
                latency=latency,
                sla=sla,
            )

    def retried(self, inv: Invocation, fn: str, delay: float) -> None:
        self._emit(
            ev.StageRetried,
            invocation_id=inv.invocation_id,
            function=fn,
            attempt=inv.retries,
            delay=delay,
        )

    def gave_up(
        self, inv: Invocation, status: str, *, reason: str, function: str | None
    ) -> None:
        fields = dict(
            invocation_id=inv.invocation_id,
            reason=reason,
            age=self.events.now - inv.arrival,
        )
        if status == "shed":
            self._emit(ev.InvocationShed, function=function, **fields)
        else:
            self._emit(ev.InvocationTimedOut, **fields)

    def execution_failed(self, inst: Instance) -> None:
        self._emit(
            ev.ExecutionFailed,
            function=inst.function,
            instance_id=inst.instance_id,
            batch=len(inst.inflight),
        )

    def fallback(
        self,
        fn: str,
        from_config: HardwareConfig,
        to_config: HardwareConfig,
        reason: str,
    ) -> None:
        self._emit(
            ev.FallbackActivated,
            function=fn,
            from_config=from_config.key,
            to_config=to_config.key,
            reason=reason,
        )

    # ------------------------------------------------------------ instances
    def launched(self, inst: Instance) -> None:
        self._emit(
            ev.InstanceLaunched,
            function=inst.function,
            instance_id=inst.instance_id,
            config=inst.config.key,
            init_duration=inst.init_duration,
            prewarm=inst.prewarmed,
        )
        if inst.swapped_in:
            self._emit(
                ev.InstanceSwappedIn,
                function=inst.function,
                instance_id=inst.instance_id,
                config=inst.config.key,
                swap_duration=inst.init_duration,
            )

    def init_failed(self, inst: Instance) -> None:
        self._emit(
            ev.InstanceInitFailed, function=inst.function, instance_id=inst.instance_id
        )

    def evicted(self, victims: list[tuple[str, str]]) -> None:
        """Resident models pushed out of the host cache (any tenant's)."""
        for victim_app, victim_fn in victims:
            self.emit(
                ev.ModelEvicted(t=self.events.now, app=victim_app, function=victim_fn)
            )

    def terminated(self, inst: Instance, usage: InstanceUsage, reason: str) -> None:
        if inst.prewarmed and inst.batches_served == 0 and reason in _GENUINE_EXPIRY:
            self._emit(
                ev.PrewarmMiss,
                function=inst.function,
                instance_id=inst.instance_id,
                idle_seconds=usage.idle_seconds,
            )
        self._emit(
            ev.InstanceExpired,
            function=inst.function,
            instance_id=inst.instance_id,
            config=inst.config.key,
            reason=reason,
            lifetime=usage.lifetime,
            init_seconds=usage.init_seconds,
            busy_seconds=usage.busy_seconds,
            idle_seconds=usage.idle_seconds,
            cost=usage.cost,
            batches_served=usage.batches_served,
            invocations_served=usage.invocations_served,
        )

    def prewarm_scheduled(
        self,
        function: str,
        start_time: float,
        config: HardwareConfig | None,
        count: int,
    ) -> None:
        self._emit(
            ev.PrewarmScheduled,
            function=function,
            fire_at=start_time,
            count=count,
            config=config.key if config is not None else "directive",
        )

    # ------------------------------------------------------------ windows
    def window(self, index: int, arrivals: int, cpu_pods: int, gpu_pods: int) -> None:
        self._emit(
            ev.WindowTick,
            window_index=index,
            arrivals=arrivals,
            cpu_pods=cpu_pods,
            gpu_pods=gpu_pods,
        )

    def run_finished(self) -> None:
        metrics = self.gw.metrics
        self._emit(
            ev.RunFinished,
            duration=self.events.now,
            unfinished=self.gw.open_invocations,
            completed=metrics.n_completed,
            latency_sketch=(
                metrics.latency_sketch.to_flat()
                if metrics.retention == "sketch"
                else ()
            ),
        )
