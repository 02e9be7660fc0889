"""Per-application gateway: queues, directives, instance pools, metrics.

A :class:`Gateway` owns everything that belongs to *one* application being
served — its invocation queues, standing :class:`FunctionDirective`\\ s,
per-function :class:`~repro.simulator.pools.InstancePool` indexes, oracle
performance models and :class:`~repro.simulator.metrics.RunMetrics` — and
drives that application's stage dispatch, instance lifecycle and window
ticks.  The shared *mechanism* it draws on (the simulated clock, the event
heap, cluster capacity) lives in :class:`~repro.simulator.runtime.Runtime`;
several gateways bound to one runtime co-run on a single timeline and
back-pressure each other through the shared cluster, which is the paper's
§VII-A evaluation setting (three applications, one 8-machine testbed).

This mirrors the paper's split between the Gateway + per-instance Agent
(per-application, §VI) and the platform underneath: the gateway is
responsible for mechanism — instance lifecycle, queueing, batching,
capacity requests, billing records — while the policy supplies *decisions*
through :class:`~repro.simulator.invocation.FunctionDirective` updates and
pre-warm requests.

The core owns queues, pools, launch, dispatch, terminate and billing,
plus the primitives the beyond-paper planes drive: a graceful-degradation
record (``_activate_fallback``) and the teardown of an invocation it gives
up on (``_give_up``).  The planes live beside what declares them —
:class:`~repro.faults.plane.FaultPlane` (injected faults, retries,
deadlines, crash loops, GPU starvation, flash crowds, retry storms),
:class:`~repro.overload.plane.OverloadPlane` (admission, bounded-queue
shedding, circuit breakers, brownout) and
:class:`~repro.telemetry.plane.TelemetryPlane` (event emission).  A
gateway holds one reference to each, ``None`` when the run has no fault
plan, overload spec or recorder, so a plane that is off costs one
attribute check per hook.

Stage dispatch rules (the Gateway + per-instance Agent of §VI):

- a stage becomes *ready* when all its DAG predecessors finished;
- ready stages queue per function; an idle instance takes up to
  ``directive.batch`` queued stages as one batch;
- if no instance is live, a cold start is triggered on the directive's
  configuration; stages served by an instance that was not warm when they
  became ready count as cold (re)initializations (Fig. 9b);
- idle instances expire after ``directive.keep_alive`` seconds;
- pre-warm requests launch instances at a policy-chosen time so
  initialization overlaps upstream execution (§V-B1).

Hot-path structure (see ``docs/performance.md``): at construction the
gateway compiles its :class:`~repro.dag.graph.AppDAG` to function
indices.  Queues, pools, directives, oracles, pending launches and stage
demand are lists indexed by function; each function has a successor
table of ``(successor index, fan-in)`` and each invocation of an app
with joins carries a predecessor countdown, so a completion never scans
predecessor records.  Function names are resolved only at the
boundaries: :class:`SimulationContext` (policies keep their name API),
the fault, overload and telemetry planes, and the events and metrics
they record.  Every event is a typed ``(time, seq, kind, payload)``
record whose kind is one of the gateway's handlers registered on the
shared :class:`~repro.simulator.events.EventQueue`; only keep-alive
expiry and, under a fault plan, the batch-completion timer are
cancellable handles.  Arrivals and window ticks are *streamed* (each
event schedules its successor on a pre-reserved sequence block, keeping
the event heap O(live events) instead of O(trace length)), and instance
lifecycle state lives in per-function
:class:`~repro.simulator.pools.InstancePool` indexes.

Observability (see ``docs/observability.md``): every point that mutates a
:class:`~repro.simulator.metrics.RunMetrics` counter also calls the
telemetry plane's hook for that fact, so the metrics are reconstructible
from a recorded trace (:func:`repro.telemetry.aggregate.aggregate`).
Without a recorder ``self.telemetry`` is ``None``: no event object is
ever built and the hot loop is unchanged.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from repro.dag.graph import AppDAG
from repro.faults.plane import FaultPlane
from repro.hardware.configs import Backend, HardwareConfig
from repro.hardware.perfmodel import GroundTruthPerformance
from repro.hardware.servicetime import WorkUnit
from repro.overload.plane import OverloadPlane
from repro.simulator.container import Instance, InstanceState
from repro.simulator.invocation import FunctionDirective, Invocation, StageRecord
from repro.simulator.metrics import InstanceUsage, RunMetrics
from repro.simulator.pools import InstancePool
from repro.telemetry.plane import TelemetryPlane
from repro.utils.rng import ensure_rng
from repro.workload.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.policies.base import Policy
    from repro.simulator.runtime import Runtime

#: Control-window length in seconds (the paper's 1 s counting window).
#: Predictors train on per-window counts of this length
#: (``Trace.counts_per_window(1.0)`` in ``build_environment``), so no other
#: value is consistent with the policies.
WINDOW = 1.0

_INITIALIZING = InstanceState.INITIALIZING
_IDLE = InstanceState.IDLE
_BUSY = InstanceState.BUSY


class _ArrivalStream:
    """One streamed arrival source: times, reserved slots, next index."""

    __slots__ = ("times", "n", "seq_base", "index", "injected")

    def __init__(self, times, seq_base: int, injected: bool) -> None:
        self.times = times
        self.n = len(times)
        self.seq_base = seq_base
        self.index = 0
        self.injected = injected


class SimulationContext:
    """The policy's window into its application's running gateway."""

    def __init__(self, gateway: "Gateway") -> None:
        self._gw = gateway

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._gw.events.now

    @property
    def app(self) -> AppDAG:
        """The application being served."""
        return self._gw.app

    @property
    def window(self) -> float:
        """Control-window length in seconds (1 s in the paper)."""
        return WINDOW

    def directive(self, function: str) -> FunctionDirective:
        """Current standing directive for ``function``."""
        gw = self._gw
        return gw.directives[gw.fn_index[function]]

    def set_directive(
        self,
        function: str,
        directive: FunctionDirective,
        reason: str = "",
    ) -> None:
        """Replace the standing directive for ``function``.

        ``reason`` is the policy's explanation for the change; it is
        recorded on the :class:`~repro.telemetry.events.DirectiveChanged`
        event and surfaces in the decision-audit view
        (:func:`repro.telemetry.audit.decision_audit`).
        """
        gw = self._gw
        fi = gw.fn_index.get(function)
        if fi is None:
            raise KeyError(f"unknown function {function!r}")
        if gw.directives[fi] is None:
            gw._directive_order.append(fi)
        gw.directives[fi] = directive
        if gw.telemetry is not None:
            gw.telemetry.directive(function, directive, reason)

    def schedule_warmup(
        self,
        function: str,
        start_time: float,
        config: HardwareConfig | None = None,
        count: int = 1,
    ) -> None:
        """Ask the gateway to have ``count`` instances warming from ``start_time``.

        Duplicate requests are absorbed: at fire time the gateway only
        launches instances beyond those already initializing or idle.
        """
        self._gw.schedule_warmup(function, start_time, config, count)

    def counts_history(self) -> np.ndarray:
        """Invocation counts of all *completed* windows so far.

        Returns a read-only view into the gateway's append-only count
        buffer — O(1) per call, so per-arrival policies can consult the
        full history without an O(n) copy.  The entries for already
        completed windows never change; successive calls return one more
        entry per completed window.
        """
        return self._gw.counts_view()

    def live_count(
        self, function: str, config: HardwareConfig | None = None
    ) -> int:
        """Instances currently holding resources for ``function``.

        With ``config`` given, count only instances of that configuration.
        """
        gw = self._gw
        return gw.pools[gw.fn_index[function]].live_count(config)

    def idle_count(self, function: str) -> int:
        """Warm idle instances for ``function``."""
        gw = self._gw
        return gw.pools[gw.fn_index[function]].idle_count()

    def queue_length(self, function: str) -> int:
        """Stages queued for ``function``."""
        gw = self._gw
        return len(gw.queues[gw.fn_index[function]])

    def model_resident(self, function: str) -> bool:
        """Whether ``function``'s model weights are host-resident.

        A swap-capable model (see
        :meth:`repro.profiler.profiles.FunctionProfile.swap_time`) whose
        weights are resident will next launch on GPU at swap-in cost, so
        policies can budget the shorter lead when scheduling pre-warms.
        Always ``False`` for fixed (non-swap) profiles.
        """
        return self._gw.runtime.residency.resident(
            (self._gw.app.name, function)
        )


class Gateway:
    """Serves one application's trace on a shared :class:`Runtime`."""

    def __init__(
        self,
        app: AppDAG,
        trace: Trace,
        policy: "Policy",
        *,
        runtime: "Runtime",
        seed: int = 0,
        noisy: bool = True,
    ) -> None:
        self.app = app
        self.trace = trace
        self.policy = policy
        self.runtime = runtime
        self.cluster = runtime.cluster
        self.events = runtime.events
        self.seed = seed
        # Run-wide setting, copied from the runtime so the hot path reads
        # its own attribute.
        self.init_failure_rate = runtime.init_failure_rate
        root = ensure_rng(seed)
        self._fault_rng = np.random.default_rng(int(root.integers(2**32)))
        # The fault, overload and telemetry planes: `None` without a fault
        # plan / overload spec / recorder, so each hook below is a single
        # attribute check and an untraced run builds no event object.
        self.fault_plane = (
            FaultPlane(runtime.faults, self)
            if runtime.faults is not None
            else None
        )
        self.overload_plane = (
            OverloadPlane(runtime.overload, self)
            if runtime.overload is not None
            else None
        )
        self.telemetry = (
            TelemetryPlane(runtime.recorder, self)
            if runtime.recorder is not None
            else None
        )
        # The DAG, compiled to function indices (topological order).
        names = app.function_names
        n = len(names)
        #: Function names by index, and the index of each name.
        self.fn_names: tuple[str, ...] = names
        self.fn_index: dict[str, int] = {f: i for i, f in enumerate(names)}
        index = self.fn_index
        fan_in = [len(app.predecessors(f)) for f in names]
        #: Per function: ``(successor index, its predecessor count)``, in
        #: the order the successors become ready.
        self._successors: list[tuple[tuple[int, int], ...]] = [
            tuple((index[s], fan_in[index[s]]) for s in app.successors(f))
            for f in names
        ]
        self._sources = tuple(index[f] for f in app.sources())
        # Initial predecessor countdown of an invocation; only apps with a
        # join (a stage with several predecessors) need one.
        self._countdown = fan_in if max(fan_in) > 1 else None
        self.oracles: list[GroundTruthPerformance] = [
            GroundTruthPerformance(
                spec.profile, rng=int(root.integers(2**32)), noisy=noisy
            )
            for spec in app.specs
        ]
        # Per-invocation work sampling (token-work regimes).  The stream is
        # drawn from the root *after* the fault and oracle seeds, and only
        # for apps that carry a work model, so work-free apps consume the
        # historical root draw sequence unchanged.
        self._work_model = app.work_model
        self._work_rng = (
            np.random.default_rng(int(root.integers(2**32)))
            if app.work_model is not None
            else None
        )
        # Record retention picks the latency store: "full" keeps every
        # invocation record, "sketch" folds completed latencies into
        # streaming accumulators so memory stays O(1) in the arrival count.
        # `_sketch` is the hot-path bool.
        self.metrics = RunMetrics(
            app=app.name,
            policy=policy.name,
            sla=app.sla,
            retention=runtime.retention,
        )
        self._sketch = runtime.retention == "sketch"
        self.directives: list[FunctionDirective | None] = [None] * n
        # Functions in the order the policy first set their directives:
        # min-warm enforcement launches in this order.
        self._directive_order: list[int] = []
        self.pools = [InstancePool() for _ in names]
        self.queues: list[deque[Invocation]] = [deque() for _ in names]
        self.pending_launches: list[deque[HardwareConfig]] = [
            deque() for _ in names
        ]
        self.pending_stage_demand = [0] * n
        # Append-only per-window arrival counts, kept in a doubling numpy
        # buffer so counts_history() is an O(1) read-only view, not a copy.
        self._counts_buf = np.zeros(256, dtype=np.int64)
        self._counts_len = 0
        self._current_window_count = 0
        self._open_invocations = 0
        self._shutting_down = False
        #: Optional terminal-disposition callback ``(inv, status)`` with
        #: status in {"completed", "timed_out", "shed", "rejected"}.  The
        #: live serving façade (:mod:`repro.serving`) uses it to resolve
        #: in-flight HTTP responses; offline runs never set it, so the
        #: hook costs one attribute check per terminal event.
        self._on_done = None
        self._arrival_seq_base = 0
        self._tick_seq_base = 0
        self._n_windows = 0
        self.ctx = SimulationContext(self)
        # This gateway's event kinds on the shared queue.
        register = self.events.register
        self._ev_arrival = register(self._on_arrival)
        self._ev_tick = register(self._on_tick)
        self._ev_prewarm = register(self._on_prewarm)
        self._ev_warm = register(self._warmup_done)
        self._ev_done = register(self._stage_done)
        self._ev_failed = register(self._execution_failed)
        self._ev_expire = register(self._on_expiry)
        self._ev_retry = register(self._on_retry)

    # ------------------------------------------------------------------ run
    def setup(self) -> None:
        """Register the policy and start the arrival / window-tick streams.

        Arrivals and ticks are *streamed*: only the next event of each chain
        sits in the heap, and it schedules its successor when it fires.
        Sequence blocks are reserved up front so simultaneous events
        tie-break exactly as a fully pre-pushed schedule would.
        """
        if self.telemetry is not None:
            self.telemetry.run_started()
        self.policy.on_register(self.app, self.ctx)
        for fn, directive in zip(self.fn_names, self.directives):
            if directive is None:
                raise RuntimeError(
                    f"policy {self.policy.name!r} left function {fn!r} without a directive"
                )
        self._arrival_seq_base = self.events.reserve(self._arrival_capacity())
        self._n_windows = int(math.ceil(self.trace.duration / WINDOW))
        self._tick_seq_base = self.events.reserve(self._n_windows)
        if len(self.trace):
            self._stream_arrivals(self.trace.times, self._arrival_seq_base)
        if self._n_windows:
            self._schedule_tick(1)
        if self.fault_plane is not None:
            self.fault_plane.start_crowds()

    def _arrival_capacity(self) -> int:
        """Arrival-sequence slots to reserve during :meth:`setup`.

        Equal-time events tie-break by reservation order (arrivals, then
        window ticks, then dynamics), so a live gateway — whose arrivals
        are injected one HTTP request at a time — must reserve the same
        *class* position even though it has no trace yet.  Offline
        gateways reserve exactly one slot per trace arrival.
        """
        return len(self.trace)

    @property
    def open_invocations(self) -> int:
        """Invocations that have arrived but not completed."""
        return self._open_invocations

    # ------------------------------------------------------------- arrivals
    def _stream_arrivals(
        self, times, seq_base: int, *, injected: bool = False
    ) -> None:
        """Start the arrival stream over ``times`` on its reserved slots;
        each arrival schedules its successor when it fires."""
        self.events.post(
            float(times[0]),
            self._ev_arrival,
            _ArrivalStream(times, seq_base, injected),
            seq=seq_base,
        )

    def _on_arrival(self, stream: _ArrivalStream) -> None:
        index = stream.index
        t = float(stream.times[index])
        index += 1
        if index < stream.n:
            stream.index = index
            self.events.post(
                float(stream.times[index]),
                self._ev_arrival,
                stream,
                seq=stream.seq_base + index,
            )
        self._handle_arrival(t, injected=stream.injected)

    def _handle_arrival(
        self, t: float, *, injected: bool = False, generation: int = 0
    ) -> Invocation:
        """One arrival entering the front door (trace, crowd or resubmit).

        The shared path behind trace arrivals, flash-crowd injections and
        retry-storm resubmissions (``generation`` deep): admission control
        first (a rejected invocation never enters the system — no work
        sample, no demand, no ``arrival`` event), then the arrival
        bookkeeping.
        """
        inv = Invocation(self.app.name, t, self.runtime.next_invocation_id())
        if injected:
            self.metrics.injected_arrivals += 1
        overload = self.overload_plane
        if overload is not None and not overload.admit(t):
            self._reject(inv, generation)
            return inv
        if self._work_model is not None:
            inv.work = self._work_model.sample(self._work_rng)
        inv.remaining = n = len(self.fn_names)
        if self._countdown is not None:
            inv.waiting = self._countdown.copy()
        demand = self.pending_stage_demand
        for fi in range(n):
            demand[fi] += 1
        if not self._sketch:
            # The full latency store keeps every record in arrival order.
            self.metrics.invocations.append(inv)
        self._open_invocations += 1
        self._current_window_count += 1
        if self.fault_plane is not None:
            self.fault_plane.track(inv, generation)
        if self.telemetry is not None:
            self.telemetry.arrival(inv)
        self.policy.on_arrival(inv, self.ctx)
        for fi in self._sources:
            self._stage_ready(inv, fi)
            if inv.abandoned_at is not None:
                break  # shed at a full queue: ready no further source
        return inv

    def _reject(self, inv: Invocation, generation: int) -> None:
        """Turn an arrival away at the front door (admission control)."""
        self.metrics.rejected += 1
        if self.telemetry is not None:
            self.telemetry.rejected(inv)
        if self.fault_plane is not None:
            self.fault_plane.resubmit(inv.arrival, generation)
        if self._on_done is not None:
            self._on_done(inv, "rejected")

    def _stage_ready(self, inv: Invocation, fi: int) -> None:
        fn = self.fn_names[fi]
        overload = self.overload_plane
        if overload is not None and not overload.admit_to_queue(inv, fn):
            return
        stages = inv.stages
        rec = stages.get(fn)
        if rec is None:
            rec = stages[fn] = StageRecord(fn)
        rec.ready_at = self.events.now
        if self.telemetry is not None:
            self.telemetry.stage_ready(inv, fn)
        self.queues[fi].append(inv)
        self._dispatch(fi)

    # ------------------------------------------------------------- dispatch
    def _dispatch(self, fi: int) -> None:
        overload = self.overload_plane
        if overload is not None and self.fn_names[fi] in overload.breaker_state:
            overload.dispatch_tripped(self.fn_names[fi])
            return
        directive = self.directives[fi]
        config = directive.config
        batch = directive.batch
        queue = self.queues[fi]
        pool = self.pools[fi]
        while queue:
            inst = pool.pick_idle(config)
            if inst is None:
                break
            # The batch limit is sized for the directive's configuration; a
            # stale-config instance serves sequentially so a large batch
            # cannot blow its (slower) stage latency.
            if batch == 1 or inst.config.slot != config.slot:
                items = [queue.popleft()]
            else:
                items = [queue.popleft() for _ in range(min(batch, len(queue)))]
            self._execute(inst, items)
        if queue:
            # Cover the backlog with launches, accounting for instances that
            # are already initializing and will drain the queue when warm.
            initializing = pool.initializing_count() + len(
                self.pending_launches[fi]
            )
            shortfall = len(queue) - initializing * batch
            if shortfall > 0:
                for _ in range(math.ceil(shortfall / batch)):
                    self._launch(fi, config)

    def _execute(self, inst: Instance, items: list[Invocation]) -> None:
        events = self.events
        now = events.now
        fi = inst.fn_index
        batch_n = len(items)
        work: WorkUnit | None = None
        if self._work_model is not None:
            drawn = [inv.work for inv in items if inv.work is not None]
            if drawn:
                # Padded-batch semantics: the batch runs at its longest
                # member's token counts.
                work = WorkUnit.combine(drawn)
        exec_time = self.oracles[fi].inference_time(inst.config, batch_n, work)
        faults = self.fault_plane
        fail_at: float | None = None
        if faults is not None:
            exec_time, fail_at = faults.execution(inst, exec_time, now)
        inst.mark_busy(now, batch_n)
        self.pools[fi].transition(inst, _IDLE)
        if inst.expiry_timer is not None:
            inst.expiry_timer.cancel()
            inst.expiry_timer = None
        self.pending_stage_demand[fi] -= batch_n
        fn = inst.function
        instance_id = inst.instance_id
        warm_at = inst.warm_at
        cold = 0
        for inv in items:
            rec = inv.stages[fn]
            rec.started_at = now
            rec.instance_id = instance_id
            rec.batch = batch_n
            rec.cold_start = started_cold = warm_at > rec.ready_at
            cold += started_cold
        metrics = self.metrics
        metrics.stage_executions += batch_n
        metrics.cold_stage_executions += cold
        if self.telemetry is not None:
            self.telemetry.batch_started(inst, items, exec_time, work)
        # Track the batch so a machine outage can cancel it mid-flight and
        # hand the items to the retry path; only then is the completion
        # timer a cancellable handle.
        inst.inflight = items
        if faults is None:
            events.post(now + exec_time, self._ev_done, (inst, items, exec_time))
        elif fail_at is None:
            inst.done_timer = events.post_cancellable(
                now + exec_time, self._ev_done, (inst, items, exec_time)
            )
        else:
            inst.done_timer = events.post_cancellable(
                now + fail_at, self._ev_failed, inst
            )

    def _stage_done(
        self, batch: tuple[Instance, list[Invocation], float]
    ) -> None:
        inst, items, exec_time = batch
        now = self.events.now
        inst.inflight = None
        inst.done_timer = None
        inst.mark_idle(now, exec_time)
        fi = inst.fn_index
        self.pools[fi].transition(inst, _BUSY)
        fn = inst.function
        successors = self._successors[fi]
        telemetry = self.telemetry
        policy = self.policy
        ctx = self.ctx
        for inv in items:
            if inv.abandoned_at is not None:
                # Abandoned mid-flight (deadline fired while executing):
                # the work completes but no longer counts for anything.
                continue
            inv.stages[fn].finished_at = now
            inv.remaining -= 1
            if telemetry is not None:
                telemetry.stage_finished(inv, fn, inst)
            policy.on_stage_complete(inv, fn, ctx)
            for succ, fan_in in successors:
                if fan_in > 1:
                    # A join: ready once its last predecessor finished.
                    waiting = inv.waiting
                    waiting[succ] -= 1
                    if waiting[succ]:
                        continue
                self._stage_ready(inv, succ)
                if inv.abandoned_at is not None:
                    break  # shed at a full queue: ready no further successor
            if inv.remaining == 0:
                inv.completed_at = now
                inv.waiting = None
                self._open_invocations -= 1
                if self.fault_plane is not None:
                    self.fault_plane.release(inv)
                latency = now - inv.arrival
                self.metrics.record_completion(latency)
                if telemetry is not None:
                    telemetry.completed(inv, latency)
                if self._on_done is not None:
                    self._on_done(inv, "completed")
        if self.overload_plane is not None:
            self.overload_plane.batch_succeeded(fn)
        if self.queues[fi]:
            self._dispatch(fi)
        if inst.state is _IDLE:
            self._arm_expiry(inst)

    # ------------------------------------------------------------- resilience
    def evict_machine(self, index: int) -> None:
        """Terminate every live instance on a crashed machine.

        Called by the runtime's outage machinery when a machine goes down.
        In-flight batches are cancelled and requeued through the retry
        path; afterwards dispatch runs so surviving capacity absorbs the
        displaced work.
        """
        for pool in self.pools:
            doomed = [
                inst
                for inst in pool
                if inst.is_live and inst.placement.machine == index
            ]
            for inst in doomed:
                self._kill(inst, reason="machine-failed")
        for fi, queue in enumerate(self.queues):
            if queue:
                self._dispatch(fi)

    def _execution_failed(self, inst: Instance) -> None:
        """An injected fault killed the batch mid-flight."""
        fn = inst.function
        self.metrics.failed_executions += 1
        if self.telemetry is not None:
            self.telemetry.execution_failed(inst)
        if self.overload_plane is not None:
            self.overload_plane.batch_failed(fn)
        self._kill(inst, reason="execution-failed")

    def _kill(self, inst: Instance, *, reason: str) -> None:
        """Terminate a live instance and requeue its in-flight batch."""
        items = inst.inflight
        if inst.done_timer is not None:
            inst.done_timer.cancel()  # a no-op once the timer has fired
        inst.inflight = None
        inst.done_timer = None
        self._terminate(inst, reason=reason)
        if items:
            self._requeue(inst.fn_index, items)

    def _requeue(self, fi: int, items: list[Invocation]) -> None:
        """Send a failed batch's invocations back through the retry path.

        Each item's stage record is reset to unstarted and its demand
        charge restored, then the stage is re-readied after the fault
        plane's backoff — unless the invocation's retry budget is
        exhausted, in which case it is given up on.  Only injected faults
        fail a batch, so the fault plane is always present here.
        """
        faults = self.fault_plane
        fn = self.fn_names[fi]
        for inv in items:
            if inv.abandoned_at is not None or inv.finished:
                continue
            rec = inv.stages[fn]
            rec.started_at = None
            rec.instance_id = None
            rec.batch = 0
            rec.cold_start = False
            self.pending_stage_demand[fi] += 1
            inv.retries += 1
            delay = faults.retry_delay(inv)
            if delay is None:
                self._give_up(inv, "timed_out", reason="retries-exhausted")
                continue
            self.metrics.stage_retries += 1
            if self.telemetry is not None:
                self.telemetry.retried(inv, fn, delay)
            self.events.post(self.events.now + delay, self._ev_retry, (inv, fi))

    def _on_retry(self, retry: tuple[Invocation, int]) -> None:
        inv, fi = retry
        if inv.abandoned_at is not None or self._shutting_down:
            return
        self._stage_ready(inv, fi)

    def _give_up(
        self,
        inv: Invocation,
        status: str,
        *,
        reason: str,
        function: str | None = None,
    ) -> None:
        """Give up on an open invocation: ``timed_out`` or ``shed``.

        A deadline that passed or an exhausted retry budget times an
        invocation out; a full bounded queue at ``function`` sheds it.
        Unstarted stages release their demand charges and leave the
        queues; a stage currently executing is left to finish (its result
        is discarded in :meth:`_stage_done`).  Both statuses are disjoint
        from completed and ``unfinished``; a shed invocation may be
        resubmitted by a retry storm.
        """
        if inv.finished or inv.abandoned_at is not None:
            return
        now = self.events.now
        inv.abandoned_at = now
        shed = status == "shed"
        if self.fault_plane is not None:
            self.fault_plane.release(inv, resubmit=shed)
        for fi, fn in enumerate(self.fn_names):
            rec = inv.stages.get(fn)
            started = rec is not None and rec.started_at is not None
            if not started:
                self.pending_stage_demand[fi] -= 1
                if (
                    rec is not None
                    and rec.ready_at is not None
                    and rec.finished_at is None
                ):
                    try:
                        self.queues[fi].remove(inv)
                    except ValueError:
                        pass  # ready but not queued (retry backoff pending)
        self._open_invocations -= 1
        if shed:
            self.metrics.shed += 1
        else:
            self.metrics.timed_out += 1
        if self.telemetry is not None:
            self.telemetry.gave_up(inv, status, reason=reason, function=function)
        if self._on_done is not None:
            self._on_done(inv, status)

    def _activate_fallback(
        self,
        fn: str,
        from_config: HardwareConfig,
        to_config: HardwareConfig,
        *,
        reason: str,
    ) -> None:
        """Record one graceful-degradation step (a plane degraded ``fn``)."""
        self.metrics.fallbacks += 1
        if self.telemetry is not None:
            self.telemetry.fallback(fn, from_config, to_config, reason)

    # ------------------------------------------------------------- lifecycle
    def _launch(
        self, fi: int, config: HardwareConfig, *, prewarm: bool = False
    ) -> Instance | None:
        placement = self.cluster.try_allocate(config)
        faults = self.fault_plane
        fn = self.fn_names[fi]
        if placement is None:
            if faults is not None:
                fallback = faults.starvation_fallback(fn, config)
                if fallback is not None:
                    return self._launch(fi, fallback, prewarm=prewarm)
            self.pending_launches[fi].append(config)
            return None
        if faults is not None:
            faults.placed(fn, config)
        oracle = self.oracles[fi]
        swapped = (
            config.backend is Backend.GPU
            and oracle.supports_swap
            and self.runtime.residency.resident((self.app.name, fn))
        )
        if swapped:
            # The model's weights are host-resident: page them onto the
            # GPU (swap-in, ≪ cold start) instead of re-initializing.
            init = oracle.swap_in_time(config)
            self.runtime.residency.touch((self.app.name, fn))
        else:
            init = oracle.init_time(config)
        inst = Instance(
            function=fn,
            config=config,
            placement=placement,
            launched_at=self.events.now,
            init_duration=init,
            instance_id=self.runtime.next_instance_id(),
            fn_index=fi,
            prewarmed=prewarm,
            swapped_in=swapped,
        )
        self.pools[fi].add(inst)
        self.metrics.initializations += 1
        if swapped:
            self.metrics.swap_ins += 1
        if self.telemetry is not None:
            self.telemetry.launched(inst)
        self.events.post(self.events.now + init, self._ev_warm, inst)
        return inst

    def _warmup_done(self, inst: Instance) -> None:
        if not inst.is_live:
            return
        faults = self.fault_plane
        rate = self.init_failure_rate
        if faults is not None:
            rate = faults.init_failure_rate(rate, self.events.now)
        fi = inst.fn_index
        if rate > 0.0 and self._fault_rng.random() < rate:
            # Initialization failed (image pull error, OOM during model
            # load, ...): the container is torn down — billed for the failed
            # attempt — and replaced, as a real platform's crash-loop would.
            self.metrics.failed_initializations += 1
            if self.telemetry is not None:
                self.telemetry.init_failed(inst)
            self._terminate(inst, reason="init-failed")
            if self._shutting_down:
                return
            # Replace it; a fault plane caps the crash loop.
            if faults is None:
                self._launch(fi, inst.config)
            else:
                faults.relaunch(inst.function, inst.config)
            return
        if faults is not None:
            faults.warmed(inst.function)
        oracle = self.oracles[fi]
        if (
            inst.config.backend is Backend.GPU
            and not inst.swapped_in
            and oracle.supports_swap
        ):
            # A completed full GPU initialization leaves the weights pinned
            # in host memory: later launches page them in at swap cost.
            # LRU admission can push other residents out (possibly another
            # tenant's) — their next launch cold-starts again.
            evicted = self.runtime.residency.admit(
                (self.app.name, inst.function), oracle.profile.mem_knee_gb
            )
            if self.telemetry is not None:
                self.telemetry.evicted(evicted)
        inst.mark_warm(self.events.now)
        self.pools[fi].transition(inst, _INITIALIZING)
        if self.queues[fi]:
            self._dispatch(fi)
        if inst.state is _IDLE:
            self._arm_expiry(inst)

    def _arm_expiry(self, inst: Instance) -> None:
        directive = self.directives[inst.fn_index]
        keep_alive = directive.keep_alive
        if inst.batches_served == 0:
            # Freshly pre-warmed, still waiting for its predicted arrival.
            keep_alive = max(keep_alive, directive.warm_grace)
        if math.isinf(keep_alive):
            return
        if inst.expiry_timer is not None:
            inst.expiry_timer.cancel()
        events = self.events
        inst.expiry_timer = events.post_cancellable(
            events.now + max(keep_alive, 0.0), self._ev_expire, inst
        )

    def _on_expiry(self, inst: Instance) -> None:
        inst.expiry_timer = None
        if inst.state is _IDLE:
            self._terminate(inst, reason="keep-alive-expired")

    def _terminate(self, inst: Instance, *, reason: str = "shutdown") -> None:
        if not inst.is_live:
            return
        if inst.expiry_timer is not None:
            inst.expiry_timer.cancel()
            inst.expiry_timer = None
        prev_state = inst.state
        inst.mark_terminated(self.events.now)
        self.cluster.release(inst.placement)
        usage = InstanceUsage.from_instance(inst, self.events.now)
        self.metrics.record_instance(usage)
        if self.telemetry is not None:
            self.telemetry.terminated(inst, usage, reason)
        self.pools[inst.fn_index].remove(inst, prev_state)
        self.retry_pending_launches()

    def _pending_count(self, fi: int, config: HardwareConfig | None) -> int:
        """Launches of ``fi`` waiting for capacity (of one config, or all)."""
        pending = self.pending_launches[fi]
        return len(pending) if config is None else pending.count(config)

    def retry_pending_launches(self) -> None:
        """Re-attempt queued launches (capacity may have been restored)."""
        if self._shutting_down:
            return
        for fi, pending in enumerate(self.pending_launches):
            while pending:
                config = pending[0]
                placement = self.cluster.try_allocate(config)
                if placement is None:
                    # This function's head launch does not fit, but another
                    # function's (smaller) pending launch still might: move
                    # on rather than blocking the whole retry pass.
                    break
                self.cluster.release(placement)  # _launch re-allocates
                pending.popleft()
                self._launch(fi, config)

    def schedule_warmup(
        self,
        function: str,
        start_time: float,
        config: HardwareConfig | None = None,
        count: int = 1,
    ) -> None:
        """Launch up to ``count`` instances at ``start_time`` (deduplicated)."""
        fi = self.fn_index.get(function)
        if fi is None:
            raise KeyError(f"unknown function {function!r}")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if self.telemetry is not None:
            self.telemetry.prewarm_scheduled(function, start_time, config, count)
        self.events.post(start_time, self._ev_prewarm, (fi, config, count))

    def _on_prewarm(
        self, request: tuple[int, HardwareConfig | None, int]
    ) -> None:
        fi, config, count = request
        directive = self.directives[fi]
        cfg = config or directive.config
        # Launches still waiting for cluster capacity will come up as
        # uncommitted instances too; launching more would only queue
        # behind them.
        uncommitted = self.pools[fi].uncommitted_count(
            config
        ) + self._pending_count(fi, config)
        # Instances already owed to open invocations — queued here or
        # still traversing upstream stages — don't count as available
        # for the upcoming invocation this warm-up targets.
        claimed = math.ceil(self.pending_stage_demand[fi] / directive.batch)
        available = max(0, uncommitted - claimed)
        for _ in range(max(0, count - available)):
            self._launch(fi, cfg, prewarm=True)

    # ------------------------------------------------------------- windows
    def _append_window_count(self, arrivals: int) -> None:
        if self._counts_len == self._counts_buf.size:
            grown = np.zeros(self._counts_buf.size * 2, dtype=np.int64)
            grown[: self._counts_len] = self._counts_buf
            self._counts_buf = grown
        self._counts_buf[self._counts_len] = arrivals
        self._counts_len += 1

    def counts_view(self) -> np.ndarray:
        """Read-only view of all completed per-window arrival counts."""
        view = self._counts_buf[: self._counts_len]
        view.setflags(write=False)
        return view

    def _schedule_tick(self, k: int) -> None:
        self.events.post(
            k * WINDOW, self._ev_tick, k, seq=self._tick_seq_base + k - 1
        )

    def _on_tick(self, k: int) -> None:
        if k < self._n_windows:
            self._schedule_tick(k + 1)
        arrivals = self._current_window_count
        self._append_window_count(arrivals)
        self.metrics.arrival_samples.append((self.events.now, arrivals))
        self._current_window_count = 0
        cpu_pods = gpu_pods = 0
        for pool in self.pools:
            cpu, gpu = pool.backend_live_counts()
            cpu_pods += cpu
            gpu_pods += gpu
        self.metrics.pod_samples.append((self.events.now, cpu_pods, gpu_pods))
        if self.telemetry is not None:
            self.telemetry.window(k - 1, arrivals, cpu_pods, gpu_pods)
        self.policy.on_window(self.events.now, self.ctx)
        if self.overload_plane is not None:
            self.overload_plane.on_window()
        self._enforce_min_warm()

    def _enforce_min_warm(self) -> None:
        now = self.events.now
        for fi in self._directive_order:
            directive = self.directives[fi]
            pool = self.pools[fi]
            cfg = directive.config
            # Snapshot before deficit launches: the sweep's fleet-size floor
            # must not count instances launched within this very pass.
            live_n = pool.live_count()
            deficit = directive.min_warm - pool.live_count(cfg)
            # Same-config launches still waiting for capacity already cover
            # part of the deficit: re-requesting them every window would
            # grow the pending queue without bound on a full cluster.
            for _ in range(deficit - self._pending_count(fi, cfg)):
                self._launch(fi, cfg)
            if deficit < 0 and math.isinf(directive.keep_alive):
                # Always-on fleets are sized purely by min_warm: shed idle
                # instances beyond the target.
                excess = -deficit
                for inst in pool.idle_sorted(config=cfg)[:excess]:
                    self._terminate(inst, reason="scale-in")
            # Retire stale-config idle instances once the directive's own
            # configuration has *warm* coverage — retiring against merely
            # initializing replacements opens a cold window.
            if pool.warm_count(cfg) >= max(directive.min_warm, 1):
                for inst in pool.idle_sorted():
                    if inst.config != cfg:
                        self._terminate(inst, reason="stale-config")
            elif not math.isinf(directive.keep_alive):
                # Sweep idle instances whose expiry timer was armed under a
                # previous (longer or infinite) keep-alive directive.
                for inst in pool.idle_sorted():
                    grace = directive.keep_alive
                    if inst.batches_served == 0:
                        grace = max(grace, directive.warm_grace)
                    if (
                        now - inst.idle_since > grace + 1e-9
                        and live_n > directive.min_warm
                    ):
                        self._terminate(inst, reason="keep-alive-sweep")
                        live_n -= 1

    # ------------------------------------------------------------- teardown
    def finalize(self) -> RunMetrics:
        """Terminate remaining instances and seal the metrics."""
        self._shutting_down = True
        now = self.events.now
        if self.fault_plane is not None:
            self.fault_plane.cancel_deadlines()
        for pool in self.pools:
            for inst in list(pool):
                if inst.is_live:
                    self._terminate(inst, reason="shutdown")
        self.metrics.seal(duration=now, unfinished=self._open_invocations)
        if self.telemetry is not None:
            self.telemetry.run_finished()
        return self.metrics
