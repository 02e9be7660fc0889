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

Hot-path structure (see ``docs/performance.md``): instance lifecycle state
lives in per-function :class:`~repro.simulator.pools.InstancePool` indexes,
arrivals and window ticks are *streamed* (each event schedules its
successor on a pre-reserved sequence block, keeping the event heap
O(live events) instead of O(trace length)), and keep-alive expiry timers
are cancelled on dispatch instead of left to fire as dead closures.

Observability (see ``docs/observability.md``): every point that mutates a
:class:`~repro.simulator.metrics.RunMetrics` counter also emits a typed
:mod:`repro.telemetry.events` event through the runtime's recorder, so
the metrics are reconstructible from a recorded trace
(:func:`repro.telemetry.aggregate.aggregate`).  Emission is guarded by
one ``self._rec is not None`` check per site; under the default
:class:`~repro.telemetry.recorder.NullRecorder` no event object is ever
built and the hot loop is unchanged.
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from repro.dag.graph import AppDAG
from repro.hardware.configs import Backend, HardwareConfig
from repro.hardware.perfmodel import GroundTruthPerformance
from repro.hardware.servicetime import WorkUnit
from repro.simulator.container import Instance, InstanceState
from repro.simulator.invocation import FunctionDirective, Invocation
from repro.simulator.metrics import InstanceUsage, RunMetrics
from repro.simulator.pools import InstancePool
from repro.telemetry.events import (
    Arrival,
    ColdStart,
    DirectiveChanged,
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
    ModelEvicted,
    PrewarmHit,
    PrewarmMiss,
    PrewarmScheduled,
    RunFinished,
    RunStarted,
    SlaViolation,
    StageFinish,
    StageReady,
    StageRetried,
    StageStart,
    TokenStage,
    WindowTick,
)
from repro.utils.rng import ensure_rng
from repro.workload.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.faults.plan import FaultPlan, ResilienceSpec
    from repro.overload.spec import OverloadSpec, TokenBucket
    from repro.policies.base import Policy
    from repro.simulator.events import TimerHandle
    from repro.simulator.runtime import Runtime

#: Termination reasons that mean a pre-warmed instance genuinely expired
#: unused — the only ones that should count as a :class:`PrewarmMiss`.
#: Run shutdown, init failures and fault-injected kills (machine outages,
#: mid-flight execution failures) say nothing about the policy's warm-up
#: prediction being wrong.
_GENUINE_EXPIRY = frozenset(
    {"keep-alive-expired", "keep-alive-sweep", "scale-in", "stale-config"}
)

#: Control-window length in seconds (the paper's 1 s counting window).
#: Predictors train on per-window counts of this length
#: (``Trace.counts_per_window(1.0)`` in ``build_environment``), so no other
#: value is consistent with the policies.
WINDOW = 1.0


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
        return self._gw.directives[function]

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
        if function not in self._gw.app.function_names:
            raise KeyError(f"unknown function {function!r}")
        self._gw.directives[function] = directive
        self._gw.record_directive(function, directive, reason)

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
        return self._gw.pools[function].live_count(config)

    def idle_count(self, function: str) -> int:
        """Warm idle instances for ``function``."""
        return self._gw.pools[function].idle_count()

    def queue_length(self, function: str) -> int:
        """Stages queued for ``function``."""
        return len(self._gw.queues[function])

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
        gpu_contention: float = 0.0,
    ) -> None:
        if gpu_contention < 0.0:
            raise ValueError(
                f"gpu_contention must be >= 0, got {gpu_contention}"
            )
        self.app = app
        self.trace = trace
        self.policy = policy
        self.runtime = runtime
        self.cluster = runtime.cluster
        self.events = runtime.events
        # Telemetry: `None` under the NullRecorder so every emission point
        # is a single attribute check and no event object is built.
        self._rec = runtime.recorder if runtime.recorder.enabled else None
        self.seed = seed
        # Run-wide setting, copied from the runtime so the hot path reads
        # its own attribute.
        self.init_failure_rate = runtime.init_failure_rate
        self.gpu_contention = float(gpu_contention)
        root = ensure_rng(seed)
        self._fault_rng = np.random.default_rng(int(root.integers(2**32)))
        # Fault-injection plane (None in the default, fault-free regime;
        # every hook below is a single attribute check when inactive).
        faults = runtime.faults
        self._faults: "FaultPlan | None" = faults
        self._resilience: "ResilienceSpec | None" = (
            faults.resilience if faults is not None else None
        )
        self._fallback_config: HardwareConfig | None = (
            HardwareConfig.from_key(self._resilience.fallback_config)
            if self._resilience is not None
            else None
        )
        self._crash_loops: dict[str, int] = {}
        self._gpu_starved: dict[str, int] = {}
        self._deadline_timers: dict[int, "TimerHandle"] = {}
        # Overload-resilience plane (None in the default regime; every hook
        # below is a single attribute check when inactive, and no RNG is
        # involved — overload decisions are pure functions of time/state).
        overload = runtime.overload
        self._overload: "OverloadSpec | None" = overload
        self._admission: "TokenBucket | None" = (
            overload.make_bucket() if overload is not None else None
        )
        self._degraded_config: HardwareConfig | None = (
            HardwareConfig.from_key(overload.degraded_config)
            if overload is not None
            else None
        )
        #: fn -> consecutive batch failures (circuit-breaker arming count).
        self._breaker_fails: dict[str, int] = {}
        #: fn -> "open" | "half-open" | "probing" (absent = closed).
        self._breaker_state: dict[str, str] = {}
        #: fn -> the policy directive saved while a brownout tier is active.
        self._brownout_saved: dict[str, FunctionDirective] = {}
        #: invocation id -> retry-storm resubmission generation (> 0 only);
        #: dropped once the invocation completes, times out, or is shed or
        #: rejected (the last two resubmit it as a fresh id).
        self._storm_generation: dict[int, int] = {}
        self._crowd_times: tuple[float, ...] = ()
        self._crowd_seq_base = 0
        self.oracles: dict[str, GroundTruthPerformance] = {
            spec.name: GroundTruthPerformance(
                spec.profile, rng=int(root.integers(2**32)), noisy=noisy
            )
            for spec in app.specs
        }
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
        self.directives: dict[str, FunctionDirective] = {}
        self.pools: dict[str, InstancePool] = {
            f: InstancePool() for f in app.function_names
        }
        self.queues: dict[str, deque[Invocation]] = {
            f: deque() for f in app.function_names
        }
        self.pending_launches: dict[str, deque[HardwareConfig]] = {
            f: deque() for f in app.function_names
        }
        # Append-only per-window arrival counts, kept in a doubling numpy
        # buffer so counts_history() is an O(1) read-only view, not a copy.
        self._counts_buf = np.zeros(256, dtype=np.int64)
        self._counts_len = 0
        self.pending_stage_demand: dict[str, int] = {
            f: 0 for f in app.function_names
        }
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

    # ------------------------------------------------------------------ run
    def setup(self) -> None:
        """Register the policy and start the arrival / window-tick streams.

        Arrivals and ticks are *streamed*: only the next event of each chain
        sits in the heap, and it schedules its successor when it fires.
        Sequence blocks are reserved up front so simultaneous events
        tie-break exactly as a fully pre-pushed schedule would.
        """
        if self._rec is not None:
            self._rec.emit(
                RunStarted(
                    t=self.events.now,
                    app=self.app.name,
                    policy=self.policy.name,
                    sla=self.app.sla,
                    window=WINDOW,
                    functions=tuple(self.app.function_names),
                )
            )
        self.policy.on_register(self.app, self.ctx)
        for fn in self.app.function_names:
            if fn not in self.directives:
                raise RuntimeError(
                    f"policy {self.policy.name!r} left function {fn!r} without a directive"
                )
        n_arrivals = self._arrival_capacity()
        self._arrival_seq_base = self.events.reserve(n_arrivals)
        self._n_windows = int(math.ceil(self.trace.duration / WINDOW))
        self._tick_seq_base = self.events.reserve(self._n_windows)
        if n_arrivals:
            self._schedule_arrival(0)
        if self._n_windows:
            self._schedule_tick(1)
        if self._faults is not None and self._faults.flash_crowds:
            # Flash-crowd injections stream exactly like trace arrivals,
            # on their own reserved sequence block (reserved only when a
            # crowd exists, so crowd-free plans keep the historical
            # tie-break order byte for byte).
            self._crowd_times = self._faults.injected_times()
            self._crowd_seq_base = self.events.reserve(len(self._crowd_times))
            if self._crowd_times:
                self._schedule_crowd(0)

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

    def record_directive(
        self, function: str, directive: FunctionDirective, reason: str
    ) -> None:
        """Emit the ``DirectiveChanged`` audit event for one update."""
        if self._rec is not None:
            self._rec.emit(
                DirectiveChanged(
                    t=self.events.now,
                    app=self.app.name,
                    function=function,
                    config=directive.config.key,
                    keep_alive=directive.keep_alive,
                    batch=directive.batch,
                    min_warm=directive.min_warm,
                    warm_grace=directive.warm_grace,
                    reason=reason,
                )
            )

    # ------------------------------------------------------------- arrivals
    def _schedule_arrival(self, index: int) -> None:
        t = float(self.trace.times[index])
        self.events.schedule(
            t, self._make_arrival(t, index), seq=self._arrival_seq_base + index
        )

    def _make_arrival(self, t: float, index: int):
        def fire() -> None:
            if index + 1 < len(self.trace):
                self._schedule_arrival(index + 1)
            self._handle_arrival(t)

        return fire

    def _schedule_crowd(self, index: int) -> None:
        t = self._crowd_times[index]

        def fire() -> None:
            if index + 1 < len(self._crowd_times):
                self._schedule_crowd(index + 1)
            self._handle_arrival(t, injected=True)

        self.events.schedule(t, fire, seq=self._crowd_seq_base + index)

    def _handle_arrival(
        self, t: float, *, injected: bool = False, generation: int = 0
    ) -> Invocation:
        """One arrival entering the front door (trace, crowd or resubmit).

        The shared path behind trace arrivals, flash-crowd injections and
        retry-storm resubmissions: admission control first (a rejected
        invocation never enters the system — no work sample, no demand, no
        ``arrival`` event), then the historical arrival bookkeeping in its
        exact original operation order.
        """
        inv = Invocation(
            app=self.app.name,
            arrival=t,
            invocation_id=self.runtime.next_invocation_id(),
        )
        if injected or generation:
            self.metrics.injected_arrivals += 1
        if generation:
            self._storm_generation[inv.invocation_id] = generation
        if self._admission is not None and not self._admission.admit(t):
            self.metrics.rejected += 1
            if self._rec is not None:
                self._rec.emit(
                    InvocationRejected(
                        t=t, app=self.app.name, invocation_id=inv.invocation_id
                    )
                )
            self._maybe_resubmit(inv, t)
            if self._on_done is not None:
                self._on_done(inv, "rejected")
            return inv
        if self._work_model is not None:
            inv.work = self._work_model.sample(self._work_rng)
        inv.remaining = len(self.app)  # type: ignore[attr-defined]
        for fn in self.app.function_names:
            self.pending_stage_demand[fn] += 1
        if not self._sketch:
            # The full latency store keeps every record in arrival order.
            self.metrics.invocations.append(inv)
        self._open_invocations += 1
        self._current_window_count += 1
        res = self._resilience
        if res is not None and res.deadline_factor is not None:
            self._arm_deadline(inv)
        if self._rec is not None:
            self._rec.emit(
                Arrival(
                    t=t, app=self.app.name, invocation_id=inv.invocation_id
                )
            )
        self.policy.on_arrival(inv, self.ctx)
        for fn in self.app.sources():
            self._stage_ready(inv, fn)
        return inv

    def _maybe_resubmit(self, inv: Invocation, t: float) -> None:
        """Retry-storm amplification: resubmit a shed/rejected invocation.

        A fresh invocation (new id, counted ``injected``) re-enters the
        front door after the storm's delay, up to ``resubmits``
        generations deep per original arrival.
        """
        faults = self._faults
        if faults is None or not faults.retry_storms:
            return
        storm = faults.storm_for(t)
        if storm is None:
            return
        generation = self._storm_generation.pop(inv.invocation_id, 0)
        if generation >= storm.resubmits:
            return

        def fire() -> None:
            if self._shutting_down:
                return
            self._handle_arrival(self.events.now, generation=generation + 1)

        self.events.schedule_in(storm.delay, fire)

    def _stage_ready(self, inv: Invocation, fn: str) -> None:
        if self._overload is not None:
            if self._overload.bounds_queues and not self._admit_to_queue(
                inv, fn
            ):
                return
        inv.stage(fn).ready_at = self.events.now
        if self._rec is not None:
            self._rec.emit(
                StageReady(
                    t=self.events.now,
                    app=self.app.name,
                    invocation_id=inv.invocation_id,
                    function=fn,
                )
            )
        self.queues[fn].append(inv)
        if self._overload is not None:
            depth = len(self.queues[fn])
            if depth > self.metrics.peak_queue_depth:
                self.metrics.peak_queue_depth = depth
        self._dispatch(fn)

    def _admit_to_queue(self, inv: Invocation, fn: str) -> bool:
        """Enforce the bounded queue: shed one invocation when full.

        Returns ``False`` when the *incoming* invocation was the victim
        (the caller must not enqueue it); ``True`` otherwise — possibly
        after evicting a queued victim to make room.

        Victim selection per ``shed_policy``: ``reject-newest`` drops the
        incoming invocation; ``drop-oldest`` drops the head of the queue;
        ``deadline-aware`` drops the invocation least likely to meet its
        SLA — the one with the earliest arrival (least remaining slack)
        among the incoming and queued candidates, deterministic on ties.
        """
        spec = self._overload
        queue = self.queues[fn]
        if len(queue) < spec.queue_limit:
            return True
        policy = spec.shed_policy
        if policy == "reject-newest":
            victim = inv
        elif policy == "drop-oldest":
            victim = queue[0]
        else:  # deadline-aware
            victim = inv
            for queued in queue:
                if queued.arrival < victim.arrival:
                    victim = queued
        if victim is inv:
            self._shed(inv, function=fn, reason=policy)
            return False
        queue.remove(victim)
        self._shed(victim, function=fn, reason=policy)
        return True

    # ------------------------------------------------------------- dispatch
    def _dispatch(self, fn: str) -> None:
        directive = self.directives[fn]
        queue = self.queues[fn]
        pool = self.pools[fn]
        breaker = None
        if self._breaker_state:
            breaker = self._breaker_state.get(fn)
            if breaker == "open" or breaker == "probing":
                # Circuit open: no dispatch, no launches, until the
                # cool-down's half-open probe (or its resolution).
                return
        while queue:
            inst = pool.pick_idle(directive.config)
            if inst is None:
                break
            # The batch limit is sized for the directive's configuration; a
            # stale-config instance serves sequentially so a large batch
            # cannot blow its (slower) stage latency.
            limit = directive.batch if inst.config == directive.config else 1
            if breaker is not None:  # half-open: a single size-1 probe
                limit = 1
            batch_n = min(limit, len(queue))
            items = [queue.popleft() for _ in range(batch_n)]
            self._execute(inst, items)
            if breaker is not None:
                self._breaker_state[fn] = "probing"
                return
        if queue:
            # Cover the backlog with launches, accounting for instances that
            # are already initializing and will drain the queue when warm.
            initializing = pool.initializing_count() + len(
                self.pending_launches[fn]
            )
            capacity = initializing * directive.batch
            shortfall = len(queue) - capacity
            if shortfall > 0:
                n_launches = math.ceil(shortfall / directive.batch)
                if breaker is not None:
                    # Half-open with no warm instance: launch at most one
                    # container to host the probe.
                    n_launches = 1 if initializing == 0 else 0
                for _ in range(n_launches):
                    self._launch(fn, directive.config)

    def _execute(self, inst: Instance, items: list[Invocation]) -> None:
        now = self.events.now
        batch_n = len(items)
        work: WorkUnit | None = None
        if self._work_model is not None:
            drawn = [inv.work for inv in items if inv.work is not None]
            if drawn:
                # Padded-batch semantics: the batch runs at its longest
                # member's token counts.
                work = WorkUnit.combine(drawn)
        exec_time = self.oracles[inst.function].inference_time(
            inst.config, batch_n, work=work
        )
        if self.gpu_contention > 0.0 and inst.config.backend is Backend.GPU:
            # MPS co-location slowdown (§IV-A2: PCIe/GPU-memory contention
            # between instances sharing a device): scale with the fraction
            # of the device allocated to *other* instances.
            machine = self.cluster.machines[inst.placement.machine]
            others = machine.gpu_slots_used - inst.config.mps_slots
            share = max(0, others) / machine.gpu_slots_total
            exec_time *= 1.0 + self.gpu_contention * share
        fail_at: float | None = None
        if self._faults is not None:
            factor = self._faults.straggler_factor(
                inst.function, inst.config.backend.value, now
            )
            if factor != 1.0:
                exec_time *= factor
            rate = self._faults.execution_fault_rate(inst.function, now)
            if rate > 0.0 and self._fault_rng.random() < rate:
                # The batch dies part-way through execution; the fraction
                # completed before the crash is uniform, so the instance is
                # billed for real (wasted) work before the retry path runs.
                fail_at = exec_time * float(self._fault_rng.random())
        inst.mark_busy(now, batch_n)
        self.pools[inst.function].transition(inst, InstanceState.IDLE)
        if inst.expiry_timer is not None:
            inst.expiry_timer.cancel()
            inst.expiry_timer = None
        self.pending_stage_demand[inst.function] -= batch_n
        cold = 0
        for inv in items:
            rec = inv.stage(inst.function)
            rec.started_at = now
            rec.instance_id = inst.instance_id
            rec.batch = batch_n
            rec.cold_start = inst.warm_at > (rec.ready_at or 0.0)
            cold += rec.cold_start
        self.metrics.stage_executions += batch_n
        self.metrics.cold_stage_executions += cold
        if self._rec is not None:
            # Prefill/decode attribution of the sampled wall-clock time:
            # split pro rata by the service model's phase expectations, so
            # the two phases sum to exec_time exactly (noise and fixed
            # overhead apportioned proportionally).
            token_split: tuple[float, float] | None = None
            if work is not None:
                model = self.oracles[inst.function].profile.service_model
                if model is not None and hasattr(model, "split"):
                    pre, dec = model.split(inst.config, batch_n, work)
                    if pre + dec > 0.0:
                        prefill = exec_time * pre / (pre + dec)
                        token_split = (prefill, exec_time - prefill)
            if inst.prewarmed and inst.batches_served == 1:
                self._rec.emit(
                    PrewarmHit(
                        t=now,
                        app=self.app.name,
                        function=inst.function,
                        instance_id=inst.instance_id,
                        idle_wait=now - inst.warm_at,
                    )
                )
            for inv in items:
                rec = inv.stage(inst.function)
                self._rec.emit(
                    StageStart(
                        t=now,
                        app=self.app.name,
                        invocation_id=inv.invocation_id,
                        function=inst.function,
                        instance_id=inst.instance_id,
                        batch=batch_n,
                        cold=rec.cold_start,
                    )
                )
                if rec.cold_start:
                    self._rec.emit(
                        ColdStart(
                            t=now,
                            app=self.app.name,
                            invocation_id=inv.invocation_id,
                            function=inst.function,
                            instance_id=inst.instance_id,
                            wait=now - (rec.ready_at or 0.0),
                        )
                    )
                if token_split is not None and inv.work is not None:
                    self._rec.emit(
                        TokenStage(
                            t=now,
                            app=self.app.name,
                            invocation_id=inv.invocation_id,
                            function=inst.function,
                            tokens_in=inv.work.tokens_in,
                            tokens_out=inv.work.tokens_out,
                            prefill=token_split[0],
                            decode=token_split[1],
                        )
                    )
        if self._faults is None:
            self.events.schedule_in(
                exec_time, lambda: self._stage_done(inst, items, exec_time)
            )
        elif fail_at is not None:
            inst.inflight = items
            inst.done_timer = self.events.schedule_in(
                fail_at, lambda: self._execution_failed(inst, items)
            )
        else:
            # Track the batch so a machine outage can cancel it mid-flight
            # and hand the items to the retry path.
            inst.inflight = items
            inst.done_timer = self.events.schedule_in(
                exec_time, lambda: self._stage_done(inst, items, exec_time)
            )

    def _stage_done(
        self, inst: Instance, items: list[Invocation], exec_time: float
    ) -> None:
        now = self.events.now
        if self._faults is not None:
            inst.inflight = None
            inst.done_timer = None
        inst.mark_idle(now, exec_time)
        fn = inst.function
        self.pools[fn].transition(inst, InstanceState.BUSY)
        app = self.app
        downstream = [(s, app.predecessors(s)) for s in app.successors(fn)]
        for inv in items:
            if inv.abandoned_at is not None:
                # Abandoned mid-flight (deadline fired while executing):
                # the work completes but no longer counts for anything.
                continue
            inv.stage(fn).finished_at = now
            inv.remaining -= 1  # type: ignore[attr-defined]
            if self._rec is not None:
                self._rec.emit(
                    StageFinish(
                        t=now,
                        app=self.app.name,
                        invocation_id=inv.invocation_id,
                        function=fn,
                        instance_id=inst.instance_id,
                    )
                )
            self.policy.on_stage_complete(inv, fn, self.ctx)
            stages = inv.stages
            for succ, preds in downstream:
                for p in preds:
                    rec = stages.get(p)
                    if rec is None or rec.finished_at is None:
                        break
                else:
                    self._stage_ready(inv, succ)
            if inv.remaining == 0:  # type: ignore[attr-defined]
                inv.completed_at = now
                self._open_invocations -= 1
                if self._deadline_timers:
                    handle = self._deadline_timers.pop(inv.invocation_id, None)
                    if handle is not None:
                        handle.cancel()
                if self._storm_generation:
                    self._storm_generation.pop(inv.invocation_id, None)
                latency = now - inv.arrival
                self.metrics.record_completion(latency)
                if self._rec is not None:
                    self._rec.emit(
                        InvocationFinished(
                            t=now,
                            app=self.app.name,
                            invocation_id=inv.invocation_id,
                            latency=latency,
                        )
                    )
                    # Same epsilon as RunMetrics.record_completion.
                    if latency > self.app.sla + 1e-9:
                        self._rec.emit(
                            SlaViolation(
                                t=now,
                                app=self.app.name,
                                invocation_id=inv.invocation_id,
                                latency=latency,
                                sla=self.app.sla,
                            )
                        )
                if self._on_done is not None:
                    self._on_done(inv, "completed")
        if self._overload is not None and self._overload.breaks_circuits:
            self._breaker_success(fn)
        self._dispatch(fn)
        if inst.state is InstanceState.IDLE:
            self._arm_expiry(inst)

    # ------------------------------------------------------------- resilience
    def evict_machine(self, index: int) -> None:
        """Terminate every live instance on a crashed machine.

        Called by the runtime's outage machinery when a machine goes down.
        In-flight batches are cancelled and requeued through the retry
        path; afterwards dispatch runs so surviving capacity absorbs the
        displaced work.
        """
        for fn, pool in self.pools.items():
            doomed = [
                inst
                for inst in pool
                if inst.is_live and inst.placement.machine == index
            ]
            for inst in doomed:
                items = inst.inflight
                if inst.done_timer is not None:
                    inst.done_timer.cancel()
                    inst.done_timer = None
                inst.inflight = None
                self._terminate(inst, reason="machine-failed")
                if items:
                    self._requeue(fn, items)
        for fn in self.app.function_names:
            if self.queues[fn]:
                self._dispatch(fn)

    def _execution_failed(
        self, inst: Instance, items: list[Invocation]
    ) -> None:
        """An injected fault killed the batch mid-flight."""
        inst.inflight = None
        inst.done_timer = None
        fn = inst.function
        self.metrics.failed_executions += 1
        if self._rec is not None:
            self._rec.emit(
                ExecutionFailed(
                    t=self.events.now,
                    app=self.app.name,
                    function=fn,
                    instance_id=inst.instance_id,
                    batch=len(items),
                )
            )
        if self._overload is not None and self._overload.breaks_circuits:
            self._breaker_failure(fn)
        self._terminate(inst, reason="execution-failed")
        self._requeue(fn, items)

    def _requeue(self, fn: str, items: list[Invocation]) -> None:
        """Send a failed batch's invocations back through the retry path.

        Each item's stage record is reset to unstarted and its demand
        charge restored, then the stage is re-readied after an exponential
        backoff — unless the invocation's retry budget is exhausted, in
        which case it is abandoned.
        """
        res = self._resilience
        for inv in items:
            if inv.abandoned_at is not None or inv.finished:
                continue
            rec = inv.stage(fn)
            rec.started_at = None
            rec.instance_id = None
            rec.batch = 0
            rec.cold_start = False
            self.pending_stage_demand[fn] += 1
            inv.retries += 1
            if res is not None and inv.retries > res.max_retries:
                self._abandon(inv, reason="retries-exhausted")
                continue
            delay = 0.0
            if res is not None and res.retry_backoff > 0.0:
                # Exponential backoff, capped so a generous retry budget
                # cannot schedule events arbitrarily far past the horizon.
                delay = min(
                    res.retry_backoff * 2.0 ** (inv.retries - 1),
                    res.retry_backoff_max,
                )
            self.metrics.stage_retries += 1
            if self._rec is not None:
                self._rec.emit(
                    StageRetried(
                        t=self.events.now,
                        app=self.app.name,
                        invocation_id=inv.invocation_id,
                        function=fn,
                        attempt=inv.retries,
                        delay=delay,
                    )
                )
            self.events.schedule_in(delay, self._make_retry(inv, fn))

    def _make_retry(self, inv: Invocation, fn: str):
        def fire() -> None:
            if inv.abandoned_at is not None or self._shutting_down:
                return
            self._stage_ready(inv, fn)

        return fire

    def _arm_deadline(self, inv: Invocation) -> None:
        res = self._resilience
        assert res is not None and res.deadline_factor is not None

        def fire() -> None:
            self._deadline_timers.pop(inv.invocation_id, None)
            if inv.finished or inv.abandoned_at is not None:
                return
            self._abandon(inv, reason="deadline")

        self._deadline_timers[inv.invocation_id] = self.events.schedule_in(
            res.deadline_factor * self.app.sla, fire
        )

    def _release_open(self, inv: Invocation, now: float) -> None:
        """Common teardown of a given-up invocation (abandon or shed):
        demand charges of unstarted stages released, queue entries and the
        deadline timer cleared, the open-invocation count decremented."""
        inv.abandoned_at = now
        handle = self._deadline_timers.pop(inv.invocation_id, None)
        if handle is not None:
            handle.cancel()
        for fn in self.app.function_names:
            rec = inv.stages.get(fn)
            started = rec is not None and rec.started_at is not None
            if not started:
                self.pending_stage_demand[fn] -= 1
                if (
                    rec is not None
                    and rec.ready_at is not None
                    and rec.finished_at is None
                ):
                    try:
                        self.queues[fn].remove(inv)
                    except ValueError:
                        pass  # ready but not queued (retry backoff pending)
        self._open_invocations -= 1

    def _abandon(self, inv: Invocation, *, reason: str) -> None:
        """Give up on an invocation: deadline passed or retries exhausted.

        Unstarted stages release their demand charges and leave the
        queues; a stage currently executing is left to finish (its result
        is discarded in :meth:`_stage_done`).  The invocation counts as
        ``timed_out`` — disjoint from both completed and ``unfinished``.
        """
        if inv.finished or inv.abandoned_at is not None:
            return
        now = self.events.now
        self._release_open(inv, now)
        self._storm_generation.pop(inv.invocation_id, None)
        self.metrics.timed_out += 1
        if self._rec is not None:
            self._rec.emit(
                InvocationTimedOut(
                    t=now,
                    app=self.app.name,
                    invocation_id=inv.invocation_id,
                    reason=reason,
                    age=now - inv.arrival,
                )
            )
        if self._on_done is not None:
            self._on_done(inv, "timed_out")

    def _activate_fallback(
        self,
        fn: str,
        from_config: HardwareConfig,
        to_config: HardwareConfig,
        *,
        reason: str,
    ) -> None:
        """Record one graceful-degradation step (crash loop / starvation)."""
        self.metrics.fallbacks += 1
        if self._rec is not None:
            self._rec.emit(
                FallbackActivated(
                    t=self.events.now,
                    app=self.app.name,
                    function=fn,
                    from_config=from_config.key,
                    to_config=to_config.key,
                    reason=reason,
                )
            )

    # ------------------------------------------------------------- overload
    def _shed(self, inv: Invocation, *, function: str, reason: str) -> None:
        """Drop one invocation under overload (bounded-queue shedding).

        Mirrors :meth:`_abandon` — demand charges released, queues
        cleared, deadline timer cancelled — but counts ``shed``, the
        overload plane's own disposition, disjoint from ``timed_out``.
        """
        if inv.finished or inv.abandoned_at is not None:
            return
        now = self.events.now
        self._release_open(inv, now)
        self.metrics.shed += 1
        if self._rec is not None:
            self._rec.emit(
                InvocationShed(
                    t=now,
                    app=self.app.name,
                    invocation_id=inv.invocation_id,
                    function=function,
                    reason=reason,
                    age=now - inv.arrival,
                )
            )
        self._maybe_resubmit(inv, now)
        if self._on_done is not None:
            self._on_done(inv, "shed")

    def _breaker_failure(self, fn: str) -> None:
        """Count one consecutive batch failure toward the breaker."""
        state = self._breaker_state.get(fn)
        if state == "probing":
            # The half-open probe failed: straight back to open.
            self._breaker_open(fn)
            return
        if state == "open":
            return
        fails = self._breaker_fails.get(fn, 0) + 1
        self._breaker_fails[fn] = fails
        if fails >= self._overload.breaker_failures:
            self._breaker_open(fn)

    def _breaker_open(self, fn: str) -> None:
        """Open the circuit: stop dispatching, probe after the cool-down."""
        spec = self._overload
        self._breaker_state[fn] = "open"
        self._breaker_fails[fn] = 0
        self._activate_fallback(
            fn,
            self.directives[fn].config,
            self._degraded_config,
            reason="circuit-open",
        )

        def fire() -> None:
            if self._shutting_down:
                return
            if self._breaker_state.get(fn) == "open":
                self._breaker_state[fn] = "half-open"
                self._dispatch(fn)

        self.events.schedule_in(spec.breaker_cooldown, fire)

    def _breaker_success(self, fn: str) -> None:
        """A batch finished cleanly: reset the count, close the circuit."""
        if self._breaker_fails.get(fn):
            self._breaker_fails[fn] = 0
        if self._breaker_state.pop(fn, None) is not None:
            self._activate_fallback(
                fn,
                self._degraded_config,
                self.directives[fn].config,
                reason="circuit-close",
            )

    def _evaluate_brownout(self) -> None:
        """Window-tick brownout check: degrade on queue delay, restore on
        recovery.

        The head-of-queue wait of each function is compared against the
        engage threshold; crossing it swaps the standing directive's
        configuration to the degraded tier (the policy's directive is
        saved and restored once the delay recedes below the hysteresis
        threshold).  A policy re-issuing its own directive while a
        brownout is active takes ownership back.
        """
        spec = self._overload
        now = self.events.now
        degraded = self._degraded_config
        for fn, queue in self.queues.items():
            delay = 0.0
            if queue:
                head_ready = queue[0].stage(fn).ready_at
                if head_ready is not None:
                    delay = now - head_ready
            directive = self.directives[fn]
            saved = self._brownout_saved.get(fn)
            if saved is None:
                if (
                    delay > spec.brownout_queue_delay
                    and directive.config != degraded
                ):
                    self._brownout_saved[fn] = directive
                    self.directives[fn] = dataclasses.replace(
                        directive, config=degraded
                    )
                    self._activate_fallback(
                        fn, directive.config, degraded, reason="brownout"
                    )
                    self.record_directive(
                        fn,
                        self.directives[fn],
                        f"brownout: queue delay {delay:.2f}s > "
                        f"{spec.brownout_queue_delay:.2f}s",
                    )
            elif directive.config != degraded:
                # The policy replaced the degraded directive meanwhile;
                # it owns the function again.
                del self._brownout_saved[fn]
            elif delay <= spec.brownout_recover_delay:
                del self._brownout_saved[fn]
                self.directives[fn] = saved
                self._activate_fallback(
                    fn, degraded, saved.config, reason="brownout-restore"
                )
                self.record_directive(
                    fn,
                    saved,
                    f"brownout recovered: queue delay {delay:.2f}s <= "
                    f"{spec.brownout_recover_delay:.2f}s",
                )

    # ------------------------------------------------------------- lifecycle
    def _launch(
        self, fn: str, config: HardwareConfig, *, prewarm: bool = False
    ) -> Instance | None:
        placement = self.cluster.try_allocate(config)
        if placement is None:
            res = self._resilience
            if (
                res is not None
                and res.fallback_after is not None
                and config.backend is Backend.GPU
            ):
                # GPU starvation: after `fallback_after` consecutive failed
                # GPU placements for this function, degrade to the CPU
                # fallback configuration rather than queueing forever.
                starved = self._gpu_starved.get(fn, 0) + 1
                self._gpu_starved[fn] = starved
                fallback = self._fallback_config
                if starved >= res.fallback_after and fallback != config:
                    self._gpu_starved[fn] = 0
                    self._activate_fallback(
                        fn, config, fallback, reason="gpu-starvation"
                    )
                    return self._launch(fn, fallback, prewarm=prewarm)
            self.pending_launches[fn].append(config)
            return None
        if self._gpu_starved and config.backend is Backend.GPU:
            self._gpu_starved.pop(fn, None)
        oracle = self.oracles[fn]
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
            prewarmed=prewarm,
            swapped_in=swapped,
        )
        self.pools[fn].add(inst)
        self.metrics.initializations += 1
        if swapped:
            self.metrics.swap_ins += 1
        if self._rec is not None:
            self._rec.emit(
                InstanceLaunched(
                    t=self.events.now,
                    app=self.app.name,
                    function=fn,
                    instance_id=inst.instance_id,
                    config=config.key,
                    init_duration=init,
                    prewarm=prewarm,
                )
            )
            if swapped:
                self._rec.emit(
                    InstanceSwappedIn(
                        t=self.events.now,
                        app=self.app.name,
                        function=fn,
                        instance_id=inst.instance_id,
                        config=config.key,
                        swap_duration=init,
                    )
                )
        self.events.schedule_in(init, lambda: self._warmup_done(inst))
        return inst

    def _warmup_done(self, inst: Instance) -> None:
        if not inst.is_live:
            return
        rate = self.init_failure_rate
        if self._faults is not None:
            extra = self._faults.extra_init_failure_rate(self.events.now)
            if extra > 0.0:
                rate = min(rate + extra, 0.999999)
        if rate > 0.0 and self._fault_rng.random() < rate:
            # Initialization failed (image pull error, OOM during model
            # load, ...): the container is torn down — billed for the failed
            # attempt — and replaced, as a real platform's crash-loop would.
            self.metrics.failed_initializations += 1
            fn, cfg = inst.function, inst.config
            if self._rec is not None:
                self._rec.emit(
                    InstanceInitFailed(
                        t=self.events.now,
                        app=self.app.name,
                        function=fn,
                        instance_id=inst.instance_id,
                    )
                )
            self._terminate(inst, reason="init-failed")
            if not self._shutting_down:
                self._relaunch_after_init_failure(fn, cfg)
            return
        if self._crash_loops:
            self._crash_loops.pop(inst.function, None)
        if (
            inst.config.backend is Backend.GPU
            and not inst.swapped_in
            and self.oracles[inst.function].supports_swap
        ):
            # A completed full GPU initialization leaves the weights pinned
            # in host memory: later launches page them in at swap cost.
            # LRU admission can push other residents out (possibly another
            # tenant's) — their next launch cold-starts again.
            profile = self.oracles[inst.function].profile
            evicted = self.runtime.residency.admit(
                (self.app.name, inst.function), profile.mem_knee_gb
            )
            if self._rec is not None:
                for victim_app, victim_fn in evicted:
                    self._rec.emit(
                        ModelEvicted(
                            t=self.events.now,
                            app=victim_app,
                            function=victim_fn,
                        )
                    )
        inst.mark_warm(self.events.now)
        self.pools[inst.function].transition(inst, InstanceState.INITIALIZING)
        self._dispatch(inst.function)
        if inst.state is InstanceState.IDLE:
            self._arm_expiry(inst)

    def _relaunch_after_init_failure(
        self, fn: str, config: HardwareConfig
    ) -> None:
        """Replace a failed initialization, subject to the crash-loop cap.

        Without a fault plan this relaunches unconditionally (the legacy
        behaviour).  With resilience active, `max_crash_loop` consecutive
        failures stop the loop: if a fallback configuration applies, the
        function degrades to it; otherwise relaunching stops and
        demand-driven dispatch or min-warm enforcement tries again later.
        """
        res = self._resilience
        if res is None:
            self._launch(fn, config)
            return
        count = self._crash_loops.get(fn, 0) + 1
        self._crash_loops[fn] = count
        if count < res.max_crash_loop:
            self._launch(fn, config)
            return
        fallback = self._fallback_config
        if (
            res.fallback_after is not None
            and fallback is not None
            and config != fallback
        ):
            self._crash_loops[fn] = 0
            self._activate_fallback(fn, config, fallback, reason="crash-loop")
            self._launch(fn, fallback)

    def _arm_expiry(self, inst: Instance) -> None:
        directive = self.directives[inst.function]
        keep_alive = directive.keep_alive
        if inst.batches_served == 0:
            # Freshly pre-warmed, still waiting for its predicted arrival.
            keep_alive = max(keep_alive, directive.warm_grace)
        if math.isinf(keep_alive):
            return
        if inst.expiry_timer is not None:
            inst.expiry_timer.cancel()

        def fire() -> None:
            inst.expiry_timer = None
            if inst.state is InstanceState.IDLE:
                self._terminate(inst, reason="keep-alive-expired")

        inst.expiry_timer = self.events.schedule_in(max(keep_alive, 0.0), fire)

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
        if self._rec is not None:
            if (
                inst.prewarmed
                and inst.batches_served == 0
                and reason in _GENUINE_EXPIRY
            ):
                self._rec.emit(
                    PrewarmMiss(
                        t=self.events.now,
                        app=self.app.name,
                        function=inst.function,
                        instance_id=inst.instance_id,
                        idle_seconds=usage.idle_seconds,
                    )
                )
            self._rec.emit(
                InstanceExpired(
                    t=self.events.now,
                    app=self.app.name,
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
            )
        self.pools[inst.function].remove(inst, prev_state)
        self.retry_pending_launches()

    def _pending_count(
        self, fn: str, config: HardwareConfig | None
    ) -> int:
        """Launches of ``fn`` waiting for capacity (of one config, or all)."""
        pending = self.pending_launches[fn]
        return len(pending) if config is None else pending.count(config)

    def retry_pending_launches(self) -> None:
        """Re-attempt queued launches (capacity may have been restored)."""
        if self._shutting_down:
            return
        for fn, pending in self.pending_launches.items():
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
                self._launch(fn, config)

    def schedule_warmup(
        self,
        function: str,
        start_time: float,
        config: HardwareConfig | None = None,
        count: int = 1,
    ) -> None:
        """Launch up to ``count`` instances at ``start_time`` (deduplicated)."""
        if function not in self.app.function_names:
            raise KeyError(f"unknown function {function!r}")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if self._rec is not None:
            self._rec.emit(
                PrewarmScheduled(
                    t=self.events.now,
                    app=self.app.name,
                    function=function,
                    fire_at=start_time,
                    count=count,
                    config=config.key if config is not None else "directive",
                )
            )

        def fire() -> None:
            directive = self.directives[function]
            cfg = config or directive.config
            # Launches still waiting for cluster capacity will come up as
            # uncommitted instances too; launching more would only queue
            # behind them.
            uncommitted = self.pools[function].uncommitted_count(
                config
            ) + self._pending_count(function, config)
            # Instances already owed to open invocations — queued here or
            # still traversing upstream stages — don't count as available
            # for the upcoming invocation this warm-up targets.
            claimed = math.ceil(
                self.pending_stage_demand[function] / directive.batch
            )
            available = max(0, uncommitted - claimed)
            for _ in range(max(0, count - available)):
                self._launch(function, cfg, prewarm=True)

        self.events.schedule(start_time, fire)

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
        self.events.schedule(
            k * WINDOW,
            self._make_window_tick(k),
            seq=self._tick_seq_base + k - 1,
        )

    def _make_window_tick(self, k: int):
        def fire() -> None:
            if k < self._n_windows:
                self._schedule_tick(k + 1)
            arrivals = self._current_window_count
            self._append_window_count(arrivals)
            self.metrics.arrival_samples.append((self.events.now, arrivals))
            self._current_window_count = 0
            cpu_pods = gpu_pods = 0
            for pool in self.pools.values():
                cpu, gpu = pool.backend_live_counts()
                cpu_pods += cpu
                gpu_pods += gpu
            self.metrics.pod_samples.append((self.events.now, cpu_pods, gpu_pods))
            if self._rec is not None:
                self._rec.emit(
                    WindowTick(
                        t=self.events.now,
                        app=self.app.name,
                        window_index=k - 1,
                        arrivals=arrivals,
                        cpu_pods=cpu_pods,
                        gpu_pods=gpu_pods,
                    )
                )
            self.policy.on_window(self.events.now, self.ctx)
            if self._overload is not None and self._overload.browns_out:
                self._evaluate_brownout()
            self._enforce_min_warm()

        return fire

    def _enforce_min_warm(self) -> None:
        now = self.events.now
        for fn, directive in self.directives.items():
            pool = self.pools[fn]
            cfg = directive.config
            # Snapshot before deficit launches: the sweep's fleet-size floor
            # must not count instances launched within this very pass.
            live_n = pool.live_count()
            deficit = directive.min_warm - pool.live_count(cfg)
            # Same-config launches still waiting for capacity already cover
            # part of the deficit: re-requesting them every window would
            # grow the pending queue without bound on a full cluster.
            for _ in range(deficit - self._pending_count(fn, cfg)):
                self._launch(fn, cfg)
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
        # Deadline timers of invocations still open at the horizon would
        # otherwise survive the run as leaked handles (their invocations
        # seal as `unfinished`, so the timers can never resolve them).
        if self._deadline_timers:
            for handle in self._deadline_timers.values():
                handle.cancel()
            self._deadline_timers.clear()
        for pool in self.pools.values():
            for inst in list(pool):
                if inst.is_live:
                    self._terminate(inst, reason="shutdown")
        self.metrics.seal(duration=now, unfinished=self._open_invocations)
        if self._rec is not None:
            self._rec.emit(
                RunFinished(
                    t=now,
                    app=self.app.name,
                    duration=now,
                    unfinished=self._open_invocations,
                    completed=self.metrics.n_completed,
                    latency_sketch=(
                        self.metrics.latency_sketch.to_flat()
                        if self._sketch
                        else ()
                    ),
                )
            )
        return self.metrics
