"""The fault plane of one gateway (see ``docs/robustness.md``).

Built from the run's :class:`~repro.faults.plan.FaultPlan` for each
gateway that serves under one.  It owns the per-app state of the plan and
its :class:`~repro.faults.plan.ResilienceSpec` and decides how faults
strike and how they are absorbed; the gateway's mechanism primitives
carry the decisions out.  Every probabilistic draw comes from the
gateway's ``_fault_rng`` stream, in the order the gateway asks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.plan import _MAX_RATE, FaultPlan
from repro.hardware.configs import Backend, HardwareConfig

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.simulator.container import Instance
    from repro.simulator.events import TimerHandle
    from repro.simulator.gateway import Gateway
    from repro.simulator.invocation import Invocation


class FaultPlane:
    """One gateway's fault injection and resilience, built from a ``FaultPlan``."""

    def __init__(self, plan: FaultPlan, gateway: "Gateway") -> None:
        self.plan = plan
        self.gw = gateway
        self.resilience = plan.resilience
        self.fallback_config = HardwareConfig.from_key(
            plan.resilience.fallback_config
        )
        #: fn -> consecutive init failures (crash-loop count).
        self.crash_loops: dict[str, int] = {}
        #: fn -> consecutive failed GPU placements.
        self.gpu_starved: dict[str, int] = {}
        #: invocation id -> pending deadline timer.
        self.deadline_timers: dict[int, "TimerHandle"] = {}
        #: invocation id -> retry-storm resubmission generation (> 0 only)
        #: of an admitted invocation still open.
        self.storm_generation: dict[int, int] = {}

    def start_crowds(self) -> None:
        """Stream the flash-crowd injections.

        They stream exactly like trace arrivals, on their own reserved
        sequence block (reserved only when a crowd exists, so crowd-free
        plans keep the tie-break order of a run without them).
        """
        times = self.plan.injected_times()
        if times:
            gw = self.gw
            gw._stream_arrivals(
                times, gw.events.reserve(len(times)), injected=True
            )

    # ------------------------------------------------------------- invocations
    def track(self, inv: "Invocation", generation: int) -> None:
        """Start the bookkeeping of one admitted invocation: its storm
        generation and, with ``deadline_factor`` set, its deadline."""
        if generation:
            self.storm_generation[inv.invocation_id] = generation
        factor = self.resilience.deadline_factor
        if factor is None:
            return
        gw = self.gw

        def fire() -> None:
            self.deadline_timers.pop(inv.invocation_id, None)
            gw._give_up(inv, "timed_out", reason="deadline")

        self.deadline_timers[inv.invocation_id] = gw.events.schedule_in(
            factor * gw.app.sla, fire
        )

    def release(self, inv: "Invocation", *, resubmit: bool = False) -> None:
        """Drop one invocation's deadline and storm bookkeeping (it
        completed, timed out or was shed); a shed one may resubmit."""
        handle = self.deadline_timers.pop(inv.invocation_id, None)
        if handle is not None:
            handle.cancel()
        generation = self.storm_generation.pop(inv.invocation_id, 0)
        if resubmit:
            self.resubmit(self.gw.events.now, generation)

    def resubmit(self, t: float, generation: int) -> None:
        """Retry-storm amplification: resubmit a shed/rejected invocation.

        A fresh invocation (new id, counted ``injected``) re-enters the
        front door after the storm's delay, up to ``resubmits``
        generations deep per original arrival.
        """
        storm = self.plan.storm_for(t)
        if storm is None or generation >= storm.resubmits:
            return
        gw = self.gw

        def fire() -> None:
            if gw._shutting_down:
                return
            gw._handle_arrival(
                gw.events.now, injected=True, generation=generation + 1
            )

        gw.events.schedule_in(storm.delay, fire)

    def cancel_deadlines(self) -> None:
        """Cancel the deadline timers of invocations still open at the
        horizon (they seal as ``unfinished``; the timers could never
        resolve them)."""
        for handle in self.deadline_timers.values():
            handle.cancel()
        self.deadline_timers.clear()

    # ------------------------------------------------------------- execution
    def execution(
        self, inst: "Instance", exec_time: float, now: float
    ) -> tuple[float, float | None]:
        """Straggler-scaled execution time and the failure point of one
        batch (``None`` when it runs to completion)."""
        plan = self.plan
        factor = plan.straggler_factor(
            inst.function, inst.config.backend.value, now
        )
        if factor != 1.0:
            exec_time *= factor
        rate = plan.execution_fault_rate(inst.function, now)
        rng = self.gw._fault_rng
        if rate > 0.0 and rng.random() < rate:
            # The batch dies part-way through execution; the fraction
            # completed before the crash is uniform, so the instance is
            # billed for real (wasted) work before the retry path runs.
            return exec_time, exec_time * float(rng.random())
        return exec_time, None

    def retry_delay(self, inv: "Invocation") -> float | None:
        """Backoff before re-readying a failed stage of ``inv``, or
        ``None`` once its retry budget is exhausted."""
        res = self.resilience
        if inv.retries > res.max_retries:
            return None
        if res.retry_backoff > 0.0:
            # Exponential backoff, capped so a generous retry budget
            # cannot schedule events arbitrarily far past the horizon.
            return min(
                res.retry_backoff * 2.0 ** (inv.retries - 1),
                res.retry_backoff_max,
            )
        return 0.0

    # ------------------------------------------------------------- lifecycle
    def init_failure_rate(self, base: float, t: float) -> float:
        """Init-failure probability at ``t``: the base rate plus bursts."""
        extra = self.plan.extra_init_failure_rate(t)
        if extra > 0.0:
            return min(base + extra, _MAX_RATE)
        return base

    def relaunch(self, fn: str, config: HardwareConfig) -> None:
        """Replace a failed initialization, subject to the crash-loop cap.

        `max_crash_loop` consecutive failures stop the loop: if a fallback
        configuration applies, the function degrades to it; otherwise
        relaunching stops and demand-driven dispatch or min-warm
        enforcement tries again later.
        """
        res = self.resilience
        gw = self.gw
        count = self.crash_loops.get(fn, 0) + 1
        self.crash_loops[fn] = count
        if count < res.max_crash_loop:
            gw._launch(gw.fn_index[fn], config)
            return
        fallback = self.fallback_config
        if res.fallback_after is not None and config != fallback:
            self.crash_loops[fn] = 0
            gw._activate_fallback(fn, config, fallback, reason="crash-loop")
            gw._launch(gw.fn_index[fn], fallback)

    def warmed(self, fn: str) -> None:
        """An initialization of ``fn`` succeeded: the crash loop is over."""
        if self.crash_loops:
            self.crash_loops.pop(fn, None)

    def starvation_fallback(
        self, fn: str, config: HardwareConfig
    ) -> HardwareConfig | None:
        """A placement of ``config`` failed: the configuration to launch
        instead, or ``None`` to queue the launch.

        GPU starvation: after `fallback_after` consecutive failed GPU
        placements for this function, degrade to the CPU fallback
        configuration rather than queueing forever.
        """
        after = self.resilience.fallback_after
        if after is None or config.backend is not Backend.GPU:
            return None
        starved = self.gpu_starved.get(fn, 0) + 1
        self.gpu_starved[fn] = starved
        fallback = self.fallback_config
        if starved < after or fallback == config:
            return None
        self.gpu_starved[fn] = 0
        self.gw._activate_fallback(
            fn, config, fallback, reason="gpu-starvation"
        )
        return fallback

    def placed(self, fn: str, config: HardwareConfig) -> None:
        """A placement of ``config`` succeeded: a GPU one ends starvation."""
        if self.gpu_starved and config.backend is Backend.GPU:
            self.gpu_starved.pop(fn, None)
