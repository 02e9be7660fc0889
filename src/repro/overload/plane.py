"""The overload plane of one gateway (see ``docs/robustness.md``).

Built from the run's :class:`~repro.overload.spec.OverloadSpec` for each
gateway that serves under one.  It owns the per-app state of the spec's
mechanisms and decides admission, shedding, breaker transitions and
brownout; the gateway's mechanism primitives carry the decisions out.  No
RNG is involved: every decision is a pure function of simulated time and
gateway state.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.hardware.configs import HardwareConfig

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.overload.spec import OverloadSpec
    from repro.simulator.gateway import Gateway
    from repro.simulator.invocation import FunctionDirective, Invocation


class OverloadPlane:
    """One gateway's overload defences, built from an ``OverloadSpec``."""

    def __init__(self, spec: "OverloadSpec", gateway: "Gateway") -> None:
        self.spec = spec
        self.gw = gateway
        self.bucket = spec.make_bucket()
        self.degraded_config = HardwareConfig.from_key(spec.degraded_config)
        #: fn -> consecutive batch failures (circuit-breaker arming count).
        self.breaker_fails: dict[str, int] = {}
        #: fn -> "open" | "half-open" | "probing" (absent = closed).
        self.breaker_state: dict[str, str] = {}
        #: fn -> the policy directive saved while a brownout tier is active.
        self.brownout_saved: dict[str, "FunctionDirective"] = {}

    # ------------------------------------------------------------- admission
    def admit(self, t: float) -> bool:
        """Front-door admission of one arrival at ``t`` (token bucket)."""
        return self.bucket is None or self.bucket.admit(t)

    def admit_to_queue(self, inv: "Invocation", fn: str) -> bool:
        """Enforce the bounded queue: shed one invocation when full.

        Returns ``False`` when the *incoming* invocation was the victim
        (the caller must not enqueue it); ``True`` otherwise — possibly
        after evicting a queued victim to make room.  Also tracks the peak
        queue depth the caller's enqueue reaches.

        Victim selection per ``shed_policy``: ``reject-newest`` drops the
        incoming invocation; ``drop-oldest`` drops the head of the queue;
        ``deadline-aware`` drops the invocation least likely to meet its
        SLA — the one with the earliest arrival (least remaining slack)
        among the incoming and queued candidates, deterministic on ties.
        """
        gw = self.gw
        queue = gw.queues[gw.fn_index[fn]]
        limit = self.spec.queue_limit
        if limit is not None and len(queue) >= limit:
            policy = self.spec.shed_policy
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
                gw._give_up(inv, "shed", reason=policy, function=fn)
                return False
            queue.remove(victim)
            gw._give_up(victim, "shed", reason=policy, function=fn)
        depth = len(queue) + 1
        if depth > gw.metrics.peak_queue_depth:
            gw.metrics.peak_queue_depth = depth
        return True

    # ------------------------------------------------------------- breakers
    def dispatch_tripped(self, fn: str) -> None:
        """Dispatch for a function whose breaker is not closed.

        Open or probing: no dispatch, no launches, until the cool-down's
        half-open probe (or its resolution).  Half-open: a single size-1
        probe on a warm instance, or — with no warm instance and none on
        the way — one launch to host it.
        """
        if self.breaker_state[fn] != "half-open":
            return
        gw = self.gw
        fi = gw.fn_index[fn]
        queue = gw.queues[fi]
        if not queue:
            return
        config = gw.directives[fi].config
        pool = gw.pools[fi]
        inst = pool.pick_idle(config)
        if inst is not None:
            gw._execute(inst, [queue.popleft()])
            self.breaker_state[fn] = "probing"
        elif pool.initializing_count() + len(gw.pending_launches[fi]) == 0:
            gw._launch(fi, config)

    def batch_failed(self, fn: str) -> None:
        """Count one consecutive batch failure toward the breaker."""
        if not self.spec.breaks_circuits:
            return
        state = self.breaker_state.get(fn)
        if state == "probing":
            # The half-open probe failed: straight back to open.
            self._breaker_open(fn)
            return
        if state == "open":
            return
        fails = self.breaker_fails.get(fn, 0) + 1
        self.breaker_fails[fn] = fails
        if fails >= self.spec.breaker_failures:
            self._breaker_open(fn)

    def _breaker_open(self, fn: str) -> None:
        """Open the circuit: stop dispatching, probe after the cool-down."""
        gw = self.gw
        self.breaker_state[fn] = "open"
        self.breaker_fails[fn] = 0
        gw._activate_fallback(
            fn,
            gw.directives[gw.fn_index[fn]].config,
            self.degraded_config,
            reason="circuit-open",
        )

        def fire() -> None:
            if gw._shutting_down:
                return
            if self.breaker_state.get(fn) == "open":
                self.breaker_state[fn] = "half-open"
                gw._dispatch(gw.fn_index[fn])

        gw.events.schedule_in(self.spec.breaker_cooldown, fire)

    def batch_succeeded(self, fn: str) -> None:
        """A batch finished cleanly: reset the count, close the circuit.

        A no-op without breakers: both maps stay empty.
        """
        if self.breaker_fails.get(fn):
            self.breaker_fails[fn] = 0
        if self.breaker_state.pop(fn, None) is not None:
            gw = self.gw
            gw._activate_fallback(
                fn,
                self.degraded_config,
                gw.directives[gw.fn_index[fn]].config,
                reason="circuit-close",
            )

    # ------------------------------------------------------------- brownout
    def on_window(self) -> None:
        """Window-tick brownout check: degrade on queue delay, restore on
        recovery.

        The head-of-queue wait of each function is compared against the
        engage threshold; crossing it swaps the standing directive's
        configuration to the degraded tier (the policy's directive is
        saved and restored once the delay recedes below the hysteresis
        threshold).  A policy re-issuing its own directive while a
        brownout is active takes ownership back.
        """
        spec = self.spec
        if not spec.browns_out:
            return
        gw = self.gw
        now = gw.events.now
        degraded = self.degraded_config
        for fi, queue in enumerate(gw.queues):
            fn = gw.fn_names[fi]
            delay = 0.0
            if queue:
                head_ready = queue[0].stage(fn).ready_at
                if head_ready is not None:
                    delay = now - head_ready
            directive = gw.directives[fi]
            saved = self.brownout_saved.get(fn)
            if saved is None:
                if (
                    delay > spec.brownout_queue_delay
                    and directive.config != degraded
                ):
                    self.brownout_saved[fn] = directive
                    gw.directives[fi] = dataclasses.replace(
                        directive, config=degraded
                    )
                    gw._activate_fallback(
                        fn, directive.config, degraded, reason="brownout"
                    )
                    if gw.telemetry is not None:
                        gw.telemetry.directive(
                            fn,
                            gw.directives[fi],
                            f"brownout: queue delay {delay:.2f}s > "
                            f"{spec.brownout_queue_delay:.2f}s",
                        )
            elif directive.config != degraded:
                # The policy replaced the degraded directive meanwhile;
                # it owns the function again.
                del self.brownout_saved[fn]
            elif delay <= spec.brownout_recover_delay:
                del self.brownout_saved[fn]
                gw.directives[fi] = saved
                gw._activate_fallback(
                    fn, degraded, saved.config, reason="brownout-restore"
                )
                if gw.telemetry is not None:
                    gw.telemetry.directive(
                        fn,
                        saved,
                        f"brownout recovered: queue delay {delay:.2f}s <= "
                        f"{spec.brownout_recover_delay:.2f}s",
                    )
