"""Orion baseline [4]: sizing under the "right pre-warming" assumption.

Orion co-designs configurations assuming every function's initialization
perfectly overlaps its predecessor's execution — i.e. it prices each
function at the pre-warm cost ``(T + I) * U`` *regardless of the actual
inter-arrival time* (§II-C2).  The assumption holds when invocations are far
apart; when several arrive within a short period the pre-warmed instance is
still busy (or already gone), so extra instances cold-start on the critical
path, producing SLA violations and extra cost (Fig. 3a).

Runtime behaviour: pre-warms for the next invocation using a simple mean of
observed gaps (Orion has no burst-aware predictor), ``keep_alive = 0``, no
adaptive batching, no scale-out.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.prewarming import ColdStartPolicy
from repro.core.workflow import WorkflowManager
from repro.dag.graph import AppDAG
from repro.hardware.configs import ConfigurationSpace
from repro.policies.base import Policy
from repro.policies.registry import register_policy
from repro.predictor.interarrival import gaps_from_counts
from repro.profiler.profiles import FunctionProfile
from repro.simulator.gateway import SimulationContext
from repro.simulator.invocation import FunctionDirective, Invocation

#: IT used for *planning*: effectively infinite, so every function is priced
#: and managed as if right pre-warming always applies.
_PLANNING_IT = 1e9
#: Gap assumed before any inter-arrival has been observed.
_DEFAULT_IT = 10.0


@register_policy("orion")
class OrionPolicy(Policy):
    """Right-pre-warming sizing; breaks under closely spaced invocations."""

    name = "orion"

    def __init__(
        self,
        profiles: Mapping[str, FunctionProfile],
        *,
        space: ConfigurationSpace | None = None,
    ) -> None:
        self.profiles = dict(profiles)
        self.space = space or ConfigurationSpace.default()
        self._start_offsets: dict[str, float] = {}
        self._plans: dict[str, object] = {}

    def on_register(self, app: AppDAG, ctx: SimulationContext) -> None:
        """Plan once, pricing every function at its pre-warm cost."""
        strategy = WorkflowManager(self.space).optimize(
            app, self.profiles, _PLANNING_IT
        )
        finish: dict[str, float] = {}
        for fn in app.function_names:
            plan = strategy.plan(fn)
            assert plan.policy is ColdStartPolicy.PREWARM  # IT is huge
            start = max((finish[p] for p in app.predecessors(fn)), default=0.0)
            self._start_offsets[fn] = start
            finish[fn] = start + plan.inference_time
            self._plans[fn] = plan
            ctx.set_directive(
                fn,
                FunctionDirective(
                    config=plan.config, keep_alive=0.0, batch=1, warm_grace=6.0
                ),
                reason="orion: pre-warm regime, warm per predicted gap",
            )

    def on_arrival(self, invocation: Invocation, ctx: SimulationContext) -> None:
        """Pre-warm for the next invocation at the mean observed gap."""
        gaps = gaps_from_counts(ctx.counts_history())
        it = float(np.mean(gaps[-10:])) if gaps.size else _DEFAULT_IT
        t_next = ctx.now + it
        for fn in ctx.app.function_names:
            plan = self._plans[fn]
            start = t_next + self._start_offsets[fn] - plan.init_time  # type: ignore[attr-defined]
            ctx.schedule_warmup(fn, start, config=plan.config)  # type: ignore[attr-defined]
