"""OPT baseline: oracle policy determined through exhaustive search (§VII-B).

The paper's "OPT" lower bound knows everything SMIless must predict: it is
given the ground-truth performance model (no profiling error) and the full
future trace (no prediction error).  Configurations come from exhaustive
search over the whole DAG (path-exhaustive + combining for larger apps,
where full enumeration is impractical); cold-start decisions are made
per-gap with the *actual* next arrival time, so pre-warming lands exactly
when needed and keep-alive never outlives the true gap.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.engine import OptimizerEngine
from repro.core.path_search import ExhaustiveSearch
from repro.core.prewarming import evaluate_assignment, policy_for, ColdStartPolicy
from repro.core.workflow import WorkflowManager
from repro.dag.graph import AppDAG
from repro.hardware.configs import ConfigurationSpace, HardwareConfig
from repro.policies.base import Policy
from repro.policies.registry import register_policy
from repro.profiler.profiles import FunctionProfile
from repro.simulator.gateway import SimulationContext
from repro.simulator.invocation import FunctionDirective, Invocation
from repro.workload.trace import Trace

#: DAG size above which full enumeration is replaced by per-path exhaustive
#: search plus combining (15^5 whole-DAG evaluations already take ~30 s).
_FULL_ENUMERATION_LIMIT = 4
#: Seconds a clairvoyant pre-warm lands ahead of the true arrival.
_INIT_SLACK = 1.0


@register_policy("opt", args=("oracle", "trace"))
class OptimalPolicy(Policy):
    """Exhaustive-search configurations with clairvoyant cold-start timing."""

    name = "opt"

    def __init__(
        self,
        profiles: Mapping[str, FunctionProfile],
        trace: Trace,
        *,
        space: ConfigurationSpace | None = None,
        window: float = 1.0,
        sla_margin: float = 0.1,
    ) -> None:
        self.profiles = dict(profiles)
        self.trace = trace
        self.space = space or ConfigurationSpace.default()
        self.window = float(window)
        # Even the oracle plans with headroom: stage execution times are
        # stochastic, so a plan at exactly the SLA violates half the time.
        self.sla_margin = float(sla_margin)
        self.assignment: dict[str, HardwareConfig] = {}
        self._plans: dict[str, object] = {}
        self._offsets: dict[str, float] = {}
        self._true_counts = trace.counts_per_window(window)
        self._engine = OptimizerEngine(self.space)

    # -- planning ------------------------------------------------------------
    def _true_mean_it(self) -> float:
        gaps = self.trace.window_inter_arrivals(self.window)
        return float(gaps.mean()) if gaps.size else 10.0

    def plan_assignment(self, app: AppDAG) -> dict[str, HardwareConfig]:
        """Exhaustive (or path-exhaustive) minimum-cost feasible assignment."""
        it = self._true_mean_it()
        planning_app = app.with_sla(app.sla * (1.0 - self.sla_margin))
        if len(app) <= _FULL_ENUMERATION_LIMIT:
            result = ExhaustiveSearch(self.space).optimize_app(
                planning_app, self.profiles, it
            )
            return result.assignment
        manager = WorkflowManager(
            self.space, optimizer=ExhaustiveSearch(self.space)  # type: ignore[arg-type]
        )
        return manager.optimize(planning_app, self.profiles, it).assignment

    def on_register(self, app: AppDAG, ctx: SimulationContext) -> None:
        """Install the exhaustive assignment and clairvoyant directives."""
        self.assignment = self.plan_assignment(app)
        it = self._true_mean_it()
        ev = evaluate_assignment(app, self.assignment, self.profiles, it)
        finish: dict[str, float] = {}
        for fn in app.function_names:
            plan = ev.plans[fn]
            self._plans[fn] = plan
            start = max((finish[p] for p in app.predecessors(fn)), default=0.0)
            self._offsets[fn] = start
            finish[fn] = start + plan.inference_time
            ctx.set_directive(
                fn,
                FunctionDirective(
                    config=plan.config,
                    keep_alive=0.0,
                    batch=1,
                    warm_grace=2.0 * _INIT_SLACK + 1.0,
                ),
                reason="oracle: exhaustive-search assignment, pre-warm regime",
            )
        # Clairvoyant pre-warm for the very first arrival of the trace.
        if len(self.trace):
            self._schedule_for_arrival(float(self.trace.times[0]), ctx)

    def _schedule_for_arrival(self, t_arrival: float, ctx: SimulationContext) -> None:
        for fn, plan in self._plans.items():
            start = t_arrival + self._offsets[fn] - plan.init_time - _INIT_SLACK  # type: ignore[attr-defined]
            ctx.schedule_warmup(fn, start, config=plan.config)  # type: ignore[attr-defined]

    def on_arrival(self, invocation: Invocation, ctx: SimulationContext) -> None:
        """Per-gap clairvoyant decision: pre-warm or keep alive exactly."""
        idx = int(np.searchsorted(self.trace.times, ctx.now, side="right"))
        if idx >= len(self.trace):
            return  # last arrival: nothing left to manage
        t_next = float(self.trace.times[idx])
        gap = t_next - ctx.now
        if gap <= 0:
            return  # simultaneous arrivals share the burst handling below
        for fn, plan in self._plans.items():
            t, i = plan.init_time, plan.inference_time  # type: ignore[attr-defined]
            if policy_for(max(t, 1e-9), i, gap) is ColdStartPolicy.PREWARM:
                ctx.set_directive(
                    fn,
                    FunctionDirective(
                        config=plan.config,  # type: ignore[attr-defined]
                        keep_alive=0.0,
                        batch=1,
                        warm_grace=2.0 * _INIT_SLACK + 1.0,
                    ),
                    reason=f"oracle: true gap {gap:.2f}s favors pre-warm",
                )
                start = t_next + self._offsets[fn] - t - _INIT_SLACK
                ctx.schedule_warmup(fn, start, config=plan.config)  # type: ignore[attr-defined]
            else:
                ctx.set_directive(
                    fn,
                    FunctionDirective(
                        config=plan.config,  # type: ignore[attr-defined]
                        keep_alive=gap + self._offsets[fn] + 0.5,
                        batch=1,
                    ),
                    reason=f"oracle: true gap {gap:.2f}s favors keep-alive",
                )

    def on_window(self, t: float, ctx: SimulationContext) -> None:
        """Oracle burst handling with clairvoyant lookahead.

        Launching an instance takes its initialization time, so the oracle
        looks ``ceil(T_max) + 1`` windows ahead in the true trace and brings
        capacity up *before* the burst peaks.
        """
        k = len(ctx.counts_history())
        budgets = {fn: self._plans[fn].inference_time for fn in self._plans}  # type: ignore[attr-defined]
        t_max = max(self._plans[fn].init_time for fn in self._plans)  # type: ignore[attr-defined]
        lookahead = int(np.ceil(t_max / self.window)) + 1
        horizon = self._true_counts[k : k + lookahead]
        if horizon.size == 0:
            return
        g = int(horizon.max())
        if g <= 1 or g * max(budgets.values()) <= self.window:
            if getattr(self, "_burst_mode", False) and (
                horizon.size == 0 or horizon.max() <= 1
            ):
                # Burst fully over: restore the steady-state directives by
                # replaying the per-gap logic at the next arrival.
                self._burst_mode = False
            return
        self._burst_mode = True
        it = self._true_mean_it()
        for fn in ctx.app.function_names:
            decision = self._engine.autoscaler.plan(
                fn,
                self.profiles[fn],
                g,
                max(self.window, min(it, 5.0)),
                budgets[fn],
            )
            ctx.set_directive(
                fn,
                FunctionDirective(
                    config=decision.config,
                    keep_alive=self.window * 2,
                    batch=decision.batch,
                    min_warm=decision.instances,
                    warm_grace=t_max + 2.0,
                ),
                reason=f"oracle: burst of {g} seen in lookahead, scale out",
            )
