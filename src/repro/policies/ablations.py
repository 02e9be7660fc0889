"""SMIless ablations (paper §VII-C3, Fig. 13).

- **SMIless-No-DAG** disregards the DAG structure and warms up *all*
  function instances simultaneously based on the inter-arrival time: every
  pre-warm targets readiness at the (predicted) arrival instant rather
  than the function's start offset along the critical path, so deep
  functions sit warm-and-idle while upstream stages execute — the paper
  measures this costing 39 % extra.
- **SMIless-Homo** restricts the configuration space to CPU backends only;
  without GPU options the tight-SLA regimes become infeasible and the
  violation ratio climbs to 22 %.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.prewarming import ColdStartPolicy
from repro.hardware.configs import ConfigurationSpace
from repro.policies.registry import register_policy
from repro.policies.smiless import IT_REBUCKET_RATIO, SMIlessPolicy
from repro.profiler.profiles import FunctionProfile
from repro.simulator.gateway import SimulationContext
from repro.simulator.invocation import Invocation


@register_policy("smiless-no-dag", kwargs={"train_counts": "train_counts"})
class SMIlessNoDagPolicy(SMIlessPolicy):
    """SMIless without any DAG awareness (§VII-C3).

    Two differences from the full system: (a) configurations are chosen
    per-function against an equal share ``SLA / N`` of the latency budget —
    without the DAG there is no critical-path view to divide slack by, so
    every function must individually be fast enough for the worst case,
    forcing costlier configurations; (b) pre-warms target the arrival
    instant for every function instead of its start offset, so deep
    functions idle while upstream stages execute.
    """

    name = "smiless-no-dag"

    def _strategy_for(self, it: float):
        assert self._app is not None
        bucket = self._it_bucket(it)
        if bucket not in self._strategy_cache:
            from repro.core.path_search import build_candidates
            from repro.core.prewarming import evaluate_assignment
            from repro.core.workflow import WorkflowManager

            rep_it = float(IT_REBUCKET_RATIO**bucket)
            share = self._app.sla * (1.0 - self.sla_margin) / len(self._app)
            cands = build_candidates(
                self._app.function_names, self.profiles, self.space, rep_it
            )
            assignment = {}
            for fn in self._app.function_names:
                feasible = [c for c in cands[fn] if c.inference_time <= share]
                pick = (
                    feasible[0]  # cheapest within the share
                    if feasible
                    else min(cands[fn], key=lambda c: c.inference_time)
                )
                assignment[fn] = pick.config
            evaluation = evaluate_assignment(
                self._app,
                assignment,
                self.profiles,
                rep_it,
                sla=self._app.sla * (1.0 - self.sla_margin),
            )
            self._strategy_cache[bucket] = WorkflowManager._strategy(
                self._app, assignment, evaluation, rep_it
            )
        return self._strategy_cache[bucket]

    def on_arrival(self, invocation: Invocation, ctx: SimulationContext) -> None:
        """Warm every pre-warm-regime function for the arrival instant."""
        assert self.strategy is not None
        counts = ctx.counts_history()
        it = self._predicted(counts, "it")
        self._current_it = it
        t_next = ctx.now + it
        for fn in ctx.app.function_names:
            plan = self.strategy.plan(fn)
            if plan.policy is not ColdStartPolicy.PREWARM:
                continue
            # No start offset: all instances ready simultaneously at t_next
            # (same prediction safety as the full system, so the comparison
            # isolates the missing DAG-awareness).
            start = t_next - plan.init_time - self.prewarm_safety
            ctx.schedule_warmup(fn, start, config=plan.config)


@register_policy("smiless-homo", kwargs={"train_counts": "train_counts"})
class SMIlessHomoPolicy(SMIlessPolicy):
    """SMIless restricted to homogeneous (CPU-only) configurations."""

    name = "smiless-homo"

    def __init__(
        self,
        profiles: Mapping[str, FunctionProfile],
        *,
        train_counts: np.ndarray | None = None,
        **kwargs,
    ) -> None:
        kwargs.pop("space", None)
        super().__init__(
            profiles,
            space=ConfigurationSpace.cpu_only(),
            train_counts=train_counts,
            **kwargs,
        )
