"""Aquatope baseline [24]: Bayesian-optimized configs, on-demand containers.

Aquatope searches the workflow's configuration space with uncertainty-aware
Bayesian optimization to minimize cost subject to the latency QoS.  It
reasons about resource *configuration* but not about cold-start timing:
containers launch on demand and linger only for a short keep-alive.  The
result (paper §VII-B) is a low steady-state cost but the most frequent
container (re)initializations of all systems (Fig. 9b) and SLA violations
up to 40 % whenever an initialization lands on the critical path.

The BO objective scores a candidate assignment by its adaptive-policy cost
(Eq. 4/5) with a large penalty for expected-latency SLA violations — the
same latency model Aquatope would fit from traces, here supplied by the
profiler.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.dag.graph import AppDAG
from repro.hardware.configs import ConfigurationSpace, HardwareConfig
from repro.policies.base import Policy
from repro.policies.registry import register_policy
from repro.profiler.profiles import FunctionProfile
from repro.simulator.gateway import SimulationContext
from repro.simulator.invocation import FunctionDirective

#: Penalty factor applied to the objective when expected latency misses SLA.
_SLA_PENALTY = 100.0


@register_policy("aquatope")
class AquatopePolicy(Policy):
    """BO-tuned configurations with on-demand cold starts."""

    name = "aquatope"

    def __init__(
        self,
        profiles: Mapping[str, FunctionProfile],
        *,
        space: ConfigurationSpace | None = None,
        keep_alive: float = 5.0,
        n_iter: int = 60,
        seed: int = 0,
    ) -> None:
        self.profiles = dict(profiles)
        self.space = space or ConfigurationSpace.default()
        self.keep_alive = float(keep_alive)
        self.n_iter = int(n_iter)
        self.seed = int(seed)
        self.assignment: dict[str, HardwareConfig] = {}

    def _decode(self, x: np.ndarray, functions: tuple[str, ...]) -> dict[str, HardwareConfig]:
        configs = self.space.configs
        idx = np.clip((x * len(configs)).astype(int), 0, len(configs) - 1)
        return {fn: configs[i] for fn, i in zip(functions, idx)}

    def tune(self, app: AppDAG) -> dict[str, HardwareConfig]:
        """Run the BO loop and return the tuned assignment."""
        functions = app.function_names

        def objective(x: np.ndarray) -> float:
            assignment = self._decode(x, functions)
            # Aquatope's QoS model is fit from (warm) executions: latency is
            # the warm critical path and cost the busy + keep-alive billing.
            # Initialization time appears in neither — its blind spot.
            warm_latency = app.critical_path_latency(
                {
                    fn: self.profiles[fn].inference_time(assignment[fn])
                    for fn in functions
                }
            )
            cost = sum(
                (
                    self.profiles[fn].inference_time(assignment[fn])
                    + self.keep_alive
                )
                * assignment[fn].unit_cost
                for fn in functions
            )
            penalty = (
                _SLA_PENALTY * (warm_latency / app.sla)
                if warm_latency > app.sla
                else 0.0
            )
            return cost * 1e4 + penalty

        # Deferred: the optimizer pulls in SciPy, which only a tuning
        # Aquatope run needs.
        from repro.bayesopt import BayesianOptimizer

        result = BayesianOptimizer(
            dim=len(functions),
            n_initial=16,
            n_candidates=512,
            length_scale=0.15,
            seed=self.seed,
        ).minimize(objective, n_iter=self.n_iter)
        return self._decode(result.best_x, functions)

    def on_register(self, app: AppDAG, ctx: SimulationContext) -> None:
        """Tune configurations; run containers on demand afterwards."""
        self.assignment = self.tune(app)
        for fn in app.function_names:
            ctx.set_directive(
                fn,
                FunctionDirective(
                    config=self.assignment[fn],
                    keep_alive=self.keep_alive,
                    batch=1,
                    warm_grace=self.keep_alive,
                ),
                reason=(
                    f"aquatope: BO-tuned config, "
                    f"keep-alive {self.keep_alive:g}s"
                ),
            )
