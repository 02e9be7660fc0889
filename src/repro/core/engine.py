"""Optimizer Engine facade (paper §III-B, modules 4–6).

Ties the Workflow Manager, Strategy Optimizer and Auto-scaler into the
per-window control loop the SMIless policy runs inside the simulator:

1. on (re-)optimization, compute the :class:`ExecutionStrategy` for the
   application at the predicted inter-arrival time;
2. each window, if the predicted invocation count exceeds what single
   instances can absorb within their per-stage budget, compute batching and
   scale-out decisions for every function.

The per-stage budget handed to the Auto-scaler is the inference time the
Strategy Optimizer planned for that function (``I_s`` in §V-D).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.autoscaler import AutoScaler, ScalingDecision
from repro.core.workflow import ExecutionStrategy, WorkflowManager
from repro.dag.graph import AppDAG
from repro.hardware.configs import ConfigurationSpace
from repro.profiler.profiles import FunctionProfile


@dataclass
class OptimizerEngine:
    """End-to-end optimizer: strategy generation plus window-level scaling."""

    space: ConfigurationSpace
    workflow: WorkflowManager = field(init=False)
    autoscaler: AutoScaler = field(init=False)

    def __post_init__(self) -> None:
        self.workflow = WorkflowManager(self.space)
        self.autoscaler = AutoScaler(self.space)

    def strategy(
        self,
        app: AppDAG,
        profiles: Mapping[str, FunctionProfile],
        inter_arrival: float,
        *,
        sla: float | None = None,
    ) -> ExecutionStrategy:
        """Compute the execution strategy (configs + cold-start policies)."""
        return self.workflow.optimize(app, profiles, inter_arrival, sla=sla)

    def scale(
        self,
        app: AppDAG,
        profiles: Mapping[str, FunctionProfile],
        strategy: ExecutionStrategy,
        predicted_invocations: int,
        inter_arrival: float,
        budgets: Mapping[str, float] | None = None,
        max_init_time: float | None = None,
    ) -> dict[str, ScalingDecision]:
        """Window-level batching/scale-out for a predicted burst of ``G``.

        Default budgets are the per-function inference times of the current
        strategy, so batched execution never stretches any stage beyond
        what the SLA plan allocated to it; callers may pass re-balanced
        burst budgets (§V-B2 "scales up to higher-end configurations").
        """
        if predicted_invocations < 1:
            raise ValueError("predicted_invocations must be >= 1")
        if budgets is None:
            budgets = {
                fn: strategy.plan(fn).inference_time
                for fn in app.function_names
            }
        return {
            fn: self.autoscaler.plan(
                fn,
                profiles[fn],
                predicted_invocations,
                inter_arrival,
                budgets[fn],
                max_init_time=max_init_time,
            )
            for fn in app.function_names
        }

    def needs_scaling(
        self,
        strategy: ExecutionStrategy,
        predicted_invocations: int,
        window: float = 1.0,
    ) -> bool:
        """Whether the window's load exceeds single sequential instances.

        Scaling is needed when the predicted invocations of one control
        window arrive faster than the slowest stage can drain them one at a
        time (Fig. 5c regime).
        """
        if predicted_invocations <= 1:
            return False
        return predicted_invocations * strategy.max_stage_inference > window
