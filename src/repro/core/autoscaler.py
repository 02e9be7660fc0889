"""Container auto-scaling via adaptive batching (paper §V-D).

Given the predicted invocation count ``G`` for the next window, the
inter-arrival time ``IT`` and the per-stage inference budget ``I_s`` (from
the Strategy Optimizer), the Auto-scaler solves Eq. (7)/(8):

    min over (config, B)  of  ceil(G / B) * IT * U(config)
    subject to             inference_time(config, B) <= I_s

For each configuration the largest feasible batch size is found by bisection
(inference time is monotone increasing in B under the Eq. 1/2 law); the
configuration with the lowest resulting cost wins.  If no configuration can
meet ``I_s`` even at batch 1, the fastest configuration is returned with
``feasible=False`` — the caller then scales out at batch 1 (§V-B2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.hardware.configs import ConfigurationSpace, HardwareConfig
from repro.profiler.profiles import FunctionProfile
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class ScalingDecision:
    """Resolved scaling plan for one function in one window."""

    function: str
    config: HardwareConfig
    batch: int
    instances: int
    inference_time: float
    cost: float
    feasible: bool


class AutoScaler:
    """Solves the per-function batching/scale-out optimization."""

    def __init__(
        self,
        space: ConfigurationSpace,
        max_batch: int = 32,
    ) -> None:
        check_positive("max_batch", max_batch)
        self.space = space
        self.max_batch = int(max_batch)

    def max_feasible_batch(
        self,
        profile: FunctionProfile,
        config: HardwareConfig,
        budget: float,
    ) -> int:
        """Largest batch size meeting ``budget`` on ``config`` (0 if none).

        Bisection over the integer range [1, max_batch]; the latency law is
        monotone in B so the feasible set is a prefix.  Results are
        memoized on the profile per (config, budget, max_batch): the
        control loop re-solves the same bisection every window for the
        standing budget shares.
        """
        check_positive("budget", budget)
        key = ("mfb", config, budget, self.max_batch)
        cached = profile._memo.get(key)
        if cached is not None:
            return cached
        if profile.inference_time(config, 1) > budget:
            lo = 0
        else:
            lo, hi = 1, self.max_batch
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if profile.inference_time(config, mid) <= budget:
                    lo = mid
                else:
                    hi = mid - 1
        if len(profile._memo) > 16384:  # unbounded-budget safety valve
            profile._memo.clear()
        profile._memo[key] = lo
        return lo

    def plan(
        self,
        function: str,
        profile: FunctionProfile,
        predicted_invocations: int,
        inter_arrival: float,
        budget: float,
        *,
        max_init_time: float | None = None,
    ) -> ScalingDecision:
        """Optimal (config, batch, instance count) for the next window.

        ``max_init_time`` restricts candidates to configurations whose
        (robust) initialization fits a reaction budget — burst capacity that
        arrives after the burst is useless.  If no candidate qualifies the
        restriction is dropped.
        """
        check_positive("predicted_invocations", predicted_invocations)
        check_positive("inter_arrival", inter_arrival)
        candidates = [c for c in self.space if profile.supports(c.backend)]
        if max_init_time is not None:
            quick = [
                c
                for c in candidates
                if profile.init_time(c) <= max_init_time
                and self.max_feasible_batch(profile, c, budget) > 0
            ]
            if quick:
                candidates = quick
        # Vectorized cost evaluation over the feasible candidates: the
        # elementwise products reproduce the scalar ``instances * billed *
        # unit_cost`` bit for bit, and the stable lexsort picks the same
        # (cost, instances, first-seen) lexicographic minimum the
        # one-at-a-time comparison loop did.
        feasible = [
            (c, b)
            for c in candidates
            if (b := self.max_feasible_batch(profile, c, budget)) > 0
        ]
        if feasible:
            batches = np.minimum(
                np.array([b for _, b in feasible]), predicted_invocations
            )
            instances_a = -(-predicted_invocations // batches)
            # Burst responses launch *new* instances whose initialization is
            # billed and delays availability; charging ``T`` alongside ``IT``
            # steers scale-out toward fast-starting backends — the reason the
            # CPU-to-GPU ratio climbs during bursts (Fig. 14b).
            billed = inter_arrival + np.array(
                [profile.init_time(c) for c, _ in feasible]
            )
            costs = (
                instances_a * billed
            ) * np.array([c.unit_cost for c, _ in feasible])
            sel = int(np.lexsort((instances_a, costs))[0])
            config = feasible[sel][0]
            batch = int(batches[sel])
            return ScalingDecision(
                function=function,
                config=config,
                batch=batch,
                instances=int(instances_a[sel]),
                inference_time=profile.inference_time(config, batch),
                cost=float(costs[sel]),
                feasible=True,
            )
        # No configuration meets the budget even at batch 1: scale out on the
        # fastest configuration (§V-B2 "even higher-end hardware fails").
        fastest = min(
            (c for c in self.space if profile.supports(c.backend)),
            key=lambda c: profile.inference_time(c, 1),
        )
        return ScalingDecision(
            function=function,
            config=fastest,
            batch=1,
            instances=predicted_invocations,
            inference_time=profile.inference_time(fastest, 1),
            cost=predicted_invocations * inter_arrival * fastest.unit_cost,
            feasible=False,
        )

    def plan_all(
        self,
        profiles: Mapping[str, FunctionProfile],
        budgets: Mapping[str, float],
        predicted_invocations: int,
        inter_arrival: float,
    ) -> dict[str, ScalingDecision]:
        """Scaling decisions for every function (threads in the paper)."""
        return {
            fn: self.plan(fn, profiles[fn], predicted_invocations, inter_arrival, budgets[fn])
            for fn in profiles
        }
