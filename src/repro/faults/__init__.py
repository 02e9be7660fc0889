"""Declarative fault-injection plane (see ``docs/robustness.md``).

A :class:`FaultPlan` (:mod:`repro.faults.plan`) is a JSON-loadable,
seed-deterministic chaos schedule plus the :class:`ResilienceSpec` that
absorbs it.  Attach it to a :class:`~repro.simulator.runtime.Runtime`, a
:class:`~repro.experiments.scenario.ScenarioSpec` or the CLI
(``--faults``); each gateway then runs a
:class:`~repro.faults.plane.FaultPlane` built from it.  With no plan
attached every fault code path is skipped.
"""

from repro.faults.plan import (
    ExecutionFault,
    FaultPlan,
    FlashCrowd,
    InitFailureBurst,
    LatencyStraggler,
    MachineOutage,
    ResilienceSpec,
    RetryStorm,
)

__all__ = [
    "FaultPlan",
    "MachineOutage",
    "ExecutionFault",
    "LatencyStraggler",
    "InitFailureBurst",
    "FlashCrowd",
    "RetryStorm",
    "ResilienceSpec",
]
