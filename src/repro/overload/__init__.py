"""Overload-resilience plane (see ``docs/robustness.md``).

An :class:`OverloadSpec` (:mod:`repro.overload.spec`) is a JSON-loadable,
seed-deterministic description of how a gateway defends itself against
its own traffic.  Attach it to a :class:`~repro.simulator.runtime.Runtime`,
a :class:`~repro.experiments.scenario.ScenarioSpec` or the CLI
(``--overload``); each gateway then runs an
:class:`~repro.overload.plane.OverloadPlane` built from it.  With no spec
attached every overload code path is skipped.
"""

from repro.overload.spec import SHED_POLICIES, OverloadSpec, TokenBucket

__all__ = [
    "SHED_POLICIES",
    "OverloadSpec",
    "TokenBucket",
]
