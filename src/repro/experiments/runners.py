"""Experiment runners: environments and scenario rows.

:func:`build_environment` profiles an app and synthesizes its training
history and evaluation trace.  :func:`run_scenario` is the one runner: a
comparison, an SLA sweep and a co-run are all a
:class:`~repro.experiments.scenario.ScenarioSpec`, compiled to cells and
executed through :func:`~repro.experiments.parallel.run_grid` — serial
execution is ``workers=1`` on the same path, not a separate branch.  Cells
carry :class:`~repro.experiments.parallel.EnvSpec` build recipes, not
environments, so every worker rebuilds exactly what
:func:`build_environment` builds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dag import (
    amber_alert,
    image_query,
    image_query_swap,
    llm_chat,
    voice_assistant,
)
from repro.dag.graph import AppDAG
from repro.experiments.parallel import CellResult, run_grid
from repro.experiments.scenario import ScenarioSpec
from repro.policies import make_policy as registry_make_policy
from repro.policies import policy_names
from repro.profiler import OfflineProfiler, oracle_profile
from repro.workload import AzureLikeWorkload, AzureTraceWorkload, Trace

APP_BUILDERS = {
    "amber-alert": amber_alert,
    "image-query": image_query,
    "voice-assistant": voice_assistant,
    # Beyond-paper archetypes (see docs/paper_mapping.md): token-driven
    # LLM serving and GPU model swapping.
    "llm-chat": llm_chat,
    "image-query-swap": image_query_swap,
}

#: The paper's three evaluation apps (Fig. 7), the macro bench's default.
PAPER_APPS = ("amber-alert", "image-query", "voice-assistant")

#: All registered policy names (see :mod:`repro.policies.registry`).
POLICY_NAMES = policy_names()


@dataclass
class Environment:
    """A profiled application plus its training history and eval trace."""

    app: AppDAG
    profiles: dict
    oracle: dict
    train_counts: np.ndarray
    trace: Trace

    def make_policy(self, name: str):
        """Instantiate a policy by registry name (see ``repro.policies.registry``)."""
        return registry_make_policy(name, self)


def build_environment(
    app_name: str,
    *,
    preset: str = "steady",
    sla: float = 2.0,
    duration: float = 600.0,
    train_duration: float = 3600.0,
    seed: int = 0,
    azure_trace: str | None = None,
) -> Environment:
    """Profile an evaluation app and synthesize its workload.

    ``azure_trace`` replays the published Azure Functions CSV at ``PATH``
    as the *evaluation* trace (``repro scenario --azure-trace``); training
    history stays synthetic (the dataset is one day — replaying it for
    both would leak the eval arrivals into predictor training).
    """
    try:
        app = APP_BUILDERS[app_name](sla=sla)
    except KeyError:
        raise KeyError(
            f"unknown application {app_name!r}; "
            f"available: {', '.join(APP_BUILDERS)}"
        ) from None
    profiles = OfflineProfiler().profile_app(app, rng=seed)
    oracle = {s.name: oracle_profile(s.profile, n_sigma=1.0) for s in app.specs}
    train = AzureLikeWorkload.preset(preset, seed=seed).generate(train_duration)
    if azure_trace is not None:
        trace = AzureTraceWorkload(azure_trace).generate(
            duration, seed=seed + 1000
        )
    else:
        trace = AzureLikeWorkload.preset(preset, seed=seed + 1000).generate(
            duration
        )
    return Environment(
        app=app,
        profiles=profiles,
        oracle=oracle,
        train_counts=train.counts_per_window(1.0),
        trace=trace,
    )


@dataclass(frozen=True)
class ComparisonRow:
    """One policy's outcome in a comparison run."""

    policy: str
    total_cost: float
    violation_ratio: float
    mean_latency: float
    p99_latency: float
    reinit_fraction: float

    @classmethod
    def from_summary(cls, policy: str, s: dict) -> "ComparisonRow":
        return cls(
            policy=policy,
            total_cost=s["total_cost"],
            violation_ratio=s["violation_ratio"],
            mean_latency=s["mean_latency"],
            p99_latency=s["p99_latency"],
            reinit_fraction=s["reinit_fraction"],
        )


@dataclass(frozen=True)
class ScenarioRow:
    """One (app, policy) outcome of a scenario cell, with its coordinates."""

    app: str
    preset: str
    sla: float
    env_seed: int
    sim_seed: int
    policy: str
    row: ComparisonRow


def scenario_rows(res: CellResult) -> list[ScenarioRow]:
    """One row per app of a cell result, with the cell's coordinates."""
    by_app = {e.app: e for e in res.spec.envs}
    return [
        ScenarioRow(
            app=app,
            preset=by_app[app].preset,
            sla=by_app[app].sla,
            env_seed=by_app[app].seed,
            sim_seed=res.spec.sim_seed,
            policy=res.spec.policy,
            row=ComparisonRow.from_summary(res.spec.policy, summary),
        )
        for app, summary in res.summary.items()
    ]


def run_scenario(
    scenario: ScenarioSpec, *, workers: int = 1
) -> list[ScenarioRow]:
    """Compile and run a scenario end-to-end; one row per (app, policy) cell.

    Co-run cells expand to one row per co-resident app so the output shape
    is uniform across solo and multi-tenant scenarios.
    """
    return [
        row
        for res in run_grid(scenario.cells(), workers=workers)
        for row in scenario_rows(res)
    ]
