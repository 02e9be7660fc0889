"""Experiment runners: environments, comparisons, sweeps, co-runs.

Every runner compiles its axes through the
:class:`~repro.experiments.scenario.ScenarioSpec` compiler and executes
through :func:`~repro.experiments.parallel.run_grid` — serial execution is
``workers=1`` on the same path, not a separate branch.  Cells carry the
environment's build recipe (:attr:`Environment.spec`), not the environment
itself, so every worker rebuilds exactly what :func:`build_environment`
built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.faults.plan import FaultPlan
    from repro.overload.spec import OverloadSpec

from repro.dag import (
    amber_alert,
    image_query,
    image_query_swap,
    llm_chat,
    voice_assistant,
)
from repro.dag.graph import AppDAG
from repro.experiments.parallel import (
    CellResult,
    EnvSpec,
    MultiAppCellSpec,
    run_grid,
)
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
    # Picklable recipe this environment was built from; the runners ship
    # it to grid cells, which rebuild the environment from it.
    spec: EnvSpec

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
        spec=EnvSpec(
            app=app_name,
            preset=preset,
            sla=sla,
            duration=duration,
            train_duration=train_duration,
            seed=seed,
            azure_trace=azure_trace,
        ),
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


def run_comparison(
    env: Environment,
    policies: tuple[str, ...] = ("smiless", "orion", "icebreaker", "grandslam"),
    *,
    seed: int = 3,
    workers: int = 1,
    init_failure_rate: float = 0.0,
    faults: "FaultPlan | None" = None,
    overload: "OverloadSpec | None" = None,
    retention: str = "full",
) -> list[ComparisonRow]:
    """Serve the environment's trace under each policy.

    Compiles to grid cells through the scenario compiler and runs through
    :func:`run_grid` — with ``workers > 1`` policies fan across worker
    processes, and summaries are identical to a serial run.
    ``init_failure_rate`` / ``faults`` inject the same failure regime into
    every policy's run, making chaos comparisons apples-to-apples.
    """
    scenario = ScenarioSpec.for_environment(
        env.spec,
        policies=tuple(policies),
        seeds=(seed,),
        init_failure_rate=init_failure_rate,
        faults=faults,
        overload=overload,
        retention=retention,
    )
    return [
        ComparisonRow.from_summary(res.spec.policy, res.summary[env.spec.app])
        for res in run_grid(scenario.cells(), workers=workers)
    ]


def run_sla_sweep(
    env: Environment,
    slas: tuple[float, ...],
    policy: str = "smiless",
    *,
    seed: int = 3,
    workers: int = 1,
    init_failure_rate: float = 0.0,
    faults: "FaultPlan | None" = None,
    overload: "OverloadSpec | None" = None,
    retention: str = "full",
) -> list[tuple[float, ComparisonRow]]:
    """Re-serve the trace at each SLA target under one policy.

    With ``workers > 1`` the SLA points run in parallel worker processes,
    through the same grid path a serial run uses.
    """
    scenario = ScenarioSpec.for_environment(
        env.spec,
        policies=(policy,),
        slas=tuple(slas),
        seeds=(seed,),
        init_failure_rate=init_failure_rate,
        faults=faults,
        overload=overload,
        retention=retention,
    )
    return [
        (sla, ComparisonRow.from_summary(policy, res.summary[env.spec.app]))
        for sla, res in zip(slas, run_grid(scenario.cells(), workers=workers))
    ]


def run_multi_app(
    envs: list[Environment],
    policies: str | tuple[str, ...] = "smiless",
    *,
    seed: int = 3,
    workers: int = 1,
    init_failure_rate: float = 0.0,
    faults: "FaultPlan | None" = None,
    overload: "OverloadSpec | None" = None,
    retention: str = "full",
) -> dict[str, ComparisonRow] | dict[str, dict[str, ComparisonRow]]:
    """Co-run several environments on one shared cluster (§VII-A).

    With a single policy name the return value is ``{app: row}``; with a
    tuple of policies it is ``{policy: {app: row}}`` and ``workers > 1``
    fans one co-run cell per policy across worker processes (through the
    same :func:`run_grid` path as serial execution).
    """
    if not envs:
        raise ValueError("need at least one environment")
    single = isinstance(policies, str)
    names = (policies,) if single else tuple(policies)
    cells = [
        MultiAppCellSpec(
            envs=tuple(env.spec for env in envs),
            policy=name,
            sim_seed=seed,
            init_failure_rate=init_failure_rate,
            faults=faults,
            overload=overload,
            retention=retention,
        )
        for name in names
    ]
    results = {
        res.spec.policy: {
            app: ComparisonRow.from_summary(res.spec.policy, summary)
            for app, summary in res.summary.items()
        }
        for res in run_grid(cells, workers=workers)
    }
    return results[names[0]] if single else results


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
