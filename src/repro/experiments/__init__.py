"""Reusable experiment runners (the programmatic layer behind the CLI).

These wrap the common evaluation shapes — policy comparisons, SLA sweeps,
burst studies, multi-application co-runs, declarative scenarios — into
functions that return plain result rows, so notebooks, the CLI and ad-hoc
scripts share one implementation with the benchmark suite's semantics.
All runners compile their axes through
:class:`~repro.experiments.scenario.ScenarioSpec` and execute through the
single :func:`~repro.experiments.parallel.run_grid` path.
"""

from repro.experiments.packs import (
    PACK_NAMES,
    PackCheck,
    PackReport,
    pack_spec,
    run_pack,
)
from repro.experiments.parallel import (
    CellResult,
    EnvSpec,
    MultiAppCellSpec,
    product_grid,
    run_grid,
)
from repro.experiments.runners import (
    ComparisonRow,
    ScenarioRow,
    build_environment,
    run_comparison,
    run_multi_app,
    run_scenario,
    run_sla_sweep,
)
from repro.experiments.scenario import ScenarioSpec

__all__ = [
    "ComparisonRow",
    "PACK_NAMES",
    "PackCheck",
    "PackReport",
    "ScenarioRow",
    "ScenarioSpec",
    "EnvSpec",
    "MultiAppCellSpec",
    "CellResult",
    "build_environment",
    "pack_spec",
    "product_grid",
    "run_grid",
    "run_comparison",
    "run_pack",
    "run_sla_sweep",
    "run_multi_app",
    "run_scenario",
]
