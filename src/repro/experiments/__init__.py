"""Reusable experiment runners (the programmatic layer behind the CLI).

One run description, :class:`~repro.experiments.scenario.ScenarioSpec`,
states every evaluation shape — policy comparisons, SLA sweeps,
multi-application co-runs, built-in scenario packs — as the cross product
of its axes.  :meth:`~ScenarioSpec.cells` compiles it to grid cells, which
run through the single :func:`~repro.experiments.parallel.run_grid` path
(:func:`run_scenario` returns plain result rows); :meth:`~ScenarioSpec.cell`
compiles a one-value-per-axis spec to the one cell a single run hosts.
Notebooks, the CLI and ad-hoc scripts share this one implementation with
the benchmark suite's semantics.
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
    run_grid,
)
from repro.experiments.runners import (
    ComparisonRow,
    ScenarioRow,
    build_environment,
    run_scenario,
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
    "run_grid",
    "run_pack",
    "run_scenario",
]
