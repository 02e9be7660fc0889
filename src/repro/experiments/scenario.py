"""Declarative scenario specs: (apps × policies × SLAs × presets × seeds).

A :class:`ScenarioSpec` is a picklable, JSON-loadable description of a
figure-style experiment, and the one run description of the CLI: every
run command (``compare``, ``sweep``, ``multiapp``, ``scenario``, ``report``,
``trace``, ``bench``, ``serve``) turns its flags into one.  Its
:meth:`~ScenarioSpec.cells` compiler is the *single* place that turns
experiment axes into grid cells
(:class:`~repro.experiments.parallel.MultiAppCellSpec`: one env per cell
for solo runs, every app per cell for co-runs), which run through one
:func:`~repro.experiments.parallel.run_grid` execution path — serial is
``workers=1``, not a separate code branch.  :meth:`~ScenarioSpec.cell`
compiles a spec with one value per axis to its one co-run cell.

Example (JSON accepted by ``python -m repro.cli scenario spec.json``)::

    {
      "apps": ["image-query", "amber-alert"],
      "policies": ["smiless", "grandslam"],
      "slas": [1.0, 2.0, 4.0],
      "presets": ["steady"],
      "seeds": [3],
      "duration": 300.0
    }

With ``"co_run": true`` the listed applications share one cluster per
cell (the paper's §VII-A setting) instead of running solo.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Any, Mapping

from repro.experiments.parallel import EnvSpec, MultiAppCellSpec
from repro.faults.plan import FaultPlan
from repro.overload.spec import OverloadSpec

__all__ = ["ScenarioSpec"]


def _tuple(value: Any) -> tuple:
    """Normalize a JSON scalar-or-list axis to a tuple."""
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


@dataclass(frozen=True)
class ScenarioSpec:
    """One experiment scenario: the cross product of its axes."""

    apps: tuple[str, ...]
    policies: tuple[str, ...]
    slas: tuple[float, ...] = (2.0,)
    presets: tuple[str, ...] = ("steady",)
    seeds: tuple[int, ...] = (3,)
    duration: float = 600.0
    train_duration: float = 3600.0
    env_seed: int = 0
    #: Co-run all ``apps`` on one shared cluster per cell (§VII-A) instead
    #: of simulating each app solo.
    co_run: bool = False
    #: Opt every cell into telemetry: each run is recorded and its event
    #: stream written as JSONL into this directory (one file per cell).
    #: ``None`` (default) records nothing.
    trace_dir: str | None = None
    #: Per-warmup initialization-failure probability injected into every
    #: cell (0.0 — the default — injects nothing).
    init_failure_rate: float = 0.0
    #: Fault plan attached to every cell: machine outages, execution
    #: faults, latency stragglers, init-failure bursts and the resilience
    #: knobs absorbing them.  In JSON form this key accepts an inline
    #: fault-plan object or a path string to a plan file.
    faults: FaultPlan | None = None
    #: Overload spec attached to every cell: bounded queues with shedding,
    #: token-bucket admission control, circuit breakers and brownout
    #: degradation (see :mod:`repro.overload`).  In JSON form this key
    #: accepts an inline spec object or a path string to a spec file.
    overload: OverloadSpec | None = None
    #: Record retention for every cell: "full" keeps every invocation and
    #: billing record (exact, memory grows with the trace), "sketch" folds
    #: completions into streaming accumulators (O(1) memory; latency
    #: distributions approximate within a documented rank-error bound).
    retention: str = "full"
    #: Worker processes per sharded cell (see ``slices_per_app``); merged
    #: non-distributional metrics are independent of it.
    shards: int = 1
    #: Trace slices per app: ``> 1`` runs every cell on the shard plane
    #: (:func:`~repro.experiments.parallel.run_sharded`).  Part of the
    #: experiment definition (it changes which simulations run), unlike
    #: ``shards``.
    slices_per_app: int = 1
    #: Replay the published Azure Functions CSV at this path as every
    #: cell's evaluation trace (``repro scenario --azure-trace PATH``);
    #: ``None`` keeps the synthetic preset generator.
    azure_trace: str | None = None

    def __post_init__(self) -> None:
        if not self.apps:
            raise ValueError("scenario needs at least one app")
        if not self.policies:
            raise ValueError("scenario needs at least one policy")
        for axis in ("slas", "presets", "seeds"):
            if not getattr(self, axis):
                raise ValueError(f"scenario axis {axis!r} must be non-empty")
        # Compiling checks every cell-level rule (retention, sharding,
        # tracing) where :class:`MultiAppCellSpec` states it.
        self.cells()

    # ------------------------------------------------------------- loading
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Build a spec from a plain dict (e.g. parsed JSON).

        Scalar axis values are promoted to one-element tuples; unknown
        keys are rejected with the list of valid ones.
        """
        valid = {f.name for f in fields(cls)}
        unknown = set(data) - valid
        if unknown:
            raise KeyError(
                f"unknown scenario keys {sorted(unknown)}; "
                f"valid keys: {sorted(valid)}"
            )
        kwargs: dict[str, Any] = dict(data)
        for axis in ("apps", "policies", "slas", "presets", "seeds"):
            if axis in kwargs:
                kwargs[axis] = _tuple(kwargs[axis])
        faults = kwargs.get("faults")
        if isinstance(faults, Mapping):
            kwargs["faults"] = FaultPlan.from_dict(faults)
        elif isinstance(faults, str):
            kwargs["faults"] = FaultPlan.from_json(faults)
        overload = kwargs.get("overload")
        if isinstance(overload, Mapping):
            kwargs["overload"] = OverloadSpec.from_dict(overload)
        elif isinstance(overload, str):
            kwargs["overload"] = OverloadSpec.from_json(overload)
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path: str | Path) -> "ScenarioSpec":
        """Load a spec from a JSON file."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    def to_dict(self) -> dict[str, Any]:
        """Round-trippable plain-dict form (JSON-serializable)."""
        return asdict(self)

    # ------------------------------------------------------------ compiling
    def cells(self) -> list[MultiAppCellSpec]:
        """Compile the scenario to grid cells, in deterministic order.

        Solo scenarios produce one one-env cell per
        (preset × app × sla × policy × seed); co-run scenarios produce one
        cell per (preset × sla × policy × seed) with every app deployed
        together.
        """
        groups = (self.apps,) if self.co_run else tuple((a,) for a in self.apps)
        return [
            MultiAppCellSpec(
                envs=tuple(self._env_spec(app, preset, sla) for app in apps),
                policy=policy,
                sim_seed=seed,
                trace_dir=self.trace_dir,
                init_failure_rate=self.init_failure_rate,
                faults=self.faults,
                overload=self.overload,
                retention=self.retention,
                shards=self.shards,
                slices_per_app=self.slices_per_app,
            )
            for preset in self.presets
            for apps in groups
            for sla in self.slas
            for policy in self.policies
            for seed in self.seeds
        ]

    def cell(self) -> MultiAppCellSpec:
        """Compile to the single co-run cell of a one-run command.

        ``repro serve``, ``bench``, ``report`` and ``trace`` each run
        *one* multi-tenant simulation (every app co-deployed; a one-app
        spec is a solo run), so each experiment axis must be pinned to
        exactly one value.  ``co_run`` is irrelevant here — the cell always
        co-hosts.  :class:`~repro.serving.SimDriver` rejects what the
        live path does not support (fault plans, sharding, telemetry
        tracing).
        """
        for axis in ("policies", "slas", "presets", "seeds"):
            values = getattr(self, axis)
            if len(values) != 1:
                raise ValueError(
                    f"a single run needs exactly one value on the {axis!r} "
                    f"axis, got {values!r}"
                )
        (cell,) = replace(self, co_run=True).cells()
        return cell

    def _env_spec(self, app: str, preset: str, sla: float) -> EnvSpec:
        return EnvSpec(
            app=app,
            preset=preset,
            sla=sla,
            duration=self.duration,
            train_duration=self.train_duration,
            seed=self.env_seed,
            azure_trace=self.azure_trace,
        )
