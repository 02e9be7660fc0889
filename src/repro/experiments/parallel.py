"""Parallel experiment grid: fan simulation cells across worker processes.

A *cell* is one (applications, policy, SLA, seed) simulation: the apps of
a :class:`MultiAppCellSpec` share one cluster, and a solo run is a cell
with one app.  Figure-style experiments are embarrassingly parallel across
cells — each cell builds its environments from picklable :class:`EnvSpec`
recipes and runs a fresh simulator — so the grid fans them over a
``ProcessPoolExecutor``.

Determinism: a cell's outcome depends only on its spec (environment seed
and simulator seed), never on scheduling order, so a parallel grid returns
bit-identical summaries to a serial one.  ``executor.map`` preserves input
order, which keeps result lists stable too.

Worker processes memoize environments per :class:`EnvSpec` (profiling and
trace synthesis are the expensive, deterministic part), so a sweep of many
policies over one environment pays the build cost once per process.
"""

from __future__ import annotations

import multiprocessing
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.faults.plan import FaultPlan
    from repro.overload.spec import OverloadSpec
    from repro.simulator import MultiAppSimulator
    from repro.telemetry.recorder import TraceRecorder


@dataclass(frozen=True)
class EnvSpec:
    """Picklable recipe for :func:`repro.experiments.runners.build_environment`."""

    app: str
    preset: str = "steady"
    sla: float = 2.0
    duration: float = 600.0
    train_duration: float = 3600.0
    seed: int = 0
    #: Path to a published Azure Functions CSV whose busiest row replays
    #: as the evaluation trace (``None`` keeps the synthetic generator).
    azure_trace: str | None = None


@dataclass(frozen=True)
class MultiAppCellSpec:
    """One grid cell: environments sharing a cluster, a policy and a seed.

    A solo run is a one-env cell (§VII-A co-runs the apps on one shared
    cluster; a co-run of one app is a solo run).  Every tenant is seeded
    with :func:`~repro.simulator.runtime.derive_app_seed` of ``sim_seed``
    and its app name.

    ``trace_dir`` opts the cell into telemetry: the run is recorded with a
    :class:`~repro.telemetry.recorder.TraceRecorder` and the event stream
    (all tenants interleaved) is written as JSONL into that directory,
    named after the cell's coordinates.  ``None`` records nothing and adds
    no overhead.

    ``init_failure_rate`` injects per-warmup initialization failures;
    ``faults`` attaches a full :class:`~repro.faults.FaultPlan`;
    ``overload`` an :class:`~repro.overload.OverloadSpec` (``None`` leaves
    every hook inert).  ``retention`` selects record retention ("full"
    keeps every record, "sketch" folds completions into streaming
    accumulators — see ``docs/performance.md``).

    ``slices_per_app > 1`` puts the cell on the shard plane
    (:mod:`repro.sharding`): each app's trace is cut into that many
    time-slices, each simulated on its *own* cluster, fanned over
    ``shards`` worker processes and merged at the barrier.  ``shards``
    only sets the worker count: merged non-distributional metrics are
    bit-identical for any ``shards`` over the same ``slices_per_app``.
    """

    envs: tuple[EnvSpec, ...]
    policy: str
    sim_seed: int = 3
    trace_dir: str | None = None
    init_failure_rate: float = 0.0
    faults: "FaultPlan | None" = None
    overload: "OverloadSpec | None" = None
    retention: str = "full"
    shards: int = 1
    slices_per_app: int = 1

    def __post_init__(self) -> None:
        from repro.simulator.metrics import RETENTION_MODES

        if self.retention not in RETENTION_MODES:
            raise ValueError(
                f"unknown retention mode {self.retention!r}; "
                f"expected one of {RETENTION_MODES}"
            )
        if self.shards < 1 or self.slices_per_app < 1:
            raise ValueError(
                f"shards and slices_per_app must be >= 1, got "
                f"shards={self.shards}, slices_per_app={self.slices_per_app}"
            )
        if self.shards == 1 and self.slices_per_app == 1:
            return
        if self.retention != "sketch":
            raise ValueError(
                "sharded cells require retention='sketch' (snapshots extract "
                f"streaming state); got retention={self.retention!r}"
            )
        if self.trace_dir is not None:
            raise ValueError(
                "sharded cells cannot record telemetry traces: each unit "
                "runs as its own runtime, which would shred one JSONL stream"
            )
        if self.slices_per_app == 1:
            raise ValueError(
                f"shards={self.shards} needs slices_per_app > 1: sharding "
                "runs (app x trace-slice) units on clusters of their own, "
                "while an unsliced cell is one shared-cluster run"
            )


@dataclass(frozen=True)
class CellResult:
    """Outcome of one cell, with timing for the perf microbench.

    ``summary`` maps each app to its ``RunMetrics.summary()``.
    ``extras`` carries counters absent from the golden-pinned summary key
    set (conservation terms, swap-in counts), keyed by app as well; a
    sharded cell reports both from its merged per-app metrics.
    """

    spec: MultiAppCellSpec
    summary: dict
    wall_clock: float
    events_processed: int
    extras: dict = field(default_factory=dict)

    @property
    def events_per_second(self) -> float:
        """Simulator event throughput of this cell."""
        if self.wall_clock <= 0:
            return float("inf")
        return self.events_processed / self.wall_clock


@lru_cache(maxsize=8)
def _environment(spec: EnvSpec):
    """Per-process environment cache (profiling + trace synthesis are pure)."""
    from repro.experiments.runners import build_environment

    return build_environment(
        spec.app,
        preset=spec.preset,
        sla=spec.sla,
        duration=spec.duration,
        train_duration=spec.train_duration,
        seed=spec.seed,
        azure_trace=spec.azure_trace,
    )


def cell_trace_path(spec: MultiAppCellSpec) -> Path:
    """Where a traced cell writes its JSONL (named after its coordinates)."""
    assert spec.trace_dir is not None
    apps = "+".join(e.app for e in spec.envs)
    env = spec.envs[0]
    name = (
        f"{apps}-{env.preset}-sla{env.sla:g}-{spec.policy}"
        f"-seed{spec.sim_seed}.jsonl"
    )
    return Path(spec.trace_dir) / name


def _metrics_extras(metrics, *, arrivals: int) -> dict:
    """Conservation and swap counters not part of the pinned summary keys.

    ``arrivals`` is the *trace's* invocation count, so the extended
    conservation identity ``arrivals + injected_arrivals == completed +
    unfinished + timed_out + shed + rejected`` is an independent
    cross-check, not a tautology (it reduces to the classic three-term
    identity when no overload spec or flash crowd is attached).
    """
    return {
        **metrics.dispositions(),
        "peak_queue_depth": metrics.peak_queue_depth,
        "arrivals": arrivals,
        "initializations": metrics.initializations,
        "swap_ins": metrics.swap_ins,
    }


def cell_simulator(
    spec: MultiAppCellSpec, *, recorder: "TraceRecorder | None" = None
) -> "tuple[list, MultiAppSimulator]":
    """Build a shared-cluster cell's environments and its ready simulator.

    Returns ``(environments, simulator)``, environments in ``spec.envs``
    order.  Policies are constructed here — a policy that consumes
    ``train_counts`` trains its predictors, which is offline preparation —
    so a caller timing ``simulator.run()`` times the simulation only.
    Every tenant is seeded with ``derive_app_seed(spec.sim_seed, app)``.
    """
    from repro.simulator import Deployment, MultiAppSimulator

    envs = [_environment(e) for e in spec.envs]
    deployments = [
        Deployment(env.app, env.trace, env.make_policy(spec.policy))
        for env in envs
    ]
    sim = MultiAppSimulator(
        deployments,
        seed=spec.sim_seed,
        recorder=recorder,
        init_failure_rate=spec.init_failure_rate,
        faults=spec.faults,
        overload=spec.overload,
        retention=spec.retention,
    )
    return envs, sim


def run_cell(spec: MultiAppCellSpec) -> CellResult:
    """Build the cell's environments, serve their traces, time the run.

    The apps share one cluster and the summary is keyed by app name;
    ``slices_per_app > 1`` runs the cell on the shard plane instead.
    Cells with a ``trace_dir`` also leave a JSONL telemetry trace behind
    (written after the clock stops, so tracing does not distort the perf
    numbers beyond event construction itself).
    """
    if spec.slices_per_app > 1:
        return _run_sharded_cell(spec)
    recorder = None
    if spec.trace_dir is not None:
        from repro.telemetry.recorder import TraceRecorder

        recorder = TraceRecorder()
    envs, sim = cell_simulator(spec, recorder=recorder)
    start = time.perf_counter()
    results = sim.run()
    wall = time.perf_counter() - start
    if recorder is not None:
        path = cell_trace_path(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        recorder.write_jsonl(path)
    return _cell_result(
        spec,
        results,
        arrivals={env.app.name: len(env.trace) for env in envs},
        wall_clock=wall,
        events_processed=sim.events.processed,
    )


def _cell_result(
    spec: MultiAppCellSpec,
    results: dict,
    *,
    arrivals: dict[str, int],
    wall_clock: float,
    events_processed: int,
) -> CellResult:
    """A cell's result from its per-app metrics, sharded or not."""
    return CellResult(
        spec=spec,
        summary={name: m.summary() for name, m in results.items()},
        wall_clock=wall_clock,
        events_processed=events_processed,
        extras={
            name: _metrics_extras(m, arrivals=arrivals[name])
            for name, m in results.items()
        },
    )


def _run_sharded_cell(spec: MultiAppCellSpec) -> CellResult:
    """Run a shard-plane cell: scatter units over processes, merge, time.

    ``wall_clock`` is the barrier wall time (what a user waits for);
    ``events_processed`` sums over every unit; summaries and extras come
    from the merged per-app metrics, as in :func:`run_cell`.
    """
    # Late import: repro.sharding imports this module for the cell spec
    # and the environment cache.
    from repro.sharding import ShardPlan, run_sharded

    plan = ShardPlan.for_apps(
        [e.app for e in spec.envs],
        n_shards=spec.shards,
        slices_per_app=spec.slices_per_app,
    )
    start = time.perf_counter()
    snapshot = run_sharded(plan, spec)
    wall = time.perf_counter() - start
    return _cell_result(
        spec,
        snapshot.per_app_metrics(),
        arrivals=snapshot.arrivals(),
        wall_clock=wall,
        events_processed=snapshot.events_processed,
    )


def fan_out(
    fn: Callable,
    items: Sequence,
    *,
    workers: int,
    mp_context: str | None = None,
) -> list:
    """``[fn(x) for x in items]`` on up to ``workers`` processes, in order.

    ``executor.map`` preserves input order, so results line up with
    ``items`` whatever the worker count.  ``mp_context`` picks the start
    method (``"spawn"``, ``"fork"``, ...; default: the platform's).  Runs
    in-process — same results, only slower — when one worker suffices,
    when called from a daemonic (pool-worker) process, where nested pools
    are forbidden, or when the pool fails to start; the last two warn
    (``RuntimeWarning``).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    items = list(items)
    workers = min(workers, len(items))
    if workers > 1 and multiprocessing.current_process().daemon:
        warnings.warn(
            "process fan-out called from a daemonic worker process; nested "
            "process pools are not allowed, running serially in-process "
            "(results are identical).",
            RuntimeWarning,
            stacklevel=3,
        )
        workers = 1
    if workers <= 1:
        return [fn(x) for x in items]
    context = multiprocessing.get_context(mp_context)
    try:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=context
        ) as pool:
            return list(pool.map(fn, items))
    except OSError as exc:
        warnings.warn(
            f"worker pool failed to start ({exc}); falling back to serial "
            "in-process execution (results are identical).",
            RuntimeWarning,
            stacklevel=3,
        )
        return [fn(x) for x in items]


def run_grid(
    cells: Sequence[MultiAppCellSpec], *, workers: int = 1
) -> list[CellResult]:
    """Run every cell, fanning across ``workers`` processes when > 1.

    Results come back in input order regardless of worker count.
    """
    return fan_out(run_cell, cells, workers=workers)
