"""Spawn-safe shard workers and the scatter/barrier driver.

:func:`run_shard` is the worker entrypoint: given a picklable
:class:`ShardTask` it simulates each assigned unit as its **own**
:class:`~repro.simulator.runtime.Runtime` in ``retention="sketch"`` and
returns the shard's :class:`~repro.sharding.snapshot.ShardSnapshot` of
:class:`~repro.sharding.snapshot.UnitResult` records, each holding the
unit's sealed ``RunMetrics`` — the only thing that crosses the process
boundary back.  It is a module-level function over frozen plain-data
arguments, so it works under both ``fork`` and ``spawn`` start methods
(macOS/Windows default to ``spawn``).

:func:`run_sharded` is the driver: scatter the plan's unit assignments
over worker processes with the experiment grid's order-preserving
:func:`~repro.experiments.parallel.fan_out`, then merge the shard
snapshots at the barrier with
:func:`~repro.sharding.snapshot.merge_snapshots`.  Because each unit's
trace window and seed derive only from the unit itself (see
:func:`~repro.simulator.runtime.derive_slice_seed`), the merged snapshot
is a pure function of the plan and the cell — any shard count, any process
placement, same bits.  ``fan_out`` degrades to in-process execution for a
daemonic caller or a pool that fails to start; results are identical
either way, only slower.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.experiments.parallel import (
    EnvSpec,
    MultiAppCellSpec,
    _environment,
    fan_out,
)
from repro.sharding.plan import ShardPlan, ShardUnit
from repro.sharding.snapshot import ShardSnapshot, UnitResult, merge_snapshots

__all__ = ["ShardTask", "run_shard", "run_sharded"]


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker process needs, in picklable form.

    ``cell`` supplies the environments (one per app in ``units``), the
    policy, the root seed and the failure and overload regime; the units
    fix which trace slices run.
    """

    shard_index: int
    units: tuple[ShardUnit, ...]
    cell: MultiAppCellSpec

    def env_for(self, app: str) -> EnvSpec:
        """The environment recipe of one app (KeyError if unmapped)."""
        for env in self.cell.envs:
            if env.app == app:
                return env
        raise KeyError(
            f"shard task has no environment for app {app!r}; "
            f"mapped: {sorted(e.app for e in self.cell.envs)}"
        )


def _run_unit(task: ShardTask, unit: ShardUnit) -> UnitResult:
    """Simulate one unit as its own runtime; ship its sealed metrics."""
    from repro.simulator.runtime import Runtime, derive_slice_seed

    env = _environment(task.env_for(unit.app))
    if unit.n_slices == 1:
        trace = env.trace
    else:
        width = env.trace.duration / unit.n_slices
        start = unit.slice_index * width
        # The last slice closes at the exact horizon, never a rounded one.
        end = (
            env.trace.duration
            if unit.slice_index == unit.n_slices - 1
            else (unit.slice_index + 1) * width
        )
        trace = env.trace.slice(start, end)
    cell = task.cell
    seed = derive_slice_seed(
        cell.sim_seed, unit.app, unit.slice_index, unit.n_slices
    )
    # Built before the clock starts, as in run_cell: predictor training
    # is offline preparation, not simulation.
    policy = env.make_policy(cell.policy)
    wall_start = time.perf_counter()
    runtime = Runtime(
        faults=cell.faults,
        overload=cell.overload,
        init_failure_rate=cell.init_failure_rate,
        retention="sketch",
    )
    runtime.add_app(env.app, trace, policy, seed=seed)
    metrics = runtime.run()[env.app.name]
    wall = time.perf_counter() - wall_start
    # The per-window samples stay here: they grow with the window count
    # and no merged figure reads them.
    metrics.pod_samples = []
    metrics.arrival_samples = []
    metrics.latency_sketch.flush()
    return UnitResult(
        unit=unit,
        metrics=metrics,
        events_processed=runtime.events.processed,
        arrivals=len(trace),
        wall_clock=wall,
    )


def run_shard(task: ShardTask) -> ShardSnapshot:
    """Worker entrypoint: simulate every assigned unit, return the snapshot.

    Each unit is a fresh runtime (own clock, event heap, cluster), so a
    shard's result is independent of which other units share its process —
    the property the bit-identity bar rests on.  Environments memoize per
    process (:func:`repro.experiments.parallel._environment`), so a shard
    holding four slices of one app profiles that app once.
    """
    return ShardSnapshot(
        units=tuple(_run_unit(task, unit) for unit in task.units)
    )


def run_sharded(
    plan: ShardPlan,
    cell: MultiAppCellSpec,
    *,
    processes: int | None = None,
    mp_context: str | None = None,
) -> ShardSnapshot:
    """Scatter the plan over worker processes; merge at the barrier.

    ``cell`` supplies every planned app's environment, the policy, the
    root seed and the failure and overload regime; the plan, not the
    cell's ``shards``/``slices_per_app``, fixes the units, and every unit
    keeps sketch retention.  ``processes`` caps the pool size (default:
    the plan's shard count); ``mp_context`` picks the multiprocessing
    start method (``"spawn"``, ``"fork"``, ...; default: the platform's).
    Runs serially — same result, one process — when only one shard has
    work, when ``processes`` is 1, when called from a daemonic
    (pool-worker) process, or when the pool cannot start
    (``RuntimeWarning``).
    """
    missing = set(plan.apps) - {env.app for env in cell.envs}
    if missing:
        raise ValueError(
            f"plan needs environments for apps {sorted(missing)}; "
            f"mapped: {sorted(e.app for e in cell.envs)}"
        )
    tasks = [
        ShardTask(shard_index=i, units=units, cell=cell)
        for i, units in enumerate(plan.assignments())
    ]
    snapshots = fan_out(
        run_shard,
        tasks,
        workers=len(tasks) if processes is None else processes,
        mp_context=mp_context,
    )
    return merge_snapshots(*snapshots)
