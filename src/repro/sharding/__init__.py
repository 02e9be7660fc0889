"""Shard plane: multi-process scale-out with bit-identical merged metrics.

Three layers (see ``docs/architecture.md``):

- :mod:`~repro.sharding.plan` — :class:`ShardPlan` deterministically
  partitions a deployment into independent (app × trace-slice) units and
  assigns them round-robin to worker shards;
- :mod:`~repro.sharding.snapshot` — a :class:`UnitResult` carries one
  finished unit's sealed sketch-retention ``RunMetrics``; a
  :class:`ShardSnapshot` is a canonically ordered set of them, and
  :func:`merge_snapshots` is the commutative, associative barrier reducer
  (``RunMetrics.merge`` folds each app's slices when it is collapsed);
- :mod:`~repro.sharding.worker` — :func:`run_shard` is the spawn-safe
  worker entrypoint, :func:`run_sharded` the scatter/merge driver.

The invariant the whole plane is built around: merged metrics are a pure
function of the plan and the root seed — never of the shard count, the
process placement, or the merge order.
"""

from repro.sharding.plan import ShardPlan, ShardUnit, clamp_shard_workers
from repro.sharding.snapshot import (
    ShardSnapshot,
    UnitResult,
    merge_snapshots,
)
from repro.sharding.worker import ShardTask, run_shard, run_sharded

__all__ = [
    "ShardPlan",
    "ShardUnit",
    "clamp_shard_workers",
    "ShardSnapshot",
    "UnitResult",
    "merge_snapshots",
    "ShardTask",
    "run_shard",
    "run_sharded",
]
