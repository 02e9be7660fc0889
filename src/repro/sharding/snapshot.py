"""Finished shard units and the commutative barrier merge.

A finished unit ships as a :class:`UnitResult`: its
:class:`~repro.sharding.plan.ShardUnit`, its sealed sketch-retention
:class:`~repro.simulator.metrics.RunMetrics`, its event count, its slice
arrival count and its wall clock.  A sealed sketch-retention run holds no
gateway reference — only counters, the latency sketch and stats and the
billing fold — so it pickles as it is under both ``fork`` and ``spawn``.
The worker flushes the latency sketch and drops the per-window pod and
arrival samples (which grow with the window count) before the unit
leaves.  A :class:`ShardSnapshot` is a canonically ordered set of unit
results; :func:`merge_snapshots` unions them.

Merge algebra — why the reducer is *bit-for-bit* commutative and
associative (pinned by ``tests/test_sharding.py``): merging never adds
floats.  It only unions unit results, and :class:`ShardSnapshot`
normalizes them into canonical ``(app, slice_index)`` order, so any
merge tree over any shard ordering produces an *equal* snapshot.  All
floating-point reduction is deferred to
:meth:`ShardSnapshot.per_app_metrics`, which folds each app's units with
:meth:`RunMetrics.merge` in canonical order — the identical fold a 1-shard
run performs — making merged counters, costs, availability, goodput and
conservation sums bit-identical regardless of how many processes ran the
plan.  Latency quantiles come from t-digest merges in the same canonical
order, and stay within the sketch's documented rank-error bound of the
per-unit exact distributions.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.sharding.plan import ShardUnit
from repro.simulator.metrics import RunMetrics

__all__ = ["UnitResult", "ShardSnapshot", "merge_snapshots"]


@dataclass(frozen=True)
class UnitResult:
    """What one finished unit contributes to the merged run.

    ``metrics`` is the unit's sealed sketch-retention run; ``arrivals``
    counts its trace slice's arrivals (the conservation cross-check).
    """

    unit: ShardUnit
    metrics: RunMetrics
    events_processed: int = 0
    arrivals: int = 0
    #: Host timing, not simulation outcome — excluded from equality so two
    #: runs of the same unit compare equal bit for bit.
    wall_clock: float = field(default=0.0, compare=False)

    @property
    def key(self) -> tuple[str, int]:
        """Canonical identity: one result per (app, slice)."""
        return self.unit.key


@dataclass(frozen=True)
class ShardSnapshot:
    """A set of unit results in canonical order, mergeable at the barrier."""

    units: tuple[UnitResult, ...]

    def __post_init__(self) -> None:
        keys = [u.key for u in self.units]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate units in snapshot: {sorted(keys)}")
        object.__setattr__(
            self, "units", tuple(sorted(self.units, key=lambda u: u.key))
        )

    # ------------------------------------------------------------- queries
    @property
    def events_processed(self) -> int:
        """Simulator events across every unit (exact integer sum)."""
        return sum(u.events_processed for u in self.units)

    def arrivals(self) -> dict[str, int]:
        """Trace arrivals per app, summed over its slices."""
        out: dict[str, int] = {}
        for u in self.units:
            out[u.unit.app] = out.get(u.unit.app, 0) + u.arrivals
        return out

    def per_app_metrics(self) -> dict[str, RunMetrics]:
        """Collapse the units into one merged ``RunMetrics`` per app.

        Folding happens here, in canonical (app, slice) order, so the
        result is a pure function of the unit *set* — identical no matter
        which processes produced the units or in which order snapshots
        were merged.  Each app's slices merge with :meth:`RunMetrics.merge`
        into a copy of its first slice's metrics, so the snapshot itself is
        never mutated and can be collapsed again.
        """
        grouped: dict[str, list[UnitResult]] = {}
        for result in self.units:  # already canonically sorted
            grouped.setdefault(result.unit.app, []).append(result)
        merged: dict[str, RunMetrics] = {}
        for app, results in grouped.items():
            n_slices = results[0].unit.n_slices
            got = {r.unit.slice_index for r in results}
            if {r.unit.n_slices for r in results} != {n_slices} or (
                got != set(range(n_slices))
            ):
                raise ValueError(
                    f"app {app!r} snapshot is incomplete: have slices "
                    f"{sorted(got)}, expected {list(range(n_slices))}"
                )
            metrics = copy.deepcopy(results[0].metrics)
            for result in results[1:]:
                metrics.merge(result.metrics)
            merged[app] = metrics
        return merged

    def summary(self) -> dict[str, dict[str, float]]:
        """Merged per-app summaries (the macro bench's record shape)."""
        return {
            app: metrics.summary()
            for app, metrics in self.per_app_metrics().items()
        }


def merge_snapshots(*snapshots: ShardSnapshot) -> ShardSnapshot:
    """Union shard snapshots: the pure, commutative, associative reducer.

    No floats are combined here — the union is re-canonicalized by
    :class:`ShardSnapshot`, so every merge tree over every argument order
    yields an *equal* snapshot (bit-for-bit, including the metrics later
    collapsed from it).  Duplicate (app, slice) units are rejected: a unit
    must be simulated by exactly one shard.
    """
    if not snapshots:
        raise ValueError("need at least one snapshot to merge")
    return ShardSnapshot(
        units=tuple(u for snap in snapshots for u in snap.units)
    )
