"""Indexed per-function instance pools.

The engine used to keep one flat ``list[Instance]`` per function and answer
every lifecycle query — idle pick, initializing count, live/idle counts,
min-warm enforcement — by scanning it.  :class:`InstancePool` replaces the
scans with an idle membership map and plain integer counters that are
updated on every state transition, so the dispatch hot path is O(1) (or
O(matching instances)) instead of O(all instances).

The counters are lists indexed by :attr:`InstanceState.slot` (0, 1, 2 for
INITIALIZING, IDLE, BUSY): one total list and one ``[init, idle, busy]``
list per configuration, held in a list indexed by
:attr:`HardwareConfig.slot`.  A transition costs two list indexings and
no hashing.

Determinism contract: every accessor that yields instances does so in
ascending ``instance_id`` order, which — because instance ids increase
monotonically with launch order — reproduces the pick and termination order
of the original list-scan implementation bit-for-bit.
"""

from __future__ import annotations

import heapq
from typing import Iterator, Sequence

from repro.hardware.configs import N_CONFIGS, Backend, HardwareConfig
from repro.simulator.container import Instance, InstanceState

_INIT = InstanceState.INITIALIZING.slot
_IDLE = InstanceState.IDLE.slot
_BUSY = InstanceState.BUSY.slot
_INITIALIZING = InstanceState.INITIALIZING
_heappush = heapq.heappush


class InstancePool:
    """State-indexed registry of one function's live instances."""

    __slots__ = (
        "_live",
        "_idle",
        "_idle_heap",
        "_idle_cfg_heaps",
        "_state_counts",
        "_cfg_counts",
        "_backend_live",
    )

    def __init__(self) -> None:
        # Insertion order == launch order == ascending instance_id.
        self._live: dict[int, Instance] = {}
        self._idle: dict[int, Instance] = {}
        # Min-heaps of instance ids for O(log n) FIFO picks, in total and
        # per configuration slot; entries are deleted lazily (validity ==
        # membership in ``_idle``).
        self._idle_heap: list[int] = []
        self._idle_cfg_heaps: list[list[int]] = [[] for _ in range(N_CONFIGS)]
        # Live instances per state slot, in total and per configuration.
        self._state_counts = [0, 0, 0]
        self._cfg_counts = [[0, 0, 0] for _ in range(N_CONFIGS)]
        # Live instances per backend: ``[cpu, gpu]``.
        self._backend_live = [0, 0]

    # ------------------------------------------------------------ mutation
    def add(self, inst: Instance) -> None:
        """Register a freshly launched (INITIALIZING) instance."""
        if inst.state is not _INITIALIZING:
            raise ValueError(
                f"instance {inst.instance_id} added in state {inst.state.value}"
            )
        self._live[inst.instance_id] = inst
        self._cfg_counts[inst.config.slot][_INIT] += 1
        self._state_counts[_INIT] += 1
        self._backend_live[inst.config.backend is Backend.GPU] += 1

    def transition(self, inst: Instance, old_state: InstanceState) -> None:
        """Re-index ``inst`` after its state changed from ``old_state``."""
        new_state = inst.state
        if new_state is old_state:
            return
        old, new = old_state.slot, new_state.slot
        slot = inst.config.slot
        counts = self._cfg_counts[slot]
        counts[old] -= 1
        counts[new] += 1
        totals = self._state_counts
        totals[old] -= 1
        totals[new] += 1
        if old == _IDLE:
            del self._idle[inst.instance_id]
        elif new == _IDLE:
            iid = inst.instance_id
            self._idle[iid] = inst
            _heappush(self._idle_heap, iid)
            _heappush(self._idle_cfg_heaps[slot], iid)

    def remove(self, inst: Instance, old_state: InstanceState) -> None:
        """Deregister a terminated instance (``old_state`` = state before)."""
        old = old_state.slot
        self._cfg_counts[inst.config.slot][old] -= 1
        self._state_counts[old] -= 1
        self._backend_live[inst.config.backend is Backend.GPU] -= 1
        del self._live[inst.instance_id]
        if old == _IDLE:
            del self._idle[inst.instance_id]

    # ------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._live)

    def __iter__(self) -> Iterator[Instance]:
        """Live instances in launch (ascending id) order."""
        return iter(self._live.values())

    def live_count(self, config: HardwareConfig | None = None) -> int:
        """Instances holding resources, optionally of one configuration."""
        if config is None:
            return len(self._live)
        return sum(self._counts(config))

    def idle_count(self) -> int:
        """Warm instances currently idle."""
        return len(self._idle)

    def initializing_count(self) -> int:
        """Instances still warming up."""
        return self._state_counts[_INIT]

    def warm_count(self, config: HardwareConfig | None = None) -> int:
        """Instances past initialization (IDLE or BUSY)."""
        counts = self._counts(config)
        return counts[_IDLE] + counts[_BUSY]

    def uncommitted_count(self, config: HardwareConfig | None = None) -> int:
        """Instances a warm-up request may count on (INITIALIZING or IDLE)."""
        counts = self._counts(config)
        return counts[_INIT] + counts[_IDLE]

    def _counts(self, config: HardwareConfig | None) -> Sequence[int]:
        """Per-slot counts in total (``None``) or of one configuration."""
        if config is None:
            return self._state_counts
        return self._cfg_counts[config.slot]

    def backend_live_counts(self) -> tuple[int, int]:
        """``(cpu, gpu)`` live instance counts for the pod-sample metric."""
        return self._backend_live[0], self._backend_live[1]

    def pick_idle(self, preferred: HardwareConfig) -> Instance | None:
        """Lowest-id idle instance, preferring ``preferred``'s configuration.

        This is the original scan's pick order: first idle instance of the
        directive's configuration in launch order, else the oldest idle
        instance of any configuration.
        """
        # Smallest currently-idle id on each heap, pruning stale entries
        # (a pick with nothing idle empties both heaps).
        idle = self._idle
        heap = self._idle_cfg_heaps[preferred.slot]
        while heap:
            inst = idle.get(heap[0])
            if inst is not None:
                return inst
            heapq.heappop(heap)
        heap = self._idle_heap
        while heap:
            inst = idle.get(heap[0])
            if inst is not None:
                return inst
            heapq.heappop(heap)
        return None

    def idle_sorted(self, config: HardwareConfig | None = None) -> list[Instance]:
        """Snapshot of idle instances in ascending id order."""
        ids = sorted(self._idle)
        if config is None:
            return [self._idle[i] for i in ids]
        slot = config.slot
        return [self._idle[i] for i in ids if self._idle[i].config.slot == slot]
