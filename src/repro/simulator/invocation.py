"""Invocations, per-stage execution records, and function directives.

An :class:`Invocation` is one user request to an application; it fans out
into one stage per DAG function.  A :class:`FunctionDirective` is the
policy's standing instruction for one function — which configuration to
launch, how long idle instances may linger (keep-alive), the batch limit,
and a minimum warm fleet size for scale-out.

Invocation ids: every constructor supplies an explicit id — the gateway
draws from its :meth:`Runtime.next_invocation_id
<repro.simulator.runtime.Runtime>` counter, which starts at 0 per
runtime, so a run's ids (and therefore its telemetry traces) are
identical whether the process ran one simulation or a whole grid first,
and serial vs parallel grids trace the same ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.configs import HardwareConfig
from repro.hardware.servicetime import WorkUnit


@dataclass(slots=True)
class StageRecord:
    """Execution bookkeeping for one function of one invocation."""

    function: str
    ready_at: float | None = None
    started_at: float | None = None
    finished_at: float | None = None
    instance_id: int | None = None
    batch: int = 0
    cold_start: bool = False

    @property
    def queue_wait(self) -> float:
        """Seconds between becoming ready and starting execution."""
        if self.ready_at is None or self.started_at is None:
            return 0.0
        return self.started_at - self.ready_at


@dataclass(slots=True)
class Invocation:
    """One user request traversing an application DAG."""

    app: str
    arrival: float
    invocation_id: int
    stages: dict[str, StageRecord] = field(default_factory=dict)
    completed_at: float | None = None
    #: Stage re-executions consumed so far (a per-invocation retry budget
    #: shared across stages; see ``repro.faults.ResilienceSpec``).
    retries: int = 0
    #: Set when the gateway abandoned the invocation (deadline passed or
    #: retry budget exhausted); it then counts as ``timed_out``.
    abandoned_at: float | None = None
    #: Per-invocation work descriptor (token counts) drawn from the app's
    #: work model at arrival; ``None`` under the fixed-latency regime.
    work: WorkUnit | None = None
    #: Stages not yet finished; the invocation completes when it reaches 0.
    remaining: int = 0
    #: Unfinished-predecessor countdown per function index, for apps with
    #: fan-in stages (``None`` otherwise): a join becomes ready when its
    #: entry reaches 0.
    waiting: list[int] | None = None

    def stage(self, function: str) -> StageRecord:
        """Record for ``function``, created on first access."""
        rec = self.stages.get(function)
        if rec is None:
            rec = self.stages[function] = StageRecord(function)
        return rec

    @property
    def finished(self) -> bool:
        """Whether every sink stage has completed."""
        return self.completed_at is not None

    @property
    def latency(self) -> float:
        """E2E latency (arrival to completion); raises if unfinished."""
        if self.completed_at is None:
            raise ValueError(f"invocation {self.invocation_id} not finished")
        return self.completed_at - self.arrival


@dataclass
class FunctionDirective:
    """Policy-issued standing instruction for one function.

    ``keep_alive`` is the idle grace period before termination (``inf`` for
    always-on, 0 for unload-immediately-after-use — the pre-warm regime).
    ``warm_grace`` is the separate grace for a *freshly pre-warmed* instance
    that has not served anything yet: it covers prediction error between the
    scheduled warm-up and the actual arrival, so ``keep_alive = 0`` does not
    kill a pre-warmed instance before its invocation lands.  ``min_warm``
    asks the engine to maintain at least that many live instances (the
    Auto-scaler's scale-out lever).
    """

    config: HardwareConfig
    keep_alive: float = 0.0
    batch: int = 1
    min_warm: int = 0
    warm_grace: float = 6.0

    def __post_init__(self) -> None:
        if self.keep_alive < 0:
            raise ValueError(f"keep_alive must be >= 0, got {self.keep_alive}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.min_warm < 0:
            raise ValueError(f"min_warm must be >= 0, got {self.min_warm}")
        if self.warm_grace < 0:
            raise ValueError(f"warm_grace must be >= 0, got {self.warm_grace}")
