"""Run metrics: cost, latency, violations, usage ratios, reinit counts.

Everything the evaluation figures consume is recorded here:

- Fig. 8a — total execution cost (with init/inference/keep-alive split);
- Fig. 8b — the E2E latency distribution;
- Fig. 9a — the CPU:GPU usage (billed cost per backend);
- Fig. 9b — the fraction of stage executions that hit a (re)initialization;
- Fig. 10b/13b/15 — the SLA violation ratio;
- Fig. 14 — per-window pod counts and per-backend instance counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from repro.hardware.configs import Backend, HardwareConfig
from repro.metrics.sketch import QuantileSketch, StreamingStats
from repro.simulator.container import Instance
from repro.simulator.invocation import Invocation

#: Recognised record-retention modes (see :class:`RunMetrics.retention`).
RETENTION_MODES = ("full", "sketch")


def summary_mismatches(a: dict, b: dict) -> list:
    """Keys on which two summaries differ, in ``a``'s key order.

    Values must be equal bit for bit; a NaN matches only a NaN (the
    empty-run latency convention).  A key present on one side only is a
    mismatch too.  Every exact-parity check (trace reconstruction, shard
    parity, request-log replay) compares summaries through this one rule.
    """

    def same(x, y) -> bool:
        floats = isinstance(x, float) and isinstance(y, float)
        return x == y or (floats and math.isnan(x) and math.isnan(y))

    return [k for k in a if k not in b or not same(a[k], b[k])] + [
        k for k in b if k not in a
    ]


@dataclass(frozen=True)
class InstanceUsage:
    """Billing summary of one (terminated) instance."""

    function: str
    config: HardwareConfig
    lifetime: float
    init_seconds: float
    busy_seconds: float
    idle_seconds: float
    cost: float
    batches_served: int
    invocations_served: int

    @classmethod
    def from_instance(cls, inst: Instance, now: float) -> "InstanceUsage":
        """Snapshot an instance's billing at ``now``."""
        return cls(
            function=inst.function,
            config=inst.config,
            lifetime=inst.lifetime(now),
            init_seconds=inst.init_seconds(now),
            busy_seconds=inst.busy_seconds,
            idle_seconds=inst.idle_seconds(now),
            cost=inst.cost(now),
            batches_served=inst.batches_served,
            invocations_served=inst.invocations_served,
        )


@dataclass
class BillingFold:
    """Exact streaming fold of :class:`InstanceUsage` billing rows.

    Every run, whatever its retention, folds each terminated instance into
    running sums *in termination order*: the single source of every cost
    figure (Fig. 8a's total and split, Fig. 9a's per-backend bill) and of
    the per-function fleet table.  Only O(#functions) state survives,
    independent of how many instances the run churned.
    """

    total_cost: float = 0.0
    cpu_cost: float = 0.0
    gpu_cost: float = 0.0
    init_cost: float = 0.0
    busy_cost: float = 0.0
    idle_cost: float = 0.0
    instances: int = 0
    #: function -> {instances, lifetime, cost, served} rollup (reporting).
    per_function: dict[str, dict[str, float]] = field(default_factory=dict)

    def fold(self, usage: InstanceUsage) -> None:
        """Fold one terminated instance's billing snapshot in."""
        self.total_cost += usage.cost
        if usage.config.backend is Backend.GPU:
            self.gpu_cost += usage.cost
        else:
            self.cpu_cost += usage.cost
        unit = usage.config.unit_cost
        self.init_cost += usage.init_seconds * unit
        self.busy_cost += usage.busy_seconds * unit
        self.idle_cost += usage.idle_seconds * unit
        self.instances += 1
        row = self.per_function.setdefault(
            usage.function,
            {"instances": 0, "lifetime": 0.0, "cost": 0.0, "served": 0},
        )
        row["instances"] += 1
        row["lifetime"] += usage.lifetime
        row["cost"] += usage.cost
        row["served"] += usage.invocations_served

    def merge(self, other: "BillingFold") -> None:
        """Fold another (shard's) billing fold in.

        Exact in the same sense as :meth:`fold`: every figure is the plain
        float sum of the two partial sums, so folding shard results in a
        fixed order reproduces a single-process fold of the same
        termination stream bit for bit.
        """
        self.total_cost += other.total_cost
        self.cpu_cost += other.cpu_cost
        self.gpu_cost += other.gpu_cost
        self.init_cost += other.init_cost
        self.busy_cost += other.busy_cost
        self.idle_cost += other.idle_cost
        self.instances += other.instances
        for fn, src in other.per_function.items():
            row = self.per_function.setdefault(
                fn, {"instances": 0, "lifetime": 0.0, "cost": 0.0, "served": 0}
            )
            for key, value in src.items():
                row[key] += value


@dataclass
class RunMetrics:
    """Aggregated outcome of one simulation run.

    Billing and counts are one exact fold in every run: each terminated
    instance folds into :attr:`billing` and each completion into
    ``completed_count`` / ``sla_violation_count`` / ``within_sla_count``.
    ``retention`` chooses only the latency store:

    - ``"full"`` (default): the arrival-ordered :class:`Invocation`
      records are kept in ``invocations`` — exact mean, percentiles and
      histogram; memory grows with the trace.
    - ``"sketch"``: completed latencies fold into a
      :class:`~repro.metrics.sketch.QuantileSketch` plus exact
      :class:`~repro.metrics.sketch.StreamingStats` — memory is O(1) in
      the arrival count; percentiles are approximate within the sketch's
      documented rank-error bound (see ``docs/performance.md``), and the
      mean is a running sum in completion order.
    """

    app: str
    policy: str
    sla: float
    retention: str = "full"
    duration: float = 0.0
    #: Arrival-ordered invocation records (the ``full`` latency store;
    #: empty under ``sketch``).  Sealing drops the unfinished ones.
    invocations: list[Invocation] = field(default_factory=list)
    unfinished: int = 0
    stage_executions: int = 0
    cold_stage_executions: int = 0
    initializations: int = 0
    failed_initializations: int = 0
    #: Invocations abandoned by the resilience machinery (deadline passed
    #: or retry budget exhausted); disjoint from ``unfinished``.
    timed_out: int = 0
    #: Stage executions requeued after a fault (machine outage or
    #: mid-flight execution failure).
    stage_retries: int = 0
    #: Batches that failed mid-flight (injected execution faults).
    failed_executions: int = 0
    #: Graceful-degradation activations (GPU starvation / crash-loop cap).
    fallbacks: int = 0
    #: GPU launches served by paging a host-resident model in (swap-in)
    #: instead of a full cold initialization.  Deliberately absent from
    #: :meth:`summary` (its key set is pinned by the determinism goldens);
    #: scenario packs and the trace aggregator read the counter directly.
    swap_ins: int = 0
    #: Invocations dropped by the overload plane's bounded-queue shedding
    #: (see :mod:`repro.overload`); disjoint from ``completed`` /
    #: ``unfinished`` / ``timed_out``, extending the conservation identity
    #: to ``admitted == completed + unfinished + timed_out + shed``.
    #: Deliberately absent from :meth:`summary` (its key set is pinned by
    #: the determinism goldens); the overload pack and the trace
    #: aggregator read the counter directly.
    shed: int = 0
    #: Arrivals turned away by token-bucket admission control before they
    #: entered the system (the future HTTP 429); offered load is
    #: ``admitted + rejected``.  Absent from :meth:`summary` like ``shed``.
    rejected: int = 0
    #: Extra arrivals injected on top of the trace (flash crowds, retry
    #: storms).  Offered load is ``len(trace) + injected_arrivals``.  Not
    #: event-reconstructible (injected arrivals emit ordinary ``arrival``
    #: events), so it stays out of the aggregate() equality checks.
    injected_arrivals: int = 0
    #: Highest per-function ready-queue depth observed at enqueue time.
    #: Tracked only when an :class:`~repro.overload.OverloadSpec` is
    #: attached (zero-cost rule); merges across shards by ``max``.
    peak_queue_depth: int = 0
    pod_samples: list[tuple[float, int, int]] = field(default_factory=list)
    arrival_samples: list[tuple[float, int]] = field(default_factory=list)
    #: Completed invocations (exact).
    completed_count: int = 0
    #: Completions past the SLA (exact; 1e-9 epsilon on the SLA).
    sla_violation_count: int = 0
    #: Completions within the SLA (exact complement of the above).
    within_sla_count: int = 0
    #: Streaming latency distribution (``sketch`` only; bounded rank error).
    latency_sketch: QuantileSketch | None = None
    #: Streaming latency moments (``sketch`` only; exact count/sum/min/max).
    latency_stats: StreamingStats | None = None
    #: Exact billing fold of every terminated instance.
    billing: BillingFold = field(default_factory=BillingFold)

    def __post_init__(self) -> None:
        if self.retention not in RETENTION_MODES:
            raise ValueError(
                f"unknown retention mode {self.retention!r}; "
                f"expected one of {RETENTION_MODES}"
            )
        if self.retention == "sketch":
            if self.latency_sketch is None:
                self.latency_sketch = QuantileSketch()
            if self.latency_stats is None:
                self.latency_stats = StreamingStats()

    # -- recording (the gateway's counter-mutation points) -------------------
    def record_completion(self, latency: float) -> None:
        """One invocation completed: count it against the SLA, and fold
        its latency into the sketch store (``full`` keeps the record)."""
        self.completed_count += 1
        if latency > self.sla + 1e-9:
            self.sla_violation_count += 1
        else:
            self.within_sla_count += 1
        if self.latency_sketch is not None:
            self.latency_sketch.add(latency)
            self.latency_stats.add(latency)

    def record_instance(self, usage: InstanceUsage) -> None:
        """One instance terminated: fold its billing row."""
        self.billing.fold(usage)

    def seal(self, *, duration: float, unfinished: int) -> None:
        """Seal the run: record the horizon and the still-open invocations.

        Extracted from ``Gateway.finalize`` so every finalization path —
        live gateways, trace reconstruction, shard workers — closes a
        metrics object the same way.  The unfinished records leave the
        ``full`` latency store (they are SLA violations by definition and
        must not pollute latency statistics).
        """
        self.duration = duration
        self.unfinished = unfinished
        self.invocations = [inv for inv in self.invocations if inv.finished]

    def merge(self, other: "RunMetrics") -> None:
        """Fold another sealed run of the same app, policy and SLA in.

        The one rule for combining two runs, such as two time slices of
        one trace on the shard plane: every integer counter and
        ``duration`` add, ``peak_queue_depth`` takes the max, and the
        latency sketch, latency stats and billing fold merge.  Counters
        sum exactly and the folds add partial sums, so merging the same
        runs in the same order reproduces the same bits.  Only
        sketch-retention runs merge (a ``full`` run's latency store is a
        record list, not a fold); the per-window ``pod_samples`` and
        ``arrival_samples`` are left as they are.
        """
        if self.retention != "sketch" or other.retention != "sketch":
            raise ValueError(
                "only retention='sketch' runs merge; got "
                f"{self.retention!r} and {other.retention!r}"
            )
        ours = (self.app, self.policy, self.sla)
        theirs = (other.app, other.policy, other.sla)
        if ours != theirs:
            raise ValueError(
                f"cannot merge runs that disagree on app/policy/SLA: "
                f"{ours} vs {theirs}"
            )
        # Every int field is an additive counter except the queue peak.
        for f in fields(self):
            if f.type == "int" and f.name != "peak_queue_depth":
                setattr(
                    self, f.name, getattr(self, f.name) + getattr(other, f.name)
                )
        self.peak_queue_depth = max(self.peak_queue_depth, other.peak_queue_depth)
        self.duration += other.duration
        self.latency_sketch.merge(other.latency_sketch)
        self.latency_stats.merge(other.latency_stats)
        self.billing.merge(other.billing)

    @property
    def n_completed(self) -> int:
        """Completed invocations."""
        return self.completed_count

    def dispositions(self) -> dict[str, int]:
        """Where the offered load went: the five disjoint terminal bins
        plus the injected-arrival count (the request-log footer keys)."""
        return {
            "completed": self.completed_count,
            "unfinished": self.unfinished,
            "timed_out": self.timed_out,
            "shed": self.shed,
            "rejected": self.rejected,
            "injected_arrivals": self.injected_arrivals,
        }

    @property
    def offered(self) -> int:
        """Offered load: every arrival, trace or injected, in exactly one
        of the completed / unfinished / timed-out / shed / rejected bins."""
        return (
            self.completed_count + self.unfinished + self.timed_out
            + self.shed + self.rejected
        )

    # -- cost ----------------------------------------------------------------
    def total_cost(self) -> float:
        """Total dollars billed over the run (Fig. 8a)."""
        return self.billing.total_cost

    def cost_breakdown(self) -> dict[str, float]:
        """Dollars split into initialization / inference / keep-alive idle."""
        b = self.billing
        return {
            "init": b.init_cost,
            "inference": b.busy_cost,
            "keepalive": b.idle_cost,
        }

    def backend_cost(self, backend: Backend) -> float:
        """Dollars billed on one backend type."""
        if backend is Backend.GPU:
            return self.billing.gpu_cost
        return self.billing.cpu_cost

    # -- latency / SLA ----------------------------------------------------------
    def latencies(self) -> np.ndarray:
        """E2E latencies of completed invocations (full retention only).

        A ``retention="sketch"`` run dropped the per-invocation records by
        design; callers that need distribution shape there must go through
        :meth:`latency_percentile` / ``latency_stats`` instead.
        """
        if self.retention == "sketch":
            raise RuntimeError(
                "latencies() requires retention='full'; a sketch-retention "
                "run keeps only the streaming latency sketch "
                "(use latency_percentile()/latency_stats)"
            )
        return np.array([inv.latency for inv in self.invocations if inv.finished])

    def violation_ratio(self) -> float:
        """Fraction of requests exceeding the SLA (unfinished, timed-out,
        shed and rejected invocations count as violations too)."""
        total = self.offered
        if total == 0:
            return 0.0
        return (total - self.within_sla_count) / total

    def availability(self) -> float:
        """Fraction of arrivals that completed at all (1.0 on empty runs).

        Under fault injection, invocations lost to deadlines or exhausted
        retry budgets (``timed_out``) and those still open at the horizon
        (``unfinished``) both count against availability; under overload,
        so do shed and admission-rejected ones.
        """
        total = self.offered
        return self.completed_count / total if total else 1.0

    def goodput(self) -> float:
        """Fraction of arrivals served *within* the SLA (1.0 on empty runs).

        The complement of :meth:`violation_ratio`: completed-on-time
        divided by every arrival, including timed-out, unfinished, shed
        and admission-rejected ones.
        """
        total = self.offered
        return self.within_sla_count / total if total else 1.0

    def latency_percentile(self, q: float) -> float:
        """Latency percentile ``q`` in [0, 100].

        Returns ``nan`` when no invocation completed, matching
        :meth:`summary`'s empty-run convention — a zero-traffic run is a
        legitimate outcome (idle presets, short horizons), not an error.
        Under ``retention="sketch"`` the estimate comes from the streaming
        sketch (exact for small runs, bounded rank error past that).
        """
        if self.retention == "sketch":
            return self.latency_sketch.quantile(q)
        lat = self.latencies()
        if lat.size == 0:
            return float("nan")
        return float(np.percentile(lat, q))

    # -- cold starts -------------------------------------------------------------
    def reinit_fraction(self) -> float:
        """Fraction of stage executions that waited on an initialization
        (Fig. 9b's container-reinitialization measure)."""
        if self.stage_executions == 0:
            return 0.0
        return self.cold_stage_executions / self.stage_executions

    # -- fleet dynamics ----------------------------------------------------------
    def pods_over_time(self) -> np.ndarray:
        """(time, cpu_pods, gpu_pods) samples per window (Fig. 14)."""
        return np.array(self.pod_samples, dtype=float).reshape(-1, 3)

    def arrivals_over_time(self) -> np.ndarray:
        """(time, arrivals) samples per window (Fig. 14a)."""
        return np.array(self.arrival_samples, dtype=float).reshape(-1, 2)

    def summary(self) -> dict[str, float]:
        """One-line numeric summary used by benches and examples.

        Identical key set and float values across retention modes; under
        ``sketch`` the latency entries come from the streaming accumulators
        (NaN on a zero-completion run, exactly like the empty-array path).
        """
        if self.retention == "sketch":
            mean_latency = self.latency_stats.mean
        else:
            lat = self.latencies()
            mean_latency = float(lat.mean()) if lat.size else float("nan")
        return {
            "total_cost": self.total_cost(),
            "violation_ratio": self.violation_ratio(),
            "invocations": float(self.completed_count),
            "mean_latency": mean_latency,
            "p50_latency": self.latency_percentile(50),
            "p99_latency": self.latency_percentile(99),
            "reinit_fraction": self.reinit_fraction(),
            "cpu_cost": self.backend_cost(Backend.CPU),
            "gpu_cost": self.backend_cost(Backend.GPU),
            "availability": self.availability(),
            "goodput": self.goodput(),
        }
