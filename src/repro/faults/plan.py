"""Declarative, seed-deterministic fault plans.

A :class:`FaultPlan` composes typed fault specs into one JSON-loadable
description of the chaos a run should endure — the simulator analogue of
the failure toolkit a serverless platform is evaluated against:

- :class:`MachineOutage` — a crash window: at ``start`` the machine's
  capacity disappears and every live instance on it is evicted with the
  ``machine-failed`` termination reason; at ``end`` capacity returns;
- :class:`ExecutionFault` — a per-function probability that a running
  batch fails mid-flight (the instance crashes, stages are requeued);
- :class:`LatencyStraggler` — a windowed multiplicative slowdown on
  selected functions / backends (degraded node, noisy neighbour);
- :class:`InitFailureBurst` — additional time-varying init-failure
  probability on top of the gateway's base ``init_failure_rate`` (an
  image-registry brownout, a flaky model download);
- :class:`FlashCrowd` — a deterministic arrival-rate spike injected on
  top of the trace (the overload plane's pressure source, see
  :mod:`repro.overload`);
- :class:`RetryStorm` — clients that blindly resubmit shed/rejected
  invocations after a fixed delay, amplifying an overload.

All windows are half-open ``[start, end)``.  Overlapping probability
specs compose by saturating addition (capped below 1), overlapping
stragglers multiply.

The plan also carries the :class:`ResilienceSpec` that parameterizes the
gateway's absorption machinery — retry budget and backoff, crash-loop
cap, deadline enforcement, CPU fallback.  Resilience is active exactly
when a plan is attached; with no plan the gateway takes none of these
code paths and a run is bit-identical to one on the pre-fault engine.

Determinism: the plan itself holds no randomness.  Every probabilistic
draw it induces comes from the gateway's existing per-app fault RNG
stream (derived from the root seed), so same seed + same plan → the same
failures, the same retries, the same trace — serial or parallel.

Plans are frozen, hashable and picklable, so they ride inside grid cell
specs (:mod:`repro.experiments.parallel`) unchanged.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "MachineOutage",
    "ExecutionFault",
    "LatencyStraggler",
    "InitFailureBurst",
    "FlashCrowd",
    "RetryStorm",
    "ResilienceSpec",
    "FaultPlan",
]

#: Saturation cap for composed failure probabilities: keep a crash-loop
#: terminable even under overlapping always-fail specs.
_MAX_RATE = 0.999999


def _check_window(start: float, end: float) -> None:
    if start < 0:
        raise ValueError(f"window start must be >= 0, got {start}")
    if end <= start:
        raise ValueError(f"window end must be > start, got [{start}, {end})")


def _in_window(start: float, end: float, t: float) -> bool:
    return start <= t < end


@dataclass(frozen=True)
class MachineOutage:
    """One machine crashes at ``start`` and recovers at ``end``."""

    machine: int
    start: float
    end: float = math.inf

    def __post_init__(self) -> None:
        if self.machine < 0:
            raise ValueError(f"machine index must be >= 0, got {self.machine}")
        _check_window(self.start, self.end)


@dataclass(frozen=True)
class ExecutionFault:
    """Probability that a running batch fails mid-flight.

    An empty ``functions`` tuple matches every function of every app.
    """

    rate: float
    functions: tuple[str, ...] = ()
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        _check_window(self.start, self.end)

    def matches(self, function: str, t: float) -> bool:
        """Whether this spec applies to ``function`` at time ``t``."""
        if not _in_window(self.start, self.end, t):
            return False
        return not self.functions or function in self.functions


@dataclass(frozen=True)
class LatencyStraggler:
    """Multiplicative slowdown of matching executions inside the window.

    ``backend`` restricts the spec to ``"cpu"`` or ``"gpu"`` instances;
    ``None`` matches both.  An empty ``functions`` tuple matches all.
    """

    factor: float
    functions: tuple[str, ...] = ()
    backend: str | None = None
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError(
                f"straggler factor must be >= 1 (a slowdown), got {self.factor}"
            )
        if self.backend not in (None, "cpu", "gpu"):
            raise ValueError(
                f"backend must be 'cpu', 'gpu' or null, got {self.backend!r}"
            )
        _check_window(self.start, self.end)

    def matches(self, function: str, backend: str, t: float) -> bool:
        """Whether this spec slows ``function`` on ``backend`` at ``t``."""
        if not _in_window(self.start, self.end, t):
            return False
        if self.backend is not None and self.backend != backend:
            return False
        return not self.functions or function in self.functions


@dataclass(frozen=True)
class InitFailureBurst:
    """Extra init-failure probability inside the window (adds to the base
    ``init_failure_rate`` knob, saturating below 1)."""

    rate: float
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        _check_window(self.start, self.end)


@dataclass(frozen=True)
class FlashCrowd:
    """A deterministic arrival-rate spike injected on top of the trace.

    Inside the (finite) window extra invocations arrive at exactly
    ``rate`` per second, spaced ``1/rate`` apart starting at ``start``.
    The spike holds no randomness — injected arrivals go through the
    gateway's ordinary arrival path (admission control applies) and are
    counted in ``RunMetrics.injected_arrivals``.
    """

    rate: float
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.rate <= 0.0:
            raise ValueError(f"flash-crowd rate must be > 0, got {self.rate}")
        _check_window(self.start, self.end)
        if not math.isfinite(self.end):
            raise ValueError(
                "flash-crowd window end must be finite "
                f"(the spike injects rate * (end - start) arrivals), got {self.end}"
            )

    def times(self) -> tuple[float, ...]:
        """The exact injected arrival instants (``start + k/rate < end``)."""
        n = math.ceil((self.end - self.start) * self.rate - 1e-12)
        return tuple(self.start + k / self.rate for k in range(max(n, 0)))


@dataclass(frozen=True)
class RetryStorm:
    """Clients that blindly resubmit shed/rejected invocations.

    Inside the window, every invocation the gateway sheds or rejects is
    re-submitted as a *fresh* arrival ``delay`` seconds later, up to
    ``resubmits`` generations deep per original invocation.  Resubmissions
    count as ``injected_arrivals`` and go through admission control — the
    mechanism that turns a transient overload into a sustained one unless
    the shedding machinery dampens it.
    """

    resubmits: int = 1
    delay: float = 1.0
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        if self.resubmits < 1:
            raise ValueError(f"resubmits must be >= 1, got {self.resubmits}")
        if self.delay <= 0.0:
            raise ValueError(f"retry-storm delay must be > 0, got {self.delay}")
        _check_window(self.start, self.end)

    def matches(self, t: float) -> bool:
        """Whether a shed/rejected invocation at ``t`` is resubmitted."""
        return _in_window(self.start, self.end, t)


@dataclass(frozen=True)
class ResilienceSpec:
    """Parameters of the gateway's fault-absorption machinery.

    ``max_retries`` is a per-invocation budget shared across its stages;
    once exhausted the invocation is abandoned (counted ``timed_out``).
    ``retry_backoff`` seeds exponential backoff: retry *k* waits
    ``min(retry_backoff * 2**(k-1), retry_backoff_max)`` seconds — the cap
    keeps a generous retry budget from scheduling events arbitrarily far
    past the run horizon.  ``max_crash_loop`` caps the
    consecutive automatic relaunches after init failures of one function;
    at the cap the gateway stops crash-looping (falling back to the CPU
    config when enabled) and leaves relaunching to demand-driven
    dispatch.  ``deadline_factor`` — when set — abandons any invocation
    older than ``deadline_factor * SLA``.  ``fallback_after`` is the
    consecutive GPU-allocation-failure count that triggers graceful
    degradation to ``fallback_config`` (``None`` disables degradation).
    """

    max_retries: int = 3
    retry_backoff: float = 0.5
    retry_backoff_max: float = 60.0
    max_crash_loop: int = 5
    deadline_factor: float | None = None
    fallback_after: int | None = 3
    fallback_config: str = "cpu-16"

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_backoff < 0:
            raise ValueError(
                f"retry_backoff must be >= 0, got {self.retry_backoff}"
            )
        if self.retry_backoff_max <= 0:
            raise ValueError(
                f"retry_backoff_max must be > 0, got {self.retry_backoff_max}"
            )
        if self.max_crash_loop < 1:
            raise ValueError(
                f"max_crash_loop must be >= 1, got {self.max_crash_loop}"
            )
        if self.deadline_factor is not None and self.deadline_factor <= 0:
            raise ValueError(
                f"deadline_factor must be > 0, got {self.deadline_factor}"
            )
        if self.fallback_after is not None and self.fallback_after < 1:
            raise ValueError(
                f"fallback_after must be >= 1, got {self.fallback_after}"
            )


def _tuple_of(cls: type, value: Any, what: str) -> tuple:
    """Normalize a JSON list of spec dicts to a tuple of dataclasses."""
    if value is None:
        return ()
    if isinstance(value, Mapping):
        value = [value]
    out = []
    for item in value:
        if isinstance(item, cls):
            out.append(item)
        elif isinstance(item, Mapping):
            out.append(_from_mapping(cls, item, what))
        else:
            raise TypeError(f"{what} entries must be dicts, got {type(item).__name__}")
    return tuple(out)


def _from_mapping(cls: type, data: Mapping[str, Any], what: str):
    valid = {f.name for f in fields(cls)}
    unknown = set(data) - valid
    if unknown:
        raise KeyError(
            f"unknown {what} keys {sorted(unknown)}; valid keys: {sorted(valid)}"
        )
    kwargs = dict(data)
    if "functions" in kwargs and kwargs["functions"] is not None:
        fns = kwargs["functions"]
        kwargs["functions"] = (fns,) if isinstance(fns, str) else tuple(fns)
    return cls(**kwargs)


@dataclass(frozen=True)
class FaultPlan:
    """A full chaos schedule plus the resilience parameters absorbing it."""

    outages: tuple[MachineOutage, ...] = ()
    execution_faults: tuple[ExecutionFault, ...] = ()
    stragglers: tuple[LatencyStraggler, ...] = ()
    init_failure_bursts: tuple[InitFailureBurst, ...] = ()
    flash_crowds: tuple[FlashCrowd, ...] = ()
    retry_storms: tuple[RetryStorm, ...] = ()
    resilience: ResilienceSpec = field(default_factory=ResilienceSpec)

    # ------------------------------------------------------------- loading
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        """Build a plan from a plain dict (e.g. parsed JSON).

        Spec lists accept single dicts (promoted to one-element tuples);
        unknown keys anywhere are rejected with the valid alternatives.
        """
        valid = {f.name for f in fields(cls)}
        unknown = set(data) - valid
        if unknown:
            raise KeyError(
                f"unknown fault-plan keys {sorted(unknown)}; "
                f"valid keys: {sorted(valid)}"
            )
        resilience = data.get("resilience", ResilienceSpec())
        if isinstance(resilience, Mapping):
            resilience = _from_mapping(ResilienceSpec, resilience, "resilience")
        return cls(
            outages=_tuple_of(MachineOutage, data.get("outages"), "outage"),
            execution_faults=_tuple_of(
                ExecutionFault, data.get("execution_faults"), "execution_fault"
            ),
            stragglers=_tuple_of(
                LatencyStraggler, data.get("stragglers"), "straggler"
            ),
            init_failure_bursts=_tuple_of(
                InitFailureBurst, data.get("init_failure_bursts"),
                "init_failure_burst",
            ),
            flash_crowds=_tuple_of(
                FlashCrowd, data.get("flash_crowds"), "flash_crowd"
            ),
            retry_storms=_tuple_of(
                RetryStorm, data.get("retry_storms"), "retry_storm"
            ),
            resilience=resilience,
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "FaultPlan":
        """Load a plan from a JSON file."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    def to_dict(self) -> dict[str, Any]:
        """Round-trippable plain-dict form (JSON-serializable)."""
        import dataclasses

        return dataclasses.asdict(self)

    # ------------------------------------------------------------- queries
    def execution_fault_rate(self, function: str, t: float) -> float:
        """Composed mid-flight failure probability for one execution."""
        rate = 0.0
        for spec in self.execution_faults:
            if spec.matches(function, t):
                rate += spec.rate
        return min(rate, _MAX_RATE)

    def straggler_factor(self, function: str, backend: str, t: float) -> float:
        """Composed execution-time multiplier (1.0 when unaffected)."""
        factor = 1.0
        for spec in self.stragglers:
            if spec.matches(function, backend, t):
                factor *= spec.factor
        return factor

    def extra_init_failure_rate(self, t: float) -> float:
        """Composed burst probability added to the base init-failure rate."""
        rate = 0.0
        for spec in self.init_failure_bursts:
            if _in_window(spec.start, spec.end, t):
                rate += spec.rate
        return min(rate, _MAX_RATE)

    def injected_times(self) -> tuple[float, ...]:
        """Merged, sorted arrival instants of every flash crowd."""
        times: list[float] = []
        for crowd in self.flash_crowds:
            times.extend(crowd.times())
        return tuple(sorted(times))

    def storm_for(self, t: float) -> RetryStorm | None:
        """The first retry storm whose window covers ``t`` (or ``None``)."""
        for storm in self.retry_storms:
            if storm.matches(t):
                return storm
        return None
