"""Declarative, seed-deterministic overload-resilience specs.

An :class:`OverloadSpec` describes how a gateway defends itself against
its *own traffic* — the missing half of the robustness story next to the
injected-fault plane (:mod:`repro.faults`):

- **bounded queues** — ``queue_limit`` caps every per-function ready
  queue; when an arrival would exceed it, one invocation is *shed*
  according to ``shed_policy`` (emitting ``invocation_shed`` and counting
  in the ``shed`` counter, disjoint from ``completed`` / ``unfinished`` /
  ``timed_out``);
- **admission control** — ``admission_rate`` / ``admission_burst``
  parameterize a per-app token bucket at the gateway front door; an
  arrival that finds the bucket empty is *rejected* before it enters the
  system (``invocation_rejected``, the future HTTP 429);
- **circuit breakers** — ``breaker_failures`` consecutive batch failures
  of one function open its breaker: dispatch stops, the function degrades
  to ``degraded_config``, and after ``breaker_cooldown`` seconds a single
  half-open probe decides between closing and re-opening;
- **brownout** — when a function's head-of-queue delay exceeds
  ``brownout_queue_delay`` at a window tick, the function switches to
  ``degraded_config`` until the delay recedes below
  ``brownout_recover_delay``.

Like a :class:`~repro.faults.FaultPlan`, the spec is frozen, hashable,
picklable and JSON-loadable, attaches to every entry point, and holds no
randomness — every decision is a pure function of simulated time and
queue state, so same seed + same spec → the same sheds, rejections and
trace, serial or sharded.  With no spec attached the gateway takes none
of these code paths and a run is bit-identical to the pre-overload
engine (the determinism goldens pin this).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "SHED_POLICIES",
    "OverloadSpec",
    "TokenBucket",
]

#: Valid ``shed_policy`` values: who gets dropped when a bounded queue
#: overflows.
SHED_POLICIES = ("reject-newest", "drop-oldest", "deadline-aware")


@dataclass(frozen=True)
class OverloadSpec:
    """Parameters of the gateway's overload-protection machinery.

    Every mechanism is independently optional: the default of each
    enabling knob (``queue_limit``, ``admission_rate``,
    ``breaker_failures``, ``brownout_queue_delay``) is ``None`` =
    disabled, so a spec enables exactly the mechanisms it names.
    """

    queue_limit: int | None = None
    shed_policy: str = "reject-newest"
    admission_rate: float | None = None
    admission_burst: float = 10.0
    breaker_failures: int | None = None
    breaker_cooldown: float = 30.0
    brownout_queue_delay: float | None = None
    brownout_recover_delay: float = 0.0
    degraded_config: str = "cpu-16"

    def __post_init__(self) -> None:
        if self.queue_limit is not None and self.queue_limit < 1:
            raise ValueError(
                f"queue_limit must be >= 1, got {self.queue_limit}"
            )
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"shed_policy must be one of {SHED_POLICIES}, "
                f"got {self.shed_policy!r}"
            )
        if self.admission_rate is not None and self.admission_rate <= 0:
            raise ValueError(
                f"admission_rate must be > 0, got {self.admission_rate}"
            )
        if self.admission_burst < 1.0:
            raise ValueError(
                f"admission_burst must be >= 1, got {self.admission_burst}"
            )
        if self.breaker_failures is not None and self.breaker_failures < 1:
            raise ValueError(
                f"breaker_failures must be >= 1, got {self.breaker_failures}"
            )
        if self.breaker_cooldown <= 0:
            raise ValueError(
                f"breaker_cooldown must be > 0, got {self.breaker_cooldown}"
            )
        if (
            self.brownout_queue_delay is not None
            and self.brownout_queue_delay <= 0
        ):
            raise ValueError(
                "brownout_queue_delay must be > 0, "
                f"got {self.brownout_queue_delay}"
            )
        if self.brownout_recover_delay < 0:
            raise ValueError(
                "brownout_recover_delay must be >= 0, "
                f"got {self.brownout_recover_delay}"
            )
        if (
            self.brownout_queue_delay is not None
            and self.brownout_recover_delay >= self.brownout_queue_delay
        ):
            raise ValueError(
                "brownout_recover_delay must be < brownout_queue_delay "
                "(hysteresis), got "
                f"{self.brownout_recover_delay} >= {self.brownout_queue_delay}"
            )

    # ------------------------------------------------------------- loading
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OverloadSpec":
        """Build a spec from a plain dict; unknown keys are rejected."""
        valid = {f.name for f in fields(cls)}
        unknown = set(data) - valid
        if unknown:
            raise KeyError(
                f"unknown overload-spec keys {sorted(unknown)}; "
                f"valid keys: {sorted(valid)}"
            )
        return cls(**data)

    @classmethod
    def from_json(cls, path: str | Path) -> "OverloadSpec":
        """Load a spec from a JSON file."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    def to_dict(self) -> dict[str, Any]:
        """Round-trippable plain-dict form (JSON-serializable)."""
        import dataclasses

        return dataclasses.asdict(self)

    # ------------------------------------------------------------- queries
    @property
    def breaks_circuits(self) -> bool:
        return self.breaker_failures is not None

    @property
    def browns_out(self) -> bool:
        return self.brownout_queue_delay is not None

    def make_bucket(self) -> "TokenBucket | None":
        """A fresh token bucket (``None`` when admission is disabled)."""
        if self.admission_rate is None:
            return None
        return TokenBucket(rate=self.admission_rate, burst=self.admission_burst)


class TokenBucket:
    """A deterministic token bucket: ``rate`` tokens/s, ``burst`` capacity.

    Starts full.  :meth:`admit` refills by elapsed simulated time, then
    admits (consuming one token) iff at least one whole token is
    available.  No randomness and no wall-clock: decisions are a pure
    function of the admission timestamps, which is what makes admission
    commute with sharding (each trace slice replays the same instants).
    """

    __slots__ = ("rate", "burst", "tokens", "last")

    def __init__(self, *, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if burst < 1.0:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.last = 0.0

    def admit(self, t: float) -> bool:
        """Admit one arrival at simulated time ``t`` (monotone calls)."""
        if t > self.last:
            self.tokens = min(self.burst, self.tokens + (t - self.last) * self.rate)
            self.last = t
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False
