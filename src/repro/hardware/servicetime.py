"""Pluggable service-time models (the perf-model protocol seam).

The paper's latency law (Eq. 1/2) makes every stage's service time a fixed
function of (configuration, batch).  Two related systems break that
assumption productively: Revati-style LLM serving, where per-invocation
token counts drive long, highly variable service times split into a
prefill and a decode phase, and Torpor/FaaSwap-style GPU model swapping,
where paging a host-resident model onto the GPU is far cheaper than a
cold start.

This module defines the seam both regimes plug into:

- :class:`WorkUnit` — the per-invocation work descriptor (token counts);
- :class:`ServiceTimeModel` — the protocol every service-time
  implementation satisfies (``expected(config, batch, work)``);
- :class:`FixedServiceTime` — the default deterministic implementation,
  equivalent to evaluating the Eq. 1/2 law directly (profiles without an
  explicit model keep the original code path, bit-identical);
- :class:`TokenServiceTime` — token-driven service times with a
  tokens/sec throughput curve per backend and a prefill/decode split;
- :class:`PerformanceOracle` — the structural interface the gateway
  consumes (``inference_time`` / ``init_time`` / ``swap_in_time``), so the
  simulator depends on the protocol rather than on
  :class:`~repro.hardware.perfmodel.GroundTruthPerformance` concretely.

This module sits below :mod:`repro.hardware.perfmodel` (it imports only
``configs``), so the concrete profile classes can import it freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol, runtime_checkable

from repro.hardware.configs import Backend, HardwareConfig
from repro.utils.validation import check_positive


def resources_of(config: HardwareConfig) -> float:
    """The resource quantity entering the latency law (cores or fraction)."""
    if config.backend is Backend.CPU:
        return float(config.cpu_cores)
    return config.gpu_fraction


@dataclass(frozen=True)
class WorkUnit:
    """Per-invocation work descriptor for variable-service-time stages.

    For the LLM archetype ``tokens_in`` is the prompt length (prefill) and
    ``tokens_out`` the generated length (decode).  Immutable and hashable
    so oracle memoization can key on it.
    """

    tokens_in: int
    tokens_out: int

    def __post_init__(self) -> None:
        check_positive("tokens_in", self.tokens_in, strict=False)
        check_positive("tokens_out", self.tokens_out, strict=False)
        if self.tokens_in + self.tokens_out <= 0:
            raise ValueError("work unit must carry at least one token")

    @classmethod
    def combine(cls, works: Iterable["WorkUnit"]) -> "WorkUnit":
        """Padded-batch semantics: a batch runs at the longest member's work."""
        works = list(works)
        if not works:
            raise ValueError("cannot combine an empty batch of work units")
        return cls(
            tokens_in=max(w.tokens_in for w in works),
            tokens_out=max(w.tokens_out for w in works),
        )


@runtime_checkable
class ServiceTimeModel(Protocol):
    """Protocol: noise-free expected service time of one stage execution.

    ``work`` is ``None`` for planning-time queries (profiler fits, policy
    optimization); implementations must answer with a typical-work
    estimate so the planning layers need no knowledge of the regime.
    """

    def expected(
        self,
        config: HardwareConfig,
        batch: int = 1,
        work: WorkUnit | None = None,
    ) -> float:
        """Expected wall-clock service time."""
        ...  # pragma: no cover - protocol


@runtime_checkable
class PerformanceOracle(Protocol):
    """What the gateway requires of a performance oracle.

    :class:`~repro.hardware.perfmodel.GroundTruthPerformance` satisfies
    this structurally; alternative oracles (replayed measurements, learned
    simulators) only need these members.
    """

    def inference_time(
        self,
        config: HardwareConfig,
        batch: int = 1,
        work: WorkUnit | None = None,
    ) -> float:
        """Sampled wall-clock service time of one execution."""
        ...  # pragma: no cover - protocol

    def init_time(self, config: HardwareConfig) -> float:
        """Sampled wall-clock cold-start time."""
        ...  # pragma: no cover - protocol

    def swap_in_time(self, config: HardwareConfig) -> float:
        """Sampled host→GPU swap-in time (swap-capable profiles only)."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class FixedServiceTime:
    """The default deterministic model: the Eq. 1/2 law, work ignored.

    ``cpu`` / ``gpu`` duck-type
    :class:`~repro.hardware.perfmodel.LatencyParams` (anything exposing
    ``latency(resources, batch)``).  Profiles without an explicit
    ``service_model`` never construct this class — they keep the original
    inline evaluation, so the default path stays bit-identical — but the
    two are algebraically the same expression and a differential test pins
    their equality.
    """

    cpu: object | None
    gpu: object | None

    def expected(
        self,
        config: HardwareConfig,
        batch: int = 1,
        work: WorkUnit | None = None,
    ) -> float:
        params = self.cpu if config.backend is Backend.CPU else self.gpu
        if params is None:
            raise ValueError(f"no latency law for backend {config.backend}")
        return params.latency(resources_of(config), batch)


@dataclass(frozen=True)
class TokenThroughputCurve:
    """Per-token latency law: seconds per token at a given resource level.

    ``lam * (alpha / resources + beta)`` — the Eq. 1/2 shape applied per
    token, so per-token throughput saturates with resources exactly like
    whole-stage latency does.
    """

    lam: float
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        check_positive("lam", self.lam)
        check_positive("alpha", self.alpha)
        check_positive("beta", self.beta, strict=False)

    def per_token(self, resources: float) -> float:
        """Seconds per token at ``resources`` (cores or GPU fraction)."""
        check_positive("resources", resources)
        return self.lam * (self.alpha / resources + self.beta)


@dataclass(frozen=True)
class TokenBackendCurve:
    """One backend's token curves: prefill + decode + fixed overhead."""

    prefill: TokenThroughputCurve
    decode: TokenThroughputCurve
    gamma: float = 0.0

    def __post_init__(self) -> None:
        check_positive("gamma", self.gamma, strict=False)


@dataclass(frozen=True)
class TokenServiceTime:
    """Token-driven service times (the LLM archetype, Revati-style).

    Prefill processes the prompt (``tokens_in``) in parallel across the
    batch; decode generates ``tokens_out`` tokens autoregressively.  Both
    phases scale linearly in their token counts — service time is strictly
    monotone in each (pinned by a property test) — and a batch runs at its
    longest member's work (padding).  ``typical`` answers work-free
    planning queries, so profilers and policies see a deterministic
    stage exactly as they do under the fixed law.
    """

    cpu: TokenBackendCurve | None
    gpu: TokenBackendCurve | None
    typical: WorkUnit

    def __post_init__(self) -> None:
        if self.cpu is None and self.gpu is None:
            raise ValueError("token model needs at least one backend curve")

    def _curve(self, config: HardwareConfig) -> TokenBackendCurve:
        curve = self.cpu if config.backend is Backend.CPU else self.gpu
        if curve is None:
            raise ValueError(f"no token curve for backend {config.backend}")
        return curve

    def split(
        self,
        config: HardwareConfig,
        batch: int = 1,
        work: WorkUnit | None = None,
    ) -> tuple[float, float]:
        """(prefill_seconds, decode_seconds) excluding the fixed overhead."""
        check_positive("batch", batch)
        curve = self._curve(config)
        w = self.typical if work is None else work
        r = resources_of(config)
        prefill = batch * w.tokens_in * curve.prefill.per_token(r)
        decode = batch * w.tokens_out * curve.decode.per_token(r)
        return prefill, decode

    def expected(
        self,
        config: HardwareConfig,
        batch: int = 1,
        work: WorkUnit | None = None,
    ) -> float:
        prefill, decode = self.split(config, batch, work)
        return prefill + decode + self._curve(config).gamma

    def equivalent_law(self, backend: Backend) -> tuple[float, float, float, float]:
        """(lam, alpha, beta, gamma) of the typical-work whole-stage law.

        Collapsing both phases at ``typical`` work yields exactly the
        Eq. 1/2 shape, so token profiles can also carry standard
        :class:`~repro.hardware.perfmodel.LatencyParams` for planners
        that never pass work.
        """
        curve = self.cpu if backend is Backend.CPU else self.gpu
        if curve is None:
            raise ValueError(f"no token curve for backend {backend}")
        t_in, t_out = self.typical.tokens_in, self.typical.tokens_out
        alpha = (
            t_in * curve.prefill.lam * curve.prefill.alpha
            + t_out * curve.decode.lam * curve.decode.alpha
        )
        beta = (
            t_in * curve.prefill.lam * curve.prefill.beta
            + t_out * curve.decode.lam * curve.decode.beta
        )
        return 1.0, alpha, beta, curve.gamma
