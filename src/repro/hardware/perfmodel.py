"""Ground-truth performance model for the simulated inference functions.

The paper serves real PyTorch models; we do not have the authors' cluster,
so each Table I model is replaced by an analytic ground-truth that follows
the paper's own latency law (Eq. 1 for CPU, Eq. 2 for GPU):

    inference_time = lambda * B * (alpha / resources + beta) + gamma

plus measurement noise.  The Offline Profiler never sees these parameters —
it observes noisy timing samples and re-fits the law, exactly as the real
profiler fits measurements from Prometheus.  CPU execution carries more
interference noise than GPU execution, matching the paper's observation
that GPU inference-time profiling is more precise (Fig. 11b).

Initialization times are Gaussian around a per-backend mean: GPU cold starts
are slower than CPU cold starts (CUDA context + host-to-device weight
transfer, §IV-A1) and noisier (PCIe/network contention).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.configs import Backend, HardwareConfig
from repro.hardware.servicetime import TokenServiceTime, WorkUnit
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive

#: Relative (lognormal sigma) inference-noise level per backend.  CPU runs
#: suffer more interference (cache, co-located containers) than MPS slices.
CPU_INFERENCE_NOISE: float = 0.08
GPU_INFERENCE_NOISE: float = 0.03


@dataclass(frozen=True)
class LatencyParams:
    """Parameters of the Amdahl-law latency model of Eq. (1)/(2).

    ``alpha`` is the parallelizable computational volume, ``beta`` the serial
    per-item overhead, ``gamma`` the network/transfer constant, and
    ``lam`` the batching degradation coefficient (λ in the paper).
    """

    lam: float
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        check_positive("lam", self.lam)
        check_positive("alpha", self.alpha)
        check_positive("beta", self.beta, strict=False)
        check_positive("gamma", self.gamma, strict=False)

    def latency(self, resources: float, batch: int = 1) -> float:
        """Evaluate the latency law for ``resources`` (cores or GPU fraction)."""
        check_positive("resources", resources)
        check_positive("batch", batch)
        return self.lam * batch * (self.alpha / resources + self.beta) + self.gamma


@dataclass(frozen=True)
class InitTimeParams:
    """Gaussian initialization-time model for one backend."""

    mean: float
    std: float

    def __post_init__(self) -> None:
        check_positive("mean", self.mean)
        check_positive("std", self.std, strict=False)

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one noisy initialization time (truncated below at 10 % mean)."""
        return max(0.1 * self.mean, float(rng.normal(self.mean, self.std)))


@dataclass(frozen=True)
class PerfProfile:
    """Complete ground-truth profile of one inference function.

    ``mem_knee_gb`` is the knee point of §IV-A2: SMIless provisions memory
    slightly above it, so memory never bottlenecks and does not enter the
    latency law.  ``max_batch`` bounds the adaptive-batching search.

    Two optional extensions open regimes beyond the paper (both default to
    absent, keeping the fixed-latency path bit-identical):

    - ``service_model`` — a :class:`~repro.hardware.servicetime
      .TokenServiceTime` that replaces the Eq. 1/2 law; ``cpu``/``gpu``
      must then hold the model's typical-work equivalent law so planners
      that never pass work stay consistent;
    - ``swap_gpu`` — the host→GPU swap-in time model of a swap-capable
      model (Torpor/FaaSwap-style).  Swap-in must be strictly faster than
      a GPU cold start (validated here), which is what makes paging a
      host-resident model preferable to re-initializing it.
    """

    name: str
    cpu: LatencyParams
    gpu: LatencyParams
    init_cpu: InitTimeParams
    init_gpu: InitTimeParams
    mem_knee_gb: float = 2.0
    min_batch: int = 1
    max_batch: int = 32
    service_model: TokenServiceTime | None = None
    swap_gpu: InitTimeParams | None = None

    def __post_init__(self) -> None:
        if self.swap_gpu is not None and self.swap_gpu.mean >= self.init_gpu.mean:
            raise ValueError(
                f"swap-in must beat a cold start: swap mean "
                f"{self.swap_gpu.mean} >= init_gpu mean {self.init_gpu.mean}"
            )

    def init_params(self, backend: Backend) -> InitTimeParams:
        """The initialization model for ``backend``."""
        return self.init_cpu if backend is Backend.CPU else self.init_gpu

    def expected_inference_time(
        self,
        config: HardwareConfig,
        batch: int = 1,
        work: WorkUnit | None = None,
    ) -> float:
        """Noise-free inference latency under ``config`` for ``batch`` requests.

        ``work`` feeds the pluggable ``service_model`` when one is
        attached; profiles without one evaluate the Eq. 1/2 law directly
        (the original, golden-pinned code path).
        """
        if self.service_model is not None:
            return self.service_model.expected(config, batch, work)
        if config.backend is Backend.CPU:
            return self.cpu.latency(config.cpu_cores, batch)
        return self.gpu.latency(config.gpu_fraction, batch)

    def expected_init_time(self, config: HardwareConfig) -> float:
        """Noise-free (mean) initialization time under ``config``."""
        return self.init_params(config.backend).mean


class GroundTruthPerformance:
    """Noisy oracle standing in for real executions on the testbed.

    The simulator asks this object how long an inference or an
    initialization *actually* takes; the profiler asks it for measurement
    samples.  Separate RNG streams keep workload generation and timing noise
    independent.
    """

    def __init__(
        self,
        profile: PerfProfile,
        rng: int | np.random.Generator | None = None,
        *,
        noisy: bool = True,
    ) -> None:
        self.profile = profile
        self._rng = ensure_rng(rng)
        self.noisy = noisy
        # Deterministic latency-law means per (config slot, batch); noise is
        # sampled on top, so caching cannot perturb the RNG draw sequence.
        self._mean_cache: dict[tuple, float] = {}

    def inference_time(
        self,
        config: HardwareConfig,
        batch: int = 1,
        work: WorkUnit | None = None,
    ) -> float:
        """Sample the wall-clock inference time of one execution.

        ``work`` (a :class:`~repro.hardware.servicetime.WorkUnit`) routes
        through the profile's pluggable service-time model; work-free calls
        take the original deterministic-mean path bit for bit — either way
        exactly one noise draw is consumed per call, so attaching work to
        some stages never perturbs the noise stream of others.
        """
        slot = config.slot
        key = (slot, batch) if work is None else (slot, batch, work)
        base = self._mean_cache.get(key)
        if base is None:
            base = self.profile.expected_inference_time(config, batch, work)
            self._mean_cache[key] = base
        if not self.noisy:
            return base
        sigma = (
            CPU_INFERENCE_NOISE
            if config.backend is Backend.CPU
            else GPU_INFERENCE_NOISE
        )
        return float(base * self._rng.lognormal(mean=0.0, sigma=sigma))

    def init_time(self, config: HardwareConfig) -> float:
        """Sample the wall-clock initialization (cold-start) time."""
        params = self.profile.init_params(config.backend)
        if not self.noisy:
            return params.mean
        return params.sample(self._rng)

    @property
    def supports_swap(self) -> bool:
        """Whether the underlying model is swap-capable (GPU paging)."""
        return self.profile.swap_gpu is not None

    def swap_in_time(self, config: HardwareConfig) -> float:
        """Sample the host→GPU swap-in time of a resident model.

        Only swap-capable profiles may be asked — the default regime never
        calls this, so its RNG draw sequence is untouched.
        """
        params = self.profile.swap_gpu
        if params is None or config.backend is not Backend.GPU:
            raise ValueError(
                f"model {self.profile.name!r} cannot swap onto {config.key}"
            )
        if not self.noisy:
            return params.mean
        return params.sample(self._rng)

    def sample_inference(
        self, config: HardwareConfig, batch: int, n: int
    ) -> np.ndarray:
        """Draw ``n`` measurement samples (profiler input)."""
        return np.array([self.inference_time(config, batch) for _ in range(n)])

    def sample_init(self, config: HardwareConfig, n: int) -> np.ndarray:
        """Draw ``n`` initialization samples (profiler input)."""
        return np.array([self.init_time(config) for _ in range(n)])

    def sample_swap(self, config: HardwareConfig, n: int) -> np.ndarray:
        """Draw ``n`` swap-in samples (profiler input, swap-capable only)."""
        return np.array([self.swap_in_time(config) for _ in range(n)])
