"""Profiling campaigns: sampling plans and the OfflineProfiler facade.

The paper's Offline Profiler achieves <8 % average SMAPE from only
``5 x 5 = 25`` CPU samples (batch sizes 2^1..2^5 crossed with 2^0..2^4
cores) and 50 GPU samples (10 MPS fractions x 5 batch sizes), repeating
each initialization 10 times (§IV-A, §VII-C1).  :class:`ProfilingPlan`
encodes exactly that default grid; :class:`OfflineProfiler` runs the plan
against the ground-truth oracle and fits a :class:`FunctionProfile` per
function straight from the samples it draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dag.graph import AppDAG
from repro.hardware.configs import Backend, HardwareConfig
from repro.hardware.perfmodel import GroundTruthPerformance, PerfProfile
from repro.profiler.fitting import FittedLatencyModel, fit_latency_model
from repro.profiler.inittime import DEFAULT_UNCERTAINTY, estimate_init_time
from repro.profiler.profiles import FunctionProfile
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class ProfilingPlan:
    """Which (config, batch) grid points to measure, and how many repeats.

    Defaults mirror the paper: CPU batch sizes ``2^1..2^5`` by core counts
    ``2^0..2^4``; GPU fractions 10 %..100 % by 5 batch sizes; 10
    initialization repeats per backend; one inference repeat per grid point.
    """

    cpu_cores: tuple[int, ...] = (1, 2, 4, 8, 16)
    gpu_fractions: tuple[float, ...] = tuple(round(0.1 * k, 2) for k in range(1, 11))
    batches: tuple[int, ...] = (2, 4, 8, 16, 32)
    init_repeats: int = 10
    inference_repeats: int = 1

    def __post_init__(self) -> None:
        if self.init_repeats < 2:
            raise ValueError("need >= 2 init repeats to estimate dispersion")
        if self.inference_repeats < 1:
            raise ValueError("need >= 1 inference repeat")
        if not self.cpu_cores and not self.gpu_fractions:
            raise ValueError("plan must cover at least one backend")

    def cpu_grid(self) -> tuple[tuple[HardwareConfig, int], ...]:
        """All (config, batch) CPU grid points."""
        return tuple(
            (HardwareConfig.cpu(c), b) for c in self.cpu_cores for b in self.batches
        )

    def gpu_grid(self) -> tuple[tuple[HardwareConfig, int], ...]:
        """All (config, batch) GPU grid points."""
        return tuple(
            (HardwareConfig.gpu(f), b) for f in self.gpu_fractions for b in self.batches
        )

    @classmethod
    def paper_default(cls) -> "ProfilingPlan":
        """The §VII-C1 sampling budget: 25 CPU + 50 GPU inference samples."""
        return cls()

    @classmethod
    def cpu_only(cls) -> "ProfilingPlan":
        """CPU-only plan (SMIless-Homo ablation)."""
        return cls(gpu_fractions=())


@dataclass
class OfflineProfiler:
    """Runs profiling campaigns and produces :class:`FunctionProfile` objects.

    Each campaign queries a ground-truth oracle (the simulator's stand-in
    for actually executing the function) and fits the profile straight
    from the samples it draws; no raw measurement outlives the fit.
    """

    plan: ProfilingPlan = field(default_factory=ProfilingPlan.paper_default)
    n_sigma: float = DEFAULT_UNCERTAINTY

    def profile_function(
        self, name: str, oracle: GroundTruthPerformance
    ) -> FunctionProfile:
        """Measure one function per the plan and fit its profile."""
        cpu_model = self._fit_backend(oracle, self.plan.cpu_grid())
        gpu_model = self._fit_backend(oracle, self.plan.gpu_grid())

        init_cpu = init_gpu = swap_gpu = None
        if self.plan.cpu_cores:
            cfg = HardwareConfig.cpu(self.plan.cpu_cores[0])
            init_cpu = self._estimate_init(oracle, cfg)
        if self.plan.gpu_fractions:
            cfg = HardwareConfig.gpu(self.plan.gpu_fractions[0])
            init_gpu = self._estimate_init(oracle, cfg)
            if oracle.supports_swap:
                # Swap-capable models additionally get a swap-in campaign;
                # default models draw nothing extra, so their oracle noise
                # streams (and everything fitted from them) are untouched.
                swap_gpu = self._estimate_init(oracle, cfg, swap=True)

        return FunctionProfile(
            function=name,
            cpu_model=cpu_model,
            gpu_model=gpu_model,
            init_cpu=init_cpu,
            init_gpu=init_gpu,
            n_sigma=self.n_sigma,
            swap_init_gpu=swap_gpu,
        )

    def profile_app(
        self,
        app: AppDAG,
        rng: int | np.random.Generator | None = None,
        *,
        noisy: bool = True,
    ) -> dict[str, FunctionProfile]:
        """Profile every function of ``app`` with per-function oracle streams."""
        gen = ensure_rng(rng)
        profiles: dict[str, FunctionProfile] = {}
        for spec in app.specs:
            oracle = GroundTruthPerformance(
                spec.profile, rng=int(gen.integers(2**32)), noisy=noisy
            )
            profiles[spec.name] = self.profile_function(spec.name, oracle)
        return profiles

    # -- internals ----------------------------------------------------------
    def _fit_backend(
        self,
        oracle: GroundTruthPerformance,
        grid: tuple[tuple[HardwareConfig, int], ...],
    ) -> FittedLatencyModel | None:
        if not grid:
            return None
        resources, batches, times = [], [], []
        for cfg, batch in grid:
            for _ in range(self.plan.inference_repeats):
                t = oracle.inference_time(cfg, batch)
                amount = (
                    cfg.cpu_cores if cfg.backend is Backend.CPU else cfg.gpu_fraction
                )
                resources.append(amount)
                batches.append(batch)
                times.append(t)
        return fit_latency_model(
            np.array(resources), np.array(batches), np.array(times)
        )

    def _estimate_init(
        self,
        oracle: GroundTruthPerformance,
        config: HardwareConfig,
        *,
        swap: bool = False,
    ):
        if swap:
            samples = oracle.sample_swap(config, self.plan.init_repeats)
        else:
            samples = oracle.sample_init(config, self.plan.init_repeats)
        return estimate_init_time(samples)


def oracle_profile(perf: PerfProfile, n_sigma: float = 0.0) -> FunctionProfile:
    """Noise-free profile straight from ground truth (the OPT baseline's view).

    Uses the true latency-law coefficients and the true init mean/std, so the
    exhaustive-search baseline optimizes against reality rather than fits.
    """
    from repro.profiler.inittime import InitTimeEstimate

    cpu = FittedLatencyModel(
        a=perf.cpu.lam * perf.cpu.alpha, b=perf.cpu.lam * perf.cpu.beta, c=perf.cpu.gamma
    )
    gpu = FittedLatencyModel(
        a=perf.gpu.lam * perf.gpu.alpha, b=perf.gpu.lam * perf.gpu.beta, c=perf.gpu.gamma
    )
    swap = (
        InitTimeEstimate(perf.swap_gpu.mean, perf.swap_gpu.std, 10)
        if perf.swap_gpu is not None
        else None
    )
    return FunctionProfile(
        function=perf.name,
        cpu_model=cpu,
        gpu_model=gpu,
        init_cpu=InitTimeEstimate(perf.init_cpu.mean, perf.init_cpu.std, 10),
        init_gpu=InitTimeEstimate(perf.init_gpu.mean, perf.init_gpu.std, 10),
        n_sigma=n_sigma,
        swap_init_gpu=swap,
    )
