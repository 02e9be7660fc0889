"""Hardware configuration space and pricing (paper §VII-A System Settings).

The paper's cluster offers CPU containers with 1, 2, 4, 8 or 16 cores priced
like AWS c6g instances (``x × $0.034/hour`` for ``x`` cores) and GPU
containers allocated in MPS units of 10 % of the device, priced at 10 % of an
AWS p3.2xlarge ($3.06/hour for a full GPU).  A configuration is therefore one
of 15 discrete points; the Strategy Optimizer explores exactly this space.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import total_ordering

from repro.utils.validation import check_in_range, check_positive

#: CPU core counts offered for CPU-backed containers (AWS c6g family).
CPU_CORE_OPTIONS: tuple[int, ...] = (1, 2, 4, 8, 16)

#: Granularity of GPU sharing through MPS — the paper fixes 10 % units.
MPS_UNIT: float = 0.10

#: GPU fractions offered for GPU-backed containers (10 % .. 100 %).
GPU_FRACTION_OPTIONS: tuple[float, ...] = tuple(
    round(MPS_UNIT * k, 2) for k in range(1, 11)
)

#: Number of points in the configuration space (CPU core counts, then GPU
#: fractions); :attr:`HardwareConfig.slot` indexes it.
N_CONFIGS: int = len(CPU_CORE_OPTIONS) + len(GPU_FRACTION_OPTIONS)

#: Price of one CPU core per hour (AWS c6g series).
CPU_CORE_PRICE_PER_HOUR: float = 0.034

#: Price of a full V100-class GPU per hour (AWS p3.2xlarge).
GPU_PRICE_PER_HOUR: float = 3.06


class Backend(enum.Enum):
    """Type of compute backing a function instance."""

    CPU = "cpu"
    GPU = "gpu"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@total_ordering
@dataclass(frozen=True)
class HardwareConfig:
    """One point of the heterogeneous configuration space.

    Exactly one of ``cpu_cores`` / ``gpu_fraction`` is meaningful, selected
    by ``backend``.  Instances are immutable, hashable and ordered by unit
    cost so collections of configurations sort cheapest-first by default.

    The hash is computed once, from values whose hash does not depend on
    ``PYTHONHASHSEED`` (no enum or ``str``): configurations are pickled
    into grid and shard workers together with their cached hash.

    ``slot`` is the configuration's position in the fixed 15-point space
    (``0 .. N_CONFIGS - 1``: CPU core counts, then GPU fractions).  Equal
    configurations share a slot, so the engine keys its per-event pool
    counters and idle heaps by this small int and compares configurations
    by slot instead of by dataclass equality.
    """

    backend: Backend
    cpu_cores: int = 0
    gpu_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.backend is Backend.CPU:
            if self.cpu_cores not in CPU_CORE_OPTIONS:
                raise ValueError(
                    f"cpu_cores must be one of {CPU_CORE_OPTIONS}, got {self.cpu_cores}"
                )
            if self.gpu_fraction:
                raise ValueError("CPU config must not set gpu_fraction")
            slot = CPU_CORE_OPTIONS.index(self.cpu_cores)
        else:
            check_in_range("gpu_fraction", self.gpu_fraction, MPS_UNIT, 1.0)
            # Snap to the MPS grid to avoid float drift in comparisons.
            snapped = round(round(self.gpu_fraction / MPS_UNIT) * MPS_UNIT, 2)
            if abs(snapped - self.gpu_fraction) > 1e-9:
                raise ValueError(
                    f"gpu_fraction must be a multiple of {MPS_UNIT}, got {self.gpu_fraction}"
                )
            if self.cpu_cores:
                raise ValueError("GPU config must not set cpu_cores")
            # Store the snapped value, so equal grid points are equal configs.
            object.__setattr__(self, "gpu_fraction", snapped)
            slot = len(CPU_CORE_OPTIONS) + GPU_FRACTION_OPTIONS.index(snapped)
        key = (self.backend is Backend.GPU, self.cpu_cores, self.gpu_fraction)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "slot", slot)

    def __hash__(self) -> int:
        return self._hash

    # -- pricing -----------------------------------------------------------
    @property
    def unit_cost_per_hour(self) -> float:
        """Dollar cost of keeping one instance of this config up for 1 hour."""
        if self.backend is Backend.CPU:
            return self.cpu_cores * CPU_CORE_PRICE_PER_HOUR
        return self.gpu_fraction * GPU_PRICE_PER_HOUR

    @property
    def unit_cost(self) -> float:
        """Dollar cost per second — the ``U(*)`` of Eq. (3)."""
        return self.unit_cost_per_hour / 3600.0

    # -- identity ----------------------------------------------------------
    @property
    def key(self) -> str:
        """Stable string id, e.g. ``"cpu-4"`` or ``"gpu-30"``."""
        if self.backend is Backend.CPU:
            return f"cpu-{self.cpu_cores}"
        return f"gpu-{int(round(self.gpu_fraction * 100))}"

    @property
    def mps_slots(self) -> int:
        """Number of 10 % MPS slots this config occupies (0 for CPU)."""
        if self.backend is Backend.CPU:
            return 0
        return int(round(self.gpu_fraction / MPS_UNIT))

    def __lt__(self, other: "HardwareConfig") -> bool:
        if not isinstance(other, HardwareConfig):
            return NotImplemented
        return (self.unit_cost, self.key) < (other.unit_cost, other.key)

    def __str__(self) -> str:
        return self.key

    @classmethod
    def cpu(cls, cores: int) -> "HardwareConfig":
        """Build a CPU configuration with ``cores`` cores."""
        return cls(Backend.CPU, cpu_cores=cores)

    @classmethod
    def gpu(cls, fraction: float) -> "HardwareConfig":
        """Build a GPU configuration with an MPS ``fraction`` of the device."""
        return cls(Backend.GPU, gpu_fraction=round(fraction, 2))

    @classmethod
    def from_key(cls, key: str) -> "HardwareConfig":
        """Parse a config from its ``key`` representation."""
        kind, _, amount = key.partition("-")
        if kind == "cpu":
            return cls.cpu(int(amount))
        if kind == "gpu":
            return cls.gpu(int(amount) / 100.0)
        raise ValueError(f"unrecognized config key {key!r}")


class ConfigurationSpace:
    """The discrete set ``C`` of candidate configurations (paper §V-A).

    The default space is the paper's: 5 CPU tiers plus 10 GPU fractions.
    The space can be restricted (e.g. the SMIless-Homo ablation uses
    ``ConfigurationSpace(gpu_fractions=())``).
    """

    def __init__(
        self,
        cpu_cores: tuple[int, ...] = CPU_CORE_OPTIONS,
        gpu_fractions: tuple[float, ...] = GPU_FRACTION_OPTIONS,
    ) -> None:
        if not cpu_cores and not gpu_fractions:
            raise ValueError("configuration space must not be empty")
        for c in cpu_cores:
            check_positive("cpu_cores entry", c)
        configs: list[HardwareConfig] = [HardwareConfig.cpu(c) for c in cpu_cores]
        configs.extend(HardwareConfig.gpu(f) for f in gpu_fractions)
        self._configs = tuple(sorted(configs))
        self._keys = frozenset(c.key for c in self._configs)

    def __len__(self) -> int:
        return len(self._configs)

    def __iter__(self):
        return iter(self._configs)

    def __contains__(self, config: HardwareConfig) -> bool:
        return config.key in self._keys

    @property
    def configs(self) -> tuple[HardwareConfig, ...]:
        """All configurations, sorted cheapest-first."""
        return self._configs

    def cpu_configs(self) -> tuple[HardwareConfig, ...]:
        """CPU-backed configurations only, cheapest-first."""
        return tuple(c for c in self._configs if c.backend is Backend.CPU)

    def gpu_configs(self) -> tuple[HardwareConfig, ...]:
        """GPU-backed configurations only, cheapest-first."""
        return tuple(c for c in self._configs if c.backend is Backend.GPU)

    def cheapest(self) -> HardwareConfig:
        """The lowest unit-cost configuration in the space."""
        return self._configs[0]

    def most_expensive(self) -> HardwareConfig:
        """The highest unit-cost configuration in the space."""
        return self._configs[-1]

    @classmethod
    def cpu_only(cls) -> "ConfigurationSpace":
        """Homogeneous (CPU-only) space used by the SMIless-Homo ablation."""
        return cls(gpu_fractions=())

    @classmethod
    def default(cls) -> "ConfigurationSpace":
        """The paper's full 15-point heterogeneous space."""
        return cls()
