"""Heterogeneous hardware substrate: configurations, pricing, ground truth.

This package models the configuration space the paper's cluster exposes —
CPU containers with 1/2/4/8/16 cores (AWS c6g pricing) and GPU containers in
MPS slices of 10 % of a V100-class device (AWS p3.2xlarge pricing) — plus
the analytic ground-truth latency and initialization models that stand in
for the real ML models served on the authors' testbed (see DESIGN.md §1).
"""

from repro.hardware.configs import (
    CPU_CORE_OPTIONS,
    CPU_CORE_PRICE_PER_HOUR,
    GPU_FRACTION_OPTIONS,
    GPU_PRICE_PER_HOUR,
    MPS_UNIT,
    Backend,
    ConfigurationSpace,
    HardwareConfig,
)
from repro.hardware.calibration import (
    CalibrationResult,
    Measurement,
    latency_params_from_measurements,
    profile_from_measurements,
    speedup_curve,
)
from repro.hardware.perfmodel import (
    GroundTruthPerformance,
    InitTimeParams,
    LatencyParams,
    PerfProfile,
)
from repro.hardware.servicetime import (
    FixedServiceTime,
    PerformanceOracle,
    ServiceTimeModel,
    TokenBackendCurve,
    TokenServiceTime,
    TokenThroughputCurve,
    WorkUnit,
)

__all__ = [
    "Backend",
    "HardwareConfig",
    "ConfigurationSpace",
    "CPU_CORE_OPTIONS",
    "GPU_FRACTION_OPTIONS",
    "CPU_CORE_PRICE_PER_HOUR",
    "GPU_PRICE_PER_HOUR",
    "MPS_UNIT",
    "LatencyParams",
    "InitTimeParams",
    "PerfProfile",
    "GroundTruthPerformance",
    "ServiceTimeModel",
    "PerformanceOracle",
    "FixedServiceTime",
    "TokenThroughputCurve",
    "TokenBackendCurve",
    "TokenServiceTime",
    "WorkUnit",
    "Measurement",
    "CalibrationResult",
    "latency_params_from_measurements",
    "profile_from_measurements",
    "speedup_curve",
]
