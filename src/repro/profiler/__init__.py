"""Offline Profiler (paper §IV-A): measurement collection and model fitting.

The profiler draws initialization and inference timing samples from
running functions and fits, straight from the samples it draws:

- the Amdahl-law inference-time model of Eq. (1)/(2) per backend, via
  linear least squares on the features ``[B/resources, B, 1]``;
- a robust initialization-time estimate ``mu + n*sigma`` per backend
  (``n = 3`` avoids the SLA violations of the plain mean — Fig. 11a).

The resulting :class:`FunctionProfile` is the *only* performance knowledge
the Optimizer Engine sees — ground-truth parameters stay hidden inside the
simulator, as on the real testbed.
"""

from repro.profiler.fitting import FittedLatencyModel, fit_latency_model, smape
from repro.profiler.inittime import InitTimeEstimate, estimate_init_time
from repro.profiler.profiles import FunctionProfile
from repro.profiler.sampler import OfflineProfiler, ProfilingPlan, oracle_profile

__all__ = [
    "FittedLatencyModel",
    "fit_latency_model",
    "smape",
    "InitTimeEstimate",
    "estimate_init_time",
    "FunctionProfile",
    "OfflineProfiler",
    "ProfilingPlan",
    "oracle_profile",
]
