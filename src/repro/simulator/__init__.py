"""Discrete-event serverless platform simulator.

Stands in for the paper's OpenFaaS/Kubernetes deployment on the 8-machine
GPU cluster (§VI, §VII-A).  The simulator reproduces the platform semantics
the SMIless controller logic exercises on the real system:

- an event-driven clock with 1-second control windows (the Gateway's
  counting window);
- a cluster capacity model: 8 machines, 104 cores and one 10-slot MPS GPU
  each;
- container instances with the full lifecycle — initialization (cold
  start), warm idle with keep-alive expiry, busy (batched) execution — and
  per-second billing at the configuration's unit cost;
- a gateway that walks every invocation through its application DAG,
  queueing stages on warm instances, batching, and cold-starting on demand;
- metrics: cost with init/inference/keep-alive breakdown, E2E latency
  distribution, SLA violations, reinitialization counts, CPU:GPU usage, and
  per-window pod counts.

Scheduling policies (SMIless and the baselines) plug in through
:class:`repro.policies.base.Policy` callbacks.
"""

from repro.simulator.cluster import Cluster, Machine, Placement
from repro.simulator.container import Instance, InstanceState
from repro.simulator.events import EventQueue, TimerHandle
from repro.simulator.gateway import Gateway, SimulationContext
from repro.simulator.runtime import Deployment, Runtime, derive_app_seed
from repro.simulator.invocation import FunctionDirective, Invocation, StageRecord
from repro.simulator.metrics import InstanceUsage, RunMetrics
from repro.simulator.multiapp import MultiAppSimulator
from repro.simulator.pools import InstancePool
from repro.simulator.reporting import format_report

__all__ = [
    "EventQueue",
    "TimerHandle",
    "InstancePool",
    "Machine",
    "Cluster",
    "Placement",
    "Instance",
    "InstanceState",
    "Invocation",
    "StageRecord",
    "FunctionDirective",
    "RunMetrics",
    "InstanceUsage",
    "Gateway",
    "Runtime",
    "derive_app_seed",
    "SimulationContext",
    "Deployment",
    "MultiAppSimulator",
    "format_report",
]
