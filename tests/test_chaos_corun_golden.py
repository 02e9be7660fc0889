"""Chaos co-run golden: every fault and overload mechanism fires at once.

The three paper apps co-run under ``bursty`` on a three-machine cluster
with a machine outage, mid-flight execution faults, a GPU straggler
window, an init-failure burst, a flash crowd and a retry storm, behind
bounded deadline-aware queues, token-bucket admission, circuit breakers
and brownout.  Under ``grandslam`` and ``smiless`` that drives the shed,
reject, retry, timeout, crash-loop, GPU-starvation, breaker and brownout
paths of the gateway's fault and overload planes.  The golden pins every
per-app ``summary()`` and ``dispositions()``, the failure and retry
counters, the graceful-degradation steps by reason and the processed event
count; the values were captured from the engine before the planes moved
out of ``Gateway``, so exact equality pins that move bit for bit.  The
recorded traces are pinned too, by event count and JSONL digest.
"""

import collections
import functools

import pytest

from repro.experiments.runners import PAPER_APPS, build_environment
from repro.faults.plan import (
    ExecutionFault,
    FaultPlan,
    FlashCrowd,
    InitFailureBurst,
    LatencyStraggler,
    MachineOutage,
    ResilienceSpec,
    RetryStorm,
)
from repro.overload.spec import OverloadSpec
from repro.simulator import Deployment, MultiAppSimulator
from repro.simulator.cluster import Cluster
from repro.telemetry.recorder import TraceRecorder
from tests.test_trace_digests import trace_digest

CHAOS_FAULTS = FaultPlan(
    outages=(MachineOutage(machine=1, start=30.0, end=70.0),),
    execution_faults=(ExecutionFault(rate=0.05),),
    stragglers=(
        LatencyStraggler(factor=2.0, backend="gpu", start=60.0, end=90.0),
    ),
    init_failure_bursts=(InitFailureBurst(rate=0.8, start=10.0, end=25.0),),
    flash_crowds=(FlashCrowd(rate=15.0, start=50.0, end=60.0),),
    retry_storms=(RetryStorm(resubmits=2, delay=1.0, start=40.0, end=80.0),),
    resilience=ResilienceSpec(deadline_factor=4.0),
)
CHAOS_OVERLOAD = OverloadSpec(
    queue_limit=4,
    shed_policy="deadline-aware",
    admission_rate=12,
    admission_burst=10,
    breaker_failures=2,
    breaker_cooldown=5,
    brownout_queue_delay=1.0,
    brownout_recover_delay=0.2,
)
COUNTERS = (
    "failed_executions",
    "failed_initializations",
    "stage_retries",
    "fallbacks",
    "peak_queue_depth",
)

CHAOS_GOLDEN = {
    "grandslam": {
        "amber-alert": {
            "summary": {
                "total_cost": 0.0977253825082303,
                "violation_ratio": 0.9737903225806451,
                "invocations": 36.0,
                "mean_latency": 3.6431712216032883,
                "p50_latency": 3.6706656334858323,
                "p99_latency": 7.583705213267956,
                "reinit_fraction": 0.14227642276422764,
                "cpu_cost": 0.009789110857407015,
                "gpu_cost": 0.08793627165082328,
                "availability": 0.07258064516129033,
                "goodput": 0.02620967741935484,
            },
            "dispositions": {
                "completed": 36,
                "unfinished": 0,
                "timed_out": 4,
                "shed": 174,
                "rejected": 282,
                "injected_arrivals": 461,
            },
            "counters": {
                "failed_executions": 24,
                "failed_initializations": 0,
                "stage_retries": 24,
                "fallbacks": 27,
                "peak_queue_depth": 4,
            },
            "fallbacks": {
                "brownout": 13,
                "brownout-restore": 13,
                "gpu-starvation": 1,
            },
        },
        "image-query": {
            "summary": {
                "total_cost": 0.055001195027524805,
                "violation_ratio": 0.8865740740740741,
                "invocations": 76.0,
                "mean_latency": 2.092983518899434,
                "p50_latency": 1.8560420312074193,
                "p99_latency": 4.522670222579052,
                "reinit_fraction": 0.1349911190053286,
                "cpu_cost": 0.055001195027524805,
                "gpu_cost": 0.0,
                "availability": 0.17592592592592593,
                "goodput": 0.11342592592592593,
            },
            "dispositions": {
                "completed": 76,
                "unfinished": 0,
                "timed_out": 0,
                "shed": 112,
                "rejected": 244,
                "injected_arrivals": 397,
            },
            "counters": {
                "failed_executions": 31,
                "failed_initializations": 0,
                "stage_retries": 31,
                "fallbacks": 14,
                "peak_queue_depth": 4,
            },
            "fallbacks": {
                "brownout": 6,
                "brownout-restore": 6,
                "circuit-close": 1,
                "circuit-open": 1,
            },
        },
        "voice-assistant": {
            "summary": {
                "total_cost": 0.05396237727155642,
                "violation_ratio": 0.9710743801652892,
                "invocations": 40.0,
                "mean_latency": 2.586906805097491,
                "p50_latency": 2.787117860003491,
                "p99_latency": 4.2355533258829565,
                "reinit_fraction": 0.14025974025974025,
                "cpu_cost": 0.05396237727155642,
                "gpu_cost": 0.0,
                "availability": 0.08264462809917356,
                "goodput": 0.028925619834710745,
            },
            "dispositions": {
                "completed": 40,
                "unfinished": 0,
                "timed_out": 0,
                "shed": 162,
                "rejected": 282,
                "injected_arrivals": 449,
            },
            "counters": {
                "failed_executions": 23,
                "failed_initializations": 0,
                "stage_retries": 21,
                "fallbacks": 16,
                "peak_queue_depth": 4,
            },
            "fallbacks": {
                "brownout": 8,
                "brownout-restore": 8,
            },
        },
    },
    "smiless": {
        "amber-alert": {
            "summary": {
                "total_cost": 0.12929380231460405,
                "violation_ratio": 0.9960707269155207,
                "invocations": 8.0,
                "mean_latency": 4.030241320258575,
                "p50_latency": 3.921930268337931,
                "p99_latency": 6.7696303049487385,
                "reinit_fraction": 0.08333333333333333,
                "cpu_cost": 0.12529639116188981,
                "gpu_cost": 0.003997411152714231,
                "availability": 0.015717092337917484,
                "goodput": 0.003929273084479371,
            },
            "dispositions": {
                "completed": 8,
                "unfinished": 0,
                "timed_out": 17,
                "shed": 193,
                "rejected": 291,
                "injected_arrivals": 474,
            },
            "counters": {
                "failed_executions": 23,
                "failed_initializations": 37,
                "stage_retries": 21,
                "fallbacks": 19,
                "peak_queue_depth": 4,
            },
            "fallbacks": {
                "brownout": 11,
                "brownout-restore": 4,
                "circuit-close": 1,
                "circuit-open": 1,
                "crash-loop": 2,
            },
        },
        "image-query": {
            "summary": {
                "total_cost": 0.07024312785934343,
                "violation_ratio": 0.9880478087649402,
                "invocations": 16.0,
                "mean_latency": 3.3279142904123593,
                "p50_latency": 2.8674713599754895,
                "p99_latency": 6.268253503582743,
                "reinit_fraction": 0.07600950118764846,
                "cpu_cost": 0.06832942228298633,
                "gpu_cost": 0.0019137055763571156,
                "availability": 0.03187250996015936,
                "goodput": 0.01195219123505976,
            },
            "dispositions": {
                "completed": 16,
                "unfinished": 0,
                "timed_out": 10,
                "shed": 204,
                "rejected": 272,
                "injected_arrivals": 467,
            },
            "counters": {
                "failed_executions": 20,
                "failed_initializations": 25,
                "stage_retries": 20,
                "fallbacks": 37,
                "peak_queue_depth": 4,
            },
            "fallbacks": {
                "brownout": 30,
                "brownout-restore": 6,
                "crash-loop": 1,
            },
        },
        "voice-assistant": {
            "summary": {
                "total_cost": 0.05130642798586236,
                "violation_ratio": 0.9959595959595959,
                "invocations": 14.0,
                "mean_latency": 3.460009391632046,
                "p50_latency": 3.6030629730277433,
                "p99_latency": 5.738984828524694,
                "reinit_fraction": 0.0881057268722467,
                "cpu_cost": 0.05130642798586236,
                "gpu_cost": 0.0,
                "availability": 0.028282828282828285,
                "goodput": 0.00404040404040404,
            },
            "dispositions": {
                "completed": 14,
                "unfinished": 0,
                "timed_out": 21,
                "shed": 205,
                "rejected": 255,
                "injected_arrivals": 460,
            },
            "counters": {
                "failed_executions": 27,
                "failed_initializations": 33,
                "stage_retries": 26,
                "fallbacks": 45,
                "peak_queue_depth": 4,
            },
            "fallbacks": {
                "brownout": 34,
                "brownout-restore": 9,
                "crash-loop": 2,
            },
        },
    },
}
CHAOS_EVENTS = {
    "grandslam": 3566,
    "smiless": 7987,
}
#: (JSONL digest, recorded event count) of each chaos run's trace.  An
#: invocation shed at a full queue readies no further stage, so neither
#: trace records a ``stage_ready`` after an ``invocation_shed``.
CHAOS_TRACE = {
    "grandslam": ("f901f4cc65ab6cc8b65499621b1a479e", 8232),
    "smiless": ("1c4e7826b6e41ef0ca488702f96168cd", 13826),
}


@functools.lru_cache(maxsize=None)
def chaos_trace(policy):
    """``(simulator, metrics, recorder)`` of one chaos co-run, run once."""
    envs = [
        build_environment(
            name, preset="bursty", duration=120.0, train_duration=600.0, seed=0
        )
        for name in PAPER_APPS
    ]
    recorder = TraceRecorder()
    sim = MultiAppSimulator(
        [Deployment(e.app, e.trace, e.make_policy(policy)) for e in envs],
        seed=3,
        cluster=Cluster.build(n_machines=3),
        faults=CHAOS_FAULTS,
        overload=CHAOS_OVERLOAD,
        recorder=recorder,
    )
    return sim, sim.run(), recorder


@pytest.fixture(scope="module", params=sorted(CHAOS_GOLDEN))
def chaos_run(request):
    return (request.param, *chaos_trace(request.param))


def test_chaos_corun_bit_identical(chaos_run):
    policy, sim, metrics, recorder = chaos_run
    fallbacks = collections.Counter(
        (e.app, e.reason) for e in recorder if e.type == "fallback_activated"
    )
    for app in PAPER_APPS:
        m = metrics[app]
        golden = CHAOS_GOLDEN[policy][app]
        assert m.summary() == golden["summary"], app
        assert m.dispositions() == golden["dispositions"], app
        assert {c: getattr(m, c) for c in COUNTERS} == golden["counters"], app
        by_reason = {r: n for (a, r), n in sorted(fallbacks.items()) if a == app}
        assert by_reason == golden["fallbacks"], app
    assert sim.events.processed == CHAOS_EVENTS[policy]


def test_chaos_trace_digest(chaos_run, tmp_path):
    policy, _, _, recorder = chaos_run
    digest, n_events = CHAOS_TRACE[policy]
    assert len(recorder.events) == n_events
    assert trace_digest(recorder.events, tmp_path) == digest
