"""Saturated-cluster co-run golden: launches queue for capacity.

The three paper apps co-run under ``flood`` and ``smiless`` on a
three-machine cluster that fills within seconds, so most launches wait in
``Gateway.pending_launches``.  Min-warm enforcement and pre-warming count
same-config launches already waiting against their deficit; before they
did, every window tick queued ``min_warm`` more unplaceable launches, the
queues grew into the thousands and the FIFO retry spent freed capacity on
stale launches.  The golden pins every per-app ``summary()`` value, the
launch counts, the processed event count and the launches still pending at
the horizon.
"""

import pytest

from repro.experiments.runners import PAPER_APPS, build_environment
from repro.simulator import Deployment, MultiAppSimulator
from repro.simulator.cluster import Cluster

SATURATED_GOLDEN = {
    "amber-alert": {
        "total_cost": 0.17902400883257083,
        "violation_ratio": 1.0,
        "invocations": 385.0,
        "mean_latency": 64.48665289670221,
        "p50_latency": 71.4765662687769,
        "p99_latency": 97.70581026829845,
        "reinit_fraction": 0.05584415584415584,
        "cpu_cost": 0.17902400883257083,
        "gpu_cost": 0.0,
        "availability": 1.0,
        "goodput": 0.0,
    },
    "image-query": {
        "total_cost": 0.126655442090501,
        "violation_ratio": 1.0,
        "invocations": 385.0,
        "mean_latency": 41.668216813479695,
        "p50_latency": 44.100598942705616,
        "p99_latency": 52.31623188524336,
        "reinit_fraction": 0.2305194805194805,
        "cpu_cost": 0.126655442090501,
        "gpu_cost": 0.0,
        "availability": 1.0,
        "goodput": 0.0,
    },
    "voice-assistant": {
        "total_cost": 0.1434762386300673,
        "violation_ratio": 1.0,
        "invocations": 385.0,
        "mean_latency": 70.186814929334,
        "p50_latency": 83.91953575128638,
        "p99_latency": 103.56084562307711,
        "reinit_fraction": 0.19688311688311688,
        "cpu_cost": 0.1434762386300673,
        "gpu_cost": 0.0,
        "availability": 1.0,
        "goodput": 0.0,
    },
}
SATURATED_INITIALIZATIONS = {
    "amber-alert": 200,
    "image-query": 267,
    "voice-assistant": 354,
}
#: Launches still waiting for capacity at the horizon, summed per app.
SATURATED_PENDING = {
    "amber-alert": 271,
    "image-query": 174,
    "voice-assistant": 133,
}
SATURATED_EVENTS = 14375


@pytest.fixture(scope="module")
def saturated_run():
    envs = [
        build_environment(
            name, preset="flood", duration=60.0, train_duration=600.0, seed=0
        )
        for name in PAPER_APPS
    ]
    sim = MultiAppSimulator(
        [Deployment(e.app, e.trace, e.make_policy("smiless")) for e in envs],
        seed=0,
        retention="sketch",
        cluster=Cluster.build(n_machines=3),
    )
    return sim, sim.run()


@pytest.mark.parametrize("app", PAPER_APPS)
def test_saturated_corun_summary_bit_identical(saturated_run, app):
    _, metrics = saturated_run
    assert metrics[app].summary() == SATURATED_GOLDEN[app]
    assert metrics[app].initializations == SATURATED_INITIALIZATIONS[app]


def test_saturated_corun_pending_depth_and_events(saturated_run):
    sim, _ = saturated_run
    pending = {
        g.app.name: sum(len(q) for q in g.pending_launches)
        for g in sim.runtime.gateways
    }
    assert pending == SATURATED_PENDING
    assert sim.events.processed == SATURATED_EVENTS
