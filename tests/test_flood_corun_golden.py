"""Flood-scale co-run golden: many live instances across several configs.

The single-app goldens in ``test_determinism_golden.py`` serve 32
invocations and never hold more than a handful of instances.  This one
co-runs the three paper apps under the ``flood`` preset with ``grandslam``
and sketch retention: ~290 arrivals per app, hundreds of launches, CPU and
GPU configurations live at once, keep-alive expiries and min-warm churn.
Every per-app ``summary()`` value, the launch counts and the processed
event count were captured from the engine before its pools moved to
int-slot counters; exact equality pins the refactor bit for bit.
"""

import pytest

from repro.experiments.runners import PAPER_APPS, build_environment
from repro.simulator import Deployment, MultiAppSimulator

FLOOD_GOLDEN = {
    "amber-alert": {
        "total_cost": 0.2205867742383349,
        "violation_ratio": 1.0,
        "invocations": 293.0,
        "mean_latency": 6.804099862193067,
        "p50_latency": 6.038398381738474,
        "p99_latency": 13.607239283996048,
        "reinit_fraction": 0.23492605233219568,
        "cpu_cost": 0.0,
        "gpu_cost": 0.2205867742383349,
        "availability": 1.0,
        "goodput": 0.0,
    },
    "image-query": {
        "total_cost": 0.07408306122374111,
        "violation_ratio": 0.15699658703071673,
        "invocations": 293.0,
        "mean_latency": 1.8756573545254258,
        "p50_latency": 1.6592426855519784,
        "p99_latency": 4.821149251727407,
        "reinit_fraction": 0.11604095563139932,
        "cpu_cost": 0.07408306122374111,
        "gpu_cost": 0.0,
        "availability": 1.0,
        "goodput": 0.8430034129692833,
    },
    "voice-assistant": {
        "total_cost": 0.09983047293011577,
        "violation_ratio": 0.7687074829931972,
        "invocations": 294.0,
        "mean_latency": 2.5805949692737133,
        "p50_latency": 2.464941424052453,
        "p99_latency": 4.63045320499335,
        "reinit_fraction": 0.21156462585034014,
        "cpu_cost": 0.09983047293011577,
        "gpu_cost": 0.0,
        "availability": 1.0,
        "goodput": 0.23129251700680273,
    },
}
FLOOD_INITIALIZATIONS = {
    "amber-alert": 353,
    "image-query": 209,
    "voice-assistant": 394,
}
FLOOD_EVENTS = 6147


@pytest.fixture(scope="module")
def flood_run():
    envs = [
        build_environment(
            name, preset="flood", duration=45.0, train_duration=60.0, seed=i
        )
        for i, name in enumerate(PAPER_APPS)
    ]
    sim = MultiAppSimulator(
        [Deployment(e.app, e.trace, e.make_policy("grandslam")) for e in envs],
        seed=5,
        retention="sketch",
    )
    return sim, sim.run()


@pytest.mark.parametrize("app", PAPER_APPS)
def test_flood_corun_summary_bit_identical(flood_run, app):
    _, metrics = flood_run
    assert metrics[app].summary() == FLOOD_GOLDEN[app]
    assert metrics[app].initializations == FLOOD_INITIALIZATIONS[app]


def test_flood_corun_event_count(flood_run):
    sim, _ = flood_run
    assert sim.events.processed == FLOOD_EVENTS
