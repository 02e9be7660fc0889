"""Planes-off parity: an inert fault plan or overload spec changes nothing.

A gateway builds its fault plane only when the run carries a
``FaultPlan`` and its overload plane only when it carries an
``OverloadSpec``.  A spec that enables no mechanism must leave a run
exactly as it is with no spec at all: the same per-app ``summary()`` and
the same processed event count, on solo runs and on co-runs, on a roomy
cluster and on a saturated one.

An inert fault plan needs ``fallback_after=None``: the default
``ResilienceSpec`` degrades a function to its CPU fallback after three
failed GPU placements, which a busy cluster triggers without any fault.
"""

import functools

import pytest

from repro.experiments.runners import PAPER_APPS, build_environment
from repro.faults.plan import FaultPlan, ResilienceSpec
from repro.overload.spec import OverloadSpec
from repro.simulator import Deployment, MultiAppSimulator
from repro.simulator.cluster import Cluster

#: name -> (apps, preset, duration, policy, machines); ``None`` machines
#: is the default 8-machine cluster.
CELLS = {
    "solo-steady-smiless": (("image-query",), "steady", 120.0, "smiless", None),
    "solo-steady-grandslam": (
        ("image-query",), "steady", 120.0, "grandslam", None,
    ),
    "corun-flood-smiless": (PAPER_APPS, "flood", 60.0, "smiless", None),
    "corun-flood-grandslam": (PAPER_APPS, "flood", 60.0, "grandslam", None),
    "corun-saturated-smiless": (PAPER_APPS, "flood", 60.0, "smiless", 3),
}
INERT_FAULTS = FaultPlan(resilience=ResilienceSpec(fallback_after=None))


def run_cell(cell, **planes):
    apps, preset, duration, policy, machines = CELLS[cell]
    envs = [
        build_environment(
            name, preset=preset, duration=duration, train_duration=600.0, seed=0
        )
        for name in apps
    ]
    sim = MultiAppSimulator(
        [Deployment(e.app, e.trace, e.make_policy(policy)) for e in envs],
        seed=3,
        cluster=Cluster.build(n_machines=machines) if machines else None,
        **planes,
    )
    metrics = sim.run()
    return {app: m.summary() for app, m in metrics.items()}, sim.events.processed


@functools.cache
def baseline(cell):
    return run_cell(cell)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_inert_planes_match_no_planes(cell):
    assert run_cell(cell, overload=OverloadSpec()) == baseline(cell)
    assert run_cell(cell, faults=INERT_FAULTS) == baseline(cell)


def test_default_fault_plan_is_not_inert():
    """The default ResilienceSpec's GPU-starvation fallback engages on a
    busy co-run even though the plan injects no fault."""
    cell = "corun-flood-grandslam"
    assert run_cell(cell, faults=FaultPlan()) != baseline(cell)
