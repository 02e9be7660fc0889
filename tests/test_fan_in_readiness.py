"""Stage readiness on recorded chaos co-runs, fan-in stages included.

A stage becomes ready exactly once per attempt: its first readiness, then
one more per scheduled retry; and a stage with several DAG predecessors
(the joins ``TG`` of amber-alert and image-query, ``QA`` of
voice-assistant) never becomes ready before the last of its predecessors
finished.  Both are checked on the recorded
event stream of the two pinned chaos co-runs and of two more seeded
ones, where faults, retries, shedding and timeouts interleave with the
joins.
"""

import collections
import functools

import pytest

from repro.experiments.runners import PAPER_APPS, build_environment
from repro.simulator import Deployment, MultiAppSimulator
from repro.simulator.cluster import Cluster
from repro.telemetry.recorder import TraceRecorder
from tests.test_chaos_corun_golden import CHAOS_FAULTS, CHAOS_OVERLOAD, chaos_trace


@functools.lru_cache(maxsize=None)
def seeded_chaos_trace(policy, seed):
    """``(apps, recorder)`` of a chaos co-run under another sim seed."""
    envs = [
        build_environment(
            name, preset="bursty", duration=120.0, train_duration=600.0, seed=0
        )
        for name in PAPER_APPS
    ]
    recorder = TraceRecorder()
    MultiAppSimulator(
        [Deployment(e.app, e.trace, e.make_policy(policy)) for e in envs],
        seed=seed,
        cluster=Cluster.build(n_machines=3),
        faults=CHAOS_FAULTS,
        overload=CHAOS_OVERLOAD,
        recorder=recorder,
    ).run()
    return {e.app.name: e.app for e in envs}, recorder


RUNS = (("grandslam", None), ("smiless", None), ("grandslam", 11), ("smiless", 12))


def _run(policy, seed):
    if seed is None:
        sim, _, recorder = chaos_trace(policy)
        apps = {gw.app.name: gw.app for gw in sim.runtime.gateways}
        return apps, recorder
    return seeded_chaos_trace(policy, seed)


@pytest.fixture(scope="module", params=RUNS, ids=lambda r: f"{r[0]}-{r[1]}")
def chaos_events(request):
    return _run(*request.param)


def test_one_ready_per_attempt(chaos_events):
    _, recorder = chaos_events
    ready = collections.Counter()
    retried = collections.Counter()
    abandoned = set()
    for e in recorder:
        if e.type == "stage_ready":
            ready[(e.app, e.invocation_id, e.function)] += 1
        elif e.type == "stage_retried":
            retried[(e.app, e.invocation_id, e.function)] += 1
        elif e.type in ("invocation_timed_out", "invocation_shed"):
            abandoned.add((e.app, e.invocation_id))
    assert sum(retried.values()) > 0  # the retry path ran
    for key in ready.keys() | retried.keys():
        assert 1 <= ready[key] <= 1 + retried[key], key
        if ready[key] < 1 + retried[key]:
            # Only a given-up invocation may leave a scheduled retry
            # unreadied (it timed out or was shed during the backoff).
            assert key[:2] in abandoned, key


def test_fan_in_ready_after_every_predecessor(chaos_events):
    apps, recorder = chaos_events
    fan_in = {
        (name, fn): app.predecessors(fn)
        for name, app in apps.items()
        for fn in app.function_names
        if len(app.predecessors(fn)) > 1
    }
    assert set(fan_in) == {
        ("amber-alert", "TG"),
        ("image-query", "TG"),
        ("voice-assistant", "QA"),
    }
    finished = set()
    joins = 0
    for e in recorder:
        if e.type == "stage_finish":
            finished.add((e.app, e.invocation_id, e.function))
        elif e.type == "stage_ready" and (e.app, e.function) in fan_in:
            joins += 1
            for pred in fan_in[(e.app, e.function)]:
                assert (e.app, e.invocation_id, pred) in finished, (
                    e.app,
                    e.invocation_id,
                    e.function,
                    pred,
                )
    assert joins > 0
