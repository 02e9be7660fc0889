"""SimDriver: live injection, admission partition, replay parity.

Exercises the serving plane's simulation driver without any HTTP on the
wire: requests are submitted directly, the event heap is stepped with
the same advance methods the server's pump uses, and the resulting
tickets/metrics are checked against the offline machinery.

All artifacts stay under ``tmp_path`` (never the repo tree — see the
``tests/_transcript.jsonl*`` pattern in ``.gitignore``).
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.parallel import (
    EnvSpec,
    MultiAppCellSpec,
    _environment,
)
from repro.overload.spec import OverloadSpec, TokenBucket
from repro.serving import HorizonPassed, SimDriver
from repro.serving.driver import TERMINAL_STATUSES
from repro.simulator.multiapp import Deployment, MultiAppSimulator
from repro.workload.trace import Trace

HORIZON = 90.0

ENVS = {
    "image-query": EnvSpec(
        app="image-query",
        preset="steady",
        sla=2.0,
        duration=HORIZON,
        train_duration=400.0,
        seed=0,
    ),
    "amber-alert": EnvSpec(
        app="amber-alert",
        preset="steady",
        sla=2.0,
        duration=HORIZON,
        train_duration=400.0,
        seed=0,
    ),
}


def make_cell(apps=("image-query",), policy="grandslam", overload=None):
    return MultiAppCellSpec(
        envs=tuple(ENVS[app] for app in apps),
        policy=policy,
        sim_seed=3,
        overload=overload,
    )


def make_driver(apps=("image-query",), policy="grandslam", overload=None):
    driver = SimDriver(make_cell(apps, policy, overload), horizon=HORIZON)
    driver.start()
    return driver


class TestSubmitLifecycle:
    def test_submit_advance_resolves_completed(self):
        driver = make_driver()
        done = []
        ticket = driver.submit("image-query", on_done=done.append)
        assert not ticket.done and driver.pending_work()
        driver.advance_while_busy(max_steps=100_000)
        assert ticket.status == "completed"
        assert ticket.invocation_id is not None
        assert ticket.inv.completed_at is not None
        assert done == [ticket]
        metrics = driver.finish()
        assert metrics["image-query"].n_completed == 1

    def test_stamps_strictly_increase_and_exceed_now(self):
        driver = make_driver()
        stamps = []
        for _ in range(5):
            stamps.append(driver.submit("image-query").t)
            driver.advance_while_busy(max_steps=100_000)
        assert stamps == sorted(set(stamps))
        assert all(s > 0.0 for s in stamps)
        # Time-warp parks the clock: stamps hug the last event, so the
        # whole burst stays far from the horizon.
        assert stamps[-1] < HORIZON / 2

    def test_unknown_app_raises_keyerror(self):
        driver = make_driver()
        with pytest.raises(KeyError):
            driver.submit("no-such-app")

    def test_submit_past_horizon_raises(self):
        driver = make_driver()
        driver.advance_to(HORIZON, max_steps=100_000)
        with pytest.raises(HorizonPassed):
            driver.submit("image-query")

    def test_finish_resolves_leftovers_as_unfinished(self):
        driver = make_driver()
        driver.advance_to(HORIZON - 1e-6, max_steps=100_000)
        ticket = driver.submit("image-query")
        # Never step: the arrival fires inside finish()'s drain, but the
        # invocation cannot complete before the horizon.
        metrics = driver.finish()
        assert ticket.status in ("completed", "unfinished")
        counters = driver.status_counts["image-query"]
        assert sum(counters[s] for s in TERMINAL_STATUSES) == 1
        assert metrics["image-query"].n_completed + metrics[
            "image-query"
        ].unfinished == 1

    def test_finish_is_idempotent(self):
        driver = make_driver()
        driver.submit("image-query")
        driver.advance_while_busy(max_steps=100_000)
        assert driver.finish() is driver.finish()
        with pytest.raises(RuntimeError, match="finished"):
            driver.submit("image-query")

    def test_wall_clock_advance_burns_idle_windows(self):
        driver = make_driver()
        steps = driver.advance_to(10.0, max_steps=100_000)
        assert driver.now == pytest.approx(10.0)
        # Window ticks fired even though no request ever arrived.
        assert steps >= 9

    def test_rejects_fault_plans_and_sharding(self):
        from repro.faults.plan import FaultPlan

        cell = make_cell()
        with pytest.raises(ValueError, match="fault plans"):
            SimDriver(
                MultiAppCellSpec(
                    envs=cell.envs,
                    policy=cell.policy,
                    sim_seed=3,
                    faults=FaultPlan(),
                ),
                horizon=HORIZON,
            )
        with pytest.raises(ValueError, match="shards"):
            SimDriver(
                MultiAppCellSpec(
                    envs=cell.envs,
                    policy=cell.policy,
                    sim_seed=3,
                    retention="sketch",
                    shards=2,
                ),
                horizon=HORIZON,
            )


class TestServeCellCompilation:
    def test_cell_pins_single_axes(self):
        from repro.experiments.scenario import ScenarioSpec

        spec = ScenarioSpec(
            apps=("image-query", "amber-alert"),
            policies=("smiless",),
            slas=(2.0,),
            seeds=(3,),
            overload=OverloadSpec(admission_rate=1.0, admission_burst=2.0),
        )
        cell = spec.cell()
        assert [e.app for e in cell.envs] == ["image-query", "amber-alert"]
        assert cell.policy == "smiless"
        assert cell.overload.admission_rate == 1.0

    def test_cell_rejects_swept_axes_and_unsupported(self):
        from repro.experiments.scenario import ScenarioSpec
        from repro.faults.plan import FaultPlan

        base = dict(apps=("image-query",), policies=("smiless",))
        with pytest.raises(ValueError, match="policies"):
            ScenarioSpec(
                apps=("image-query",), policies=("smiless", "grandslam")
            ).cell()
        with pytest.raises(ValueError, match="slas"):
            ScenarioSpec(**base, slas=(1.0, 2.0)).cell()
        # The compiled cell carries what live serving cannot host, and
        # the driver rejects it before building anything.
        with pytest.raises(ValueError, match="fault plans"):
            SimDriver(
                ScenarioSpec(**base, faults=FaultPlan()).cell(),
                horizon=HORIZON,
            )
        with pytest.raises(ValueError, match="sharding"):
            ScenarioSpec(
                **base, shards=2, retention="sketch"
            ).cell()
        with pytest.raises(ValueError, match="sharding"):
            SimDriver(
                ScenarioSpec(
                    **base, shards=2, slices_per_app=2, retention="sketch"
                ).cell(),
                horizon=HORIZON,
            )
        with pytest.raises(ValueError, match="request log"):
            SimDriver(
                ScenarioSpec(**base, trace_dir="/tmp/x").cell(),
                horizon=HORIZON,
            )


class TestAdmissionPartition:
    """Property: the live 429s are exactly the reference bucket's nos.

    The gateway's token bucket is a pure function of the admission
    stamps, so feeding the actual ticket stamps to a fresh
    :class:`TokenBucket` must partition the requests into the same
    accepted/rejected sets the live run produced — and the terminal
    counters must satisfy the conservation identity.
    """

    @given(
        gaps=st.lists(
            st.floats(min_value=1e-3, max_value=4.0, allow_nan=False),
            min_size=1,
            max_size=25,
        ),
        rate=st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
        burst=st.floats(min_value=1.0, max_value=4.0, allow_nan=False),
    )
    @settings(max_examples=15, deadline=None)
    def test_429s_partition_arrivals_exactly(self, gaps, rate, burst):
        driver = SimDriver(
            make_cell(overload=OverloadSpec(admission_rate=rate, admission_burst=burst)),
            horizon=float(sum(gaps) + 30.0),
        )
        driver.start()
        t = 0.0
        for gap in gaps:
            t += gap
            driver.advance_to(t, max_steps=100_000)
            driver.submit("image-query")
        metrics = driver.finish()["image-query"]

        reference = TokenBucket(rate=rate, burst=burst)
        expected = [reference.admit(ticket.t) for ticket in driver.tickets]
        live = [ticket.status != "rejected" for ticket in driver.tickets]
        assert live == expected

        # Conservation: every submitted request lands in exactly one
        # terminal bin, and the gateway's own counter agrees.
        n = len(gaps)
        assert metrics.rejected == expected.count(False)
        assert (
            metrics.n_completed
            + metrics.unfinished
            + metrics.timed_out
            + metrics.shed
            + metrics.rejected
            == n
        )
        counters = driver.status_counts["image-query"]
        assert sum(counters[s] for s in TERMINAL_STATUSES) == n
        assert counters["rejected"] == metrics.rejected

    def test_retry_after_reflects_token_deficit(self):
        rate = 0.5
        driver = make_driver(
            overload=OverloadSpec(admission_rate=rate, admission_burst=1.0)
        )
        assert driver.retry_after("image-query") == 0.0
        driver.submit("image-query")
        driver.advance_while_busy(max_steps=100_000)
        bucket = driver.gateways["image-query"].overload_plane.bucket
        expected = max(0.0, 1.0 - bucket.tokens) / rate
        assert driver.retry_after("image-query") == pytest.approx(expected)


class TestDriverReplayParity:
    def test_live_session_replays_bit_identical(self):
        apps = ("image-query", "amber-alert")
        overload = OverloadSpec(admission_rate=0.5, admission_burst=2.0)
        driver = make_driver(apps, policy="smiless", overload=overload)
        rng = random.Random(11)
        for _ in range(40):
            driver.submit(rng.choice(apps))
            if rng.random() < 0.7:
                driver.advance_while_busy(max_steps=100_000)
        live = driver.finish()
        assert any(m.rejected > 0 for m in live.values())

        cell = driver.cell
        deployments = []
        for spec in cell.envs:
            env = _environment(spec)
            times = np.asarray(
                [t.t for t in driver.tickets if t.app == env.app.name]
            )
            deployments.append(
                Deployment(
                    env.app,
                    Trace(times, duration=HORIZON),
                    env.make_policy(cell.policy),
                )
            )
        replayed = MultiAppSimulator(
            deployments,
            seed=cell.sim_seed,
            overload=cell.overload,
        ).run()

        for app in apps:
            live_summary = live[app].summary()
            replay_summary = replayed[app].summary()
            for key, value in live_summary.items():
                other = replay_summary[key]
                if isinstance(value, float) and math.isnan(value):
                    assert math.isnan(other), (app, key)
                else:
                    assert value == other, (app, key)
            assert live[app].rejected == replayed[app].rejected
            assert live[app].n_completed == replayed[app].n_completed
            assert live[app].unfinished == replayed[app].unfinished
