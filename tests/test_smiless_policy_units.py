"""Unit tests for SMIlessPolicy internals (no full simulation needed)."""

import numpy as np
import pytest

from repro.core.prewarming import ColdStartPolicy
from repro.dag import image_query
from repro.policies import SMIlessPolicy
from repro.policies.smiless import linear_quantile
from repro.profiler import oracle_profile


@pytest.fixture(scope="module")
def profiles():
    app = image_query()
    return {s.name: oracle_profile(s.profile, n_sigma=1.0) for s in app.specs}


class TestItBuckets:
    def test_bucket_monotone_in_it(self, profiles):
        policy = SMIlessPolicy(profiles)
        buckets = [policy._it_bucket(it) for it in (0.5, 1.0, 3.0, 10.0, 60.0)]
        assert buckets == sorted(buckets)

    def test_nearby_its_share_bucket(self, profiles):
        policy = SMIlessPolicy(profiles)
        assert policy._it_bucket(4.0) == policy._it_bucket(4.3)

    def test_strategy_cached_by_bucket(self, profiles):
        policy = SMIlessPolicy(profiles)
        policy._app = image_query()
        s1 = policy._strategy_for(4.0)
        s2 = policy._strategy_for(4.2)
        assert s1 is s2  # same bucket -> cached object
        far = policy._strategy_for(100.0)
        assert far is not s1


class TestFallbackPredictors:
    def test_it_fallback_uses_low_quantile(self, profiles):
        policy = SMIlessPolicy(profiles)
        counts = np.zeros(100, dtype=int)
        counts[::10] = 1  # exact 10s gaps
        assert policy.predict_inter_arrival(counts) == pytest.approx(10.0)
        # mixed gaps: low quantile sits near the short ones
        counts = np.zeros(60, dtype=int)
        for idx in (0, 3, 6, 9, 30, 50):
            counts[idx] = 1
        est = policy.predict_inter_arrival(counts)
        assert est <= np.mean([3, 3, 3, 21, 20])

    def test_it_fallback_default_without_history(self, profiles):
        policy = SMIlessPolicy(profiles, default_it=7.5)
        assert policy.predict_inter_arrival(np.zeros(5, dtype=int)) == 7.5

    def test_upper_estimate_at_least_lower(self, profiles):
        policy = SMIlessPolicy(profiles)
        counts = np.zeros(80, dtype=int)
        counts[::7] = 1
        lo = policy.predict_inter_arrival(counts)
        hi = policy.predict_inter_arrival_upper(counts)
        assert hi >= lo

    def test_invocation_fallback_cases(self, profiles):
        policy = SMIlessPolicy(profiles)
        assert policy.predict_invocations(np.array([], dtype=int)) == 0
        assert policy.predict_invocations(np.array([3])) == 3
        assert policy.predict_invocations(np.array([1, 0])) == 0
        assert policy.predict_invocations(np.array([2, 4])) == 6


class TestBurstBudgets:
    def test_budgets_positive_and_path_bounded(self, profiles):
        app = image_query()
        policy = SMIlessPolicy(profiles)
        budgets = policy._burst_budgets(app)
        assert set(budgets) == set(app.function_names)
        assert all(b > 0 for b in budgets.values())
        target = app.sla * (1.0 - policy.sla_margin)
        for path in app.simple_paths():
            assert sum(budgets[f] for f in path) <= target + 1e-9

    def test_prewarm_grace_scales_with_uncertainty(self, profiles):
        policy = SMIlessPolicy(profiles)
        policy._current_it, policy._current_it_upper = 5.0, 5.5
        tight = policy._prewarm_grace()
        policy._current_it_upper = 30.0
        loose = policy._prewarm_grace()
        assert loose > tight


class TestConstruction:
    def test_rejects_bad_margin(self, profiles):
        with pytest.raises(ValueError):
            SMIlessPolicy(profiles, sla_margin=-0.1)

    def test_training_from_short_counts_is_graceful(self, profiles):
        policy = SMIlessPolicy(profiles, train_counts=np.zeros(3, dtype=int))
        assert policy.invocation_predictor is None
        assert policy.interarrival_predictor is None

    def test_standing_batch_at_least_one(self, profiles):
        app = image_query()
        policy = SMIlessPolicy(profiles)
        policy._app = app
        strategy = policy._strategy_for(5.0)
        for fn in app.function_names:
            assert 1 <= policy._standing_batch(fn, strategy) <= 8


class TestLinearQuantile:
    """``linear_quantile`` is ``np.quantile`` bit for bit, only cheaper."""

    @staticmethod
    def assert_bitwise(values, q):
        expected = float(np.quantile(values, q))
        got = linear_quantile(values, q)
        assert got == expected and np.signbit(got) == np.signbit(expected), (
            values.tolist(),
            q,
        )

    def test_seeded_random_windows(self):
        rng = np.random.default_rng(7)
        for trial in range(4000):
            n = int(rng.integers(1, 11))
            if trial % 2:
                values = rng.integers(1, 120, n).astype(float)
            else:
                values = rng.exponential(4.0, n)
            for q in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
                self.assert_bitwise(values, q)

    def test_every_window_of_the_chaos_corun(self, monkeypatch):
        from repro.experiments.runners import PAPER_APPS, build_environment
        from repro.policies import smiless
        from repro.simulator import Deployment, MultiAppSimulator
        from repro.simulator.cluster import Cluster
        from tests.test_chaos_corun_golden import CHAOS_FAULTS, CHAOS_OVERLOAD

        seen = []

        def checked(values, q):
            self.assert_bitwise(values, q)
            seen.append(q)
            return linear_quantile(values, q)

        monkeypatch.setattr(smiless, "linear_quantile", checked)
        envs = [
            build_environment(
                name, preset="bursty", duration=120.0, train_duration=600.0,
                seed=0,
            )
            for name in PAPER_APPS
        ]
        MultiAppSimulator(
            [Deployment(e.app, e.trace, e.make_policy("smiless")) for e in envs],
            seed=3,
            cluster=Cluster.build(n_machines=3),
            faults=CHAOS_FAULTS,
            overload=CHAOS_OVERLOAD,
        ).run()
        assert {0.25, 0.9} <= set(seen)
