"""Behavioural tests for the scheduling policies.

These assert the *mechanisms* each policy is defined by (configuration
choice, cold-start handling, scaling), plus the qualitative orderings the
paper's evaluation rests on.  Full-figure comparisons live in benchmarks/.
"""

import math

import numpy as np
import pytest

from repro.core.prewarming import ColdStartPolicy
from repro.dag import image_query, linear_pipeline, voice_assistant
from repro.hardware import Backend, ConfigurationSpace, HardwareConfig
from repro.policies import (
    AquatopePolicy,
    GrandSLAmPolicy,
    IceBreakerPolicy,
    OptimalPolicy,
    OrionPolicy,
    SMIlessHomoPolicy,
    SMIlessNoDagPolicy,
    SMIlessPolicy,
)
from repro.profiler import OfflineProfiler, oracle_profile
from repro.simulator import Runtime
from repro.workload import AzureLikeWorkload


@pytest.fixture(scope="module")
def app():
    return image_query()


@pytest.fixture(scope="module")
def profiles(app):
    return OfflineProfiler().profile_app(app, rng=1)


@pytest.fixture(scope="module")
def oracle(app):
    return {s.name: oracle_profile(s.profile, n_sigma=1.0) for s in app.specs}


@pytest.fixture(scope="module")
def steady_trace():
    return AzureLikeWorkload.preset("steady", seed=7).generate(300.0)


def simulate(app, trace, policy, seed=3):
    rt = Runtime()
    rt.add_app(app, trace, policy, seed=seed)
    return rt.run()[app.name]


class TestSMIlessPolicy:
    def test_runs_and_meets_sla_mostly(self, app, profiles, steady_trace):
        m = simulate(app, steady_trace, SMIlessPolicy(profiles))
        assert m.violation_ratio() < 0.10
        assert m.total_cost() > 0

    def test_prewarm_keeps_reinits_off_critical_path(
        self, app, profiles, steady_trace
    ):
        m = simulate(app, steady_trace, SMIlessPolicy(profiles))
        assert m.reinit_fraction() < 0.10

    def test_strategy_cached_per_bucket(self, app, profiles, steady_trace):
        policy = SMIlessPolicy(profiles)
        simulate(app, steady_trace, policy)
        assert len(policy._strategy_cache) >= 1
        # far fewer optimizer invocations than windows
        assert len(policy._strategy_cache) < 10

    def test_fallback_it_prediction_is_conservative(self, profiles):
        policy = SMIlessPolicy(profiles)
        counts = np.zeros(60, dtype=int)
        counts[::6] = 1  # gaps of exactly 6 windows
        assert policy.predict_inter_arrival(counts) <= 6.0
        assert policy.predict_inter_arrival_upper(counts) >= 6.0

    def test_predict_invocations_ramp_extrapolates(self, profiles):
        policy = SMIlessPolicy(profiles)
        assert policy.predict_invocations(np.array([0, 2, 4])) >= 6
        assert policy.predict_invocations(np.array([0, 0, 1])) == 1
        assert policy.predict_invocations(np.array([], dtype=int)) == 0

    def test_sla_margin_validation(self, profiles):
        with pytest.raises(ValueError):
            SMIlessPolicy(profiles, sla_margin=1.0)

    def test_burst_budgets_respect_sla(self, app, profiles):
        policy = SMIlessPolicy(profiles)
        budgets = policy._burst_budgets(app)
        for path in app.simple_paths():
            assert sum(budgets[f] for f in path) <= app.sla * 0.91


class TestOrionPolicy:
    def test_plans_with_prewarm_assumption(self, app, profiles):
        policy = OrionPolicy(profiles)
        trace = AzureLikeWorkload.preset("steady", seed=9).generate(120.0)
        simulate(app, trace, policy)
        # every function is treated as pre-warmable (Case I pricing)
        for fn in app.function_names:
            assert policy._plans[fn].policy is ColdStartPolicy.PREWARM

    def test_suffers_under_close_arrivals(self, app, profiles, oracle):
        """Fig. 3a: closely spaced invocations break the assumption."""
        bursty = AzureLikeWorkload.preset("bursty", seed=5).generate(300.0)
        orion = simulate(app, bursty, OrionPolicy(profiles))
        opt = simulate(app, bursty, OptimalPolicy(oracle, bursty))
        assert orion.violation_ratio() > opt.violation_ratio()


class TestIceBreakerPolicy:
    def test_dual_pool_configs(self, app, profiles, steady_trace):
        policy = IceBreakerPolicy(profiles)
        simulate(app, steady_trace, policy)
        for fn in app.function_names:
            cpu_cfg = policy._cpu_configs[fn]
            gpu_cfg = policy._gpu_configs[fn]
            assert cpu_cfg is None or cpu_cfg.backend is Backend.CPU
            assert gpu_cfg is None or gpu_cfg.backend is Backend.GPU

    def test_heavy_gpu_usage(self, app, profiles, steady_trace):
        """Fig. 9a: IceBreaker bills most on GPUs."""
        m = simulate(app, steady_trace, IceBreakerPolicy(profiles))
        assert m.backend_cost(Backend.GPU) > 0

    def test_costlier_than_smiless(self, app, profiles, steady_trace):
        """The headline: DAG-oblivious warming is expensive (§VII-B)."""
        ice = simulate(app, steady_trace, IceBreakerPolicy(profiles))
        smi = simulate(app, steady_trace, SMIlessPolicy(profiles))
        assert ice.total_cost() > 1.5 * smi.total_cost()


class TestGrandSLAmPolicy:
    def test_always_on_no_reinits(self, app, profiles, steady_trace):
        m = simulate(app, steady_trace, GrandSLAmPolicy(profiles))
        assert m.reinit_fraction() < 0.05
        assert m.violation_ratio() < 0.05

    def test_stage_budgets_fit_sla(self, app, profiles):
        policy = GrandSLAmPolicy(profiles)
        budgets = policy.stage_budgets(app)
        for path in app.simple_paths():
            assert sum(budgets[f] for f in path) <= app.sla + 1e-9

    def test_costlier_than_smiless(self, app, profiles, steady_trace):
        grand = simulate(app, steady_trace, GrandSLAmPolicy(profiles))
        smi = simulate(app, steady_trace, SMIlessPolicy(profiles))
        assert grand.total_cost() > 1.3 * smi.total_cost()


class TestAquatopePolicy:
    def test_tuned_assignment_covers_all_functions(self, app, profiles):
        policy = AquatopePolicy(profiles, n_iter=10)
        assignment = policy.tune(app)
        assert set(assignment) == set(app.function_names)

    def test_most_reinits_among_managed_policies(
        self, app, profiles, steady_trace
    ):
        """Fig. 9b: Aquatope reinitializes most (no pre-warm coordination)."""
        sparse = AzureLikeWorkload.preset("sparse", seed=4).generate(400.0)
        aqua = simulate(app, sparse, AquatopePolicy(profiles, n_iter=10))
        smi = simulate(app, sparse, SMIlessPolicy(profiles))
        assert aqua.reinit_fraction() >= smi.reinit_fraction()


class TestOptimalPolicy:
    def test_near_zero_violations_on_steady(self, app, oracle, steady_trace):
        m = simulate(app, steady_trace, OptimalPolicy(oracle, steady_trace))
        assert m.violation_ratio() < 0.05

    def test_cheapest_of_all(self, app, profiles, oracle, steady_trace):
        opt = simulate(app, steady_trace, OptimalPolicy(oracle, steady_trace))
        for policy in (
            GrandSLAmPolicy(profiles),
            IceBreakerPolicy(profiles),
        ):
            m = simulate(app, steady_trace, policy)
            assert opt.total_cost() < m.total_cost()

    def test_smiless_within_factor_of_opt(self, app, profiles, oracle, steady_trace):
        """§VII-B: SMIless approximates OPT (paper: within ~1.5x)."""
        opt = simulate(app, steady_trace, OptimalPolicy(oracle, steady_trace))
        smi = simulate(app, steady_trace, SMIlessPolicy(profiles))
        assert smi.total_cost() <= 2.0 * opt.total_cost()


class TestAblations:
    def test_no_dag_costs_more(self, app, profiles, steady_trace):
        """Fig. 13a: simultaneous warm-up wastes money (paper: +39 %)."""
        smi = simulate(app, steady_trace, SMIlessPolicy(profiles))
        nodag = simulate(app, steady_trace, SMIlessNoDagPolicy(profiles))
        assert nodag.total_cost() > smi.total_cost()

    def test_homo_uses_only_cpu(self, app, profiles, steady_trace):
        m = simulate(app, steady_trace, SMIlessHomoPolicy(profiles))
        assert m.backend_cost(Backend.GPU) == 0.0

    def test_homo_struggles_with_tight_sla(self, profiles):
        """Fig. 13b: CPU-only cannot meet tight SLAs (paper: up to 22 %)."""
        tight = image_query(sla=0.6)
        trace = AzureLikeWorkload.preset("steady", seed=11).generate(300.0)
        homo = simulate(tight, trace, SMIlessHomoPolicy(profiles))
        hetero = simulate(tight, trace, SMIlessPolicy(profiles))
        assert homo.violation_ratio() > 0.2
        assert hetero.violation_ratio() < 0.1


class TestPolicyHygiene:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda p, tr: SMIlessPolicy(p),
            lambda p, tr: OrionPolicy(p),
            lambda p, tr: IceBreakerPolicy(p),
            lambda p, tr: GrandSLAmPolicy(p),
            lambda p, tr: AquatopePolicy(p, n_iter=5),
            lambda p, tr: SMIlessNoDagPolicy(p),
            lambda p, tr: SMIlessHomoPolicy(p),
        ],
    )
    def test_all_policies_complete_all_invocations(
        self, app, profiles, steady_trace, factory
    ):
        m = simulate(app, steady_trace, factory(profiles, steady_trace))
        assert len(m.invocations) + m.unfinished == 72 or len(
            m.invocations
        ) == len(steady_trace)

    def test_works_on_deeper_dag(self, steady_trace):
        app = voice_assistant()
        profiles = OfflineProfiler().profile_app(app, rng=2)
        m = simulate(app, steady_trace, SMIlessPolicy(profiles))
        assert len(m.invocations) == len(steady_trace)

    def test_single_function_app(self, steady_trace):
        app = linear_pipeline(1, models=("QA",))
        profiles = OfflineProfiler().profile_app(app, rng=2)
        m = simulate(app, steady_trace, SMIlessPolicy(profiles))
        assert m.violation_ratio() < 0.15
