"""Tests for the Offline Profiler: fitting, init estimates, campaigns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag import voice_assistant
from repro.dag.models import get_profile
from repro.hardware import Backend, GroundTruthPerformance, HardwareConfig
from repro.profiler import (
    FunctionProfile,
    InitTimeEstimate,
    OfflineProfiler,
    ProfilingPlan,
    estimate_init_time,
    fit_latency_model,
    oracle_profile,
    smape,
)
from repro.profiler.fitting import FittedLatencyModel, mape


class TestFitting:
    def test_recovers_exact_law(self):
        # exact synthetic data from t = 2*B/r + 0.1*B + 0.05
        rng = np.random.default_rng(0)
        r = rng.choice([1, 2, 4, 8], size=40).astype(float)
        b = rng.choice([1, 2, 4], size=40).astype(float)
        t = 2.0 * b / r + 0.1 * b + 0.05
        model = fit_latency_model(r, b, t)
        assert model.a == pytest.approx(2.0, rel=1e-6)
        assert model.b == pytest.approx(0.1, rel=1e-6)
        assert model.c == pytest.approx(0.05, rel=1e-6)

    def test_prediction_interface_matches(self):
        model = FittedLatencyModel(a=1.0, b=0.1, c=0.02)
        assert model.latency(4, 2) == pytest.approx(1.0 * 2 / 4 + 0.1 * 2 + 0.02)
        np.testing.assert_allclose(
            model.predict(np.array([4.0]), np.array([2.0])), [model.latency(4, 2)]
        )

    def test_requires_two_resource_levels(self):
        with pytest.raises(ValueError, match="resource levels"):
            fit_latency_model(
                np.array([4.0, 4.0, 4.0]), np.array([1.0, 2.0, 4.0]), np.ones(3)
            )

    def test_requires_three_samples(self):
        with pytest.raises(ValueError, match="3 samples"):
            fit_latency_model(np.array([1.0, 2.0]), np.ones(2), np.ones(2))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fit_latency_model(np.ones(3), np.ones(4), np.ones(3))

    def test_noisy_fit_is_close(self):
        profile = get_profile("TRS")
        rng = np.random.default_rng(1)
        cores = rng.choice([1, 2, 4, 8, 16], size=100).astype(float)
        batch = rng.choice([2, 4, 8, 16, 32], size=100).astype(float)
        truth = np.array(
            [profile.cpu.latency(c, b) for c, b in zip(cores, batch)]
        )
        noisy = truth * rng.lognormal(0.0, 0.08, size=100)
        model = fit_latency_model(cores, batch, noisy)
        pred = model.predict(cores, batch)
        assert smape(truth, pred) < 20.0  # the paper's per-function bound


class TestErrorMetrics:
    def test_smape_zero_on_perfect(self):
        assert smape(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_smape_symmetry(self):
        a, p = np.array([1.0, 2.0]), np.array([2.0, 1.0])
        assert smape(a, p) == pytest.approx(smape(p, a))

    def test_smape_both_zero_pairs_ignored(self):
        assert smape(np.array([0.0, 1.0]), np.array([0.0, 1.0])) == 0.0

    def test_smape_bounded_by_200(self):
        assert smape(np.array([1.0]), np.array([0.0])) == pytest.approx(200.0)

    def test_mape_basic(self):
        assert mape(np.array([2.0]), np.array([1.0])) == pytest.approx(50.0)

    def test_mape_skips_zero_actuals(self):
        assert mape(np.array([0.0, 2.0]), np.array([5.0, 2.0])) == 0.0

    def test_mape_all_zero_raises(self):
        with pytest.raises(ValueError):
            mape(np.zeros(3), np.ones(3))

    @given(
        st.lists(st.floats(0.1, 100.0), min_size=1, max_size=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_smape_nonnegative_and_bounded(self, values):
        a = np.array(values)
        p = a * 1.3
        s = smape(a, p)
        assert 0.0 <= s <= 200.0


class TestInitEstimate:
    def test_mean_and_robust(self):
        est = estimate_init_time(np.array([4.0, 5.0, 6.0]))
        assert est.mean == pytest.approx(5.0)
        assert est.robust(0.0) == pytest.approx(5.0)
        assert est.robust(3.0) == pytest.approx(5.0 + 3 * est.std)
        assert est.n_samples == 3

    def test_robust_monotone_in_sigma(self):
        est = InitTimeEstimate(mean=5.0, std=0.5, n_samples=10)
        assert est.robust(1.0) < est.robust(2.0) < est.robust(3.0)

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            estimate_init_time(np.array([1.0]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            estimate_init_time(np.array([1.0, -2.0]))


class TestProfilingPlan:
    def test_paper_default_budget(self):
        plan = ProfilingPlan.paper_default()
        assert len(plan.cpu_grid()) == 25  # 5 batch sizes x 5 core counts
        assert len(plan.gpu_grid()) == 50  # 5 batch sizes x 10 fractions
        assert plan.init_repeats == 10

    def test_cpu_only_plan(self):
        plan = ProfilingPlan.cpu_only()
        assert plan.gpu_grid() == ()
        assert len(plan.cpu_grid()) == 25

    def test_validation(self):
        with pytest.raises(ValueError):
            ProfilingPlan(init_repeats=1)
        with pytest.raises(ValueError):
            ProfilingPlan(cpu_cores=(), gpu_fractions=())


class TestOfflineProfiler:
    @pytest.fixture
    def profiler(self):
        return OfflineProfiler()

    def test_profile_function_accuracy(self, profiler):
        """Fitted latency models reach the paper's SMAPE target (<20 %)."""
        perf = get_profile("SR")
        oracle = GroundTruthPerformance(perf, rng=0)
        prof = profiler.profile_function("SR", oracle)
        configs = [HardwareConfig.cpu(c) for c in (1, 2, 4, 8, 16)]
        configs += [HardwareConfig.gpu(f / 10) for f in range(1, 11)]
        actual = np.array([perf.expected_inference_time(c, 4) for c in configs])
        pred = np.array([prof.inference_time(c, 4) for c in configs])
        assert smape(actual, pred) < 20.0

    def test_profile_records_measurements(self, profiler):
        drawn = {"inference": 0, "init": 0}

        class CountingOracle(GroundTruthPerformance):
            def inference_time(self, config, batch=1, work=None):
                drawn["inference"] += 1
                return super().inference_time(config, batch, work)

            def sample_init(self, config, n):
                drawn["init"] += n
                return super().sample_init(config, n)

        profiler.profile_function("IR", CountingOracle(get_profile("IR"), rng=1))
        # 25 CPU + 50 GPU inference samples + 2 x 10 init samples
        assert drawn == {"inference": 75, "init": 20}

    def test_robust_init_above_mean(self, profiler):
        oracle = GroundTruthPerformance(get_profile("TG"), rng=2)
        prof = profiler.profile_function("TG", oracle)
        cfg = HardwareConfig.gpu(0.1)
        assert prof.init_time(cfg) > prof.mean_init_time(cfg)

    def test_profile_app_covers_all_functions(self, profiler):
        app = voice_assistant()
        profiles = profiler.profile_app(app, rng=3)
        assert set(profiles) == set(app.function_names)
        for p in profiles.values():
            assert isinstance(p, FunctionProfile)

    def test_cpu_only_profile_rejects_gpu_queries(self):
        profiler = OfflineProfiler(plan=ProfilingPlan.cpu_only())
        oracle = GroundTruthPerformance(get_profile("IR"), rng=4)
        prof = profiler.profile_function("IR", oracle)
        assert prof.supports(Backend.CPU)
        assert not prof.supports(Backend.GPU)
        with pytest.raises(ValueError):
            prof.inference_time(HardwareConfig.gpu(0.1))

    def test_with_n_sigma(self, profiler):
        oracle = GroundTruthPerformance(get_profile("QA"), rng=5)
        prof = profiler.profile_function("QA", oracle)
        relaxed = prof.with_n_sigma(0.0)
        cfg = HardwareConfig.cpu(1)
        assert relaxed.init_time(cfg) == pytest.approx(relaxed.mean_init_time(cfg))
        assert relaxed.init_time(cfg) < prof.init_time(cfg)


class TestOracleProfile:
    def test_matches_ground_truth_exactly(self):
        perf = get_profile("TRS")
        prof = oracle_profile(perf)
        for cfg in (HardwareConfig.cpu(4), HardwareConfig.gpu(0.5)):
            assert prof.inference_time(cfg, 3) == pytest.approx(
                perf.expected_inference_time(cfg, 3)
            )

    def test_zero_sigma_init_is_true_mean(self):
        perf = get_profile("TRS")
        prof = oracle_profile(perf)
        assert prof.init_time(HardwareConfig.gpu(0.2)) == pytest.approx(
            perf.init_gpu.mean
        )
