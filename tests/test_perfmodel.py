"""Tests for the ground-truth performance models (Eq. 1/2 substrate)."""

import numpy as np
import pytest

from repro.dag.models import get_profile
from repro.hardware import (
    Backend,
    GroundTruthPerformance,
    HardwareConfig,
    InitTimeParams,
    LatencyParams,
)


@pytest.fixture
def trs_profile():
    return get_profile("TRS")


class TestLatencyParams:
    def test_latency_law_shape(self):
        p = LatencyParams(lam=1.0, alpha=4.0, beta=0.1, gamma=0.02)
        # Eq. (1): lam * B * (alpha/resources + beta) + gamma
        assert p.latency(4, batch=1) == pytest.approx(1.0 * (4.0 / 4 + 0.1) + 0.02)

    def test_more_resources_is_faster(self):
        p = LatencyParams(lam=1.0, alpha=4.0, beta=0.1, gamma=0.02)
        assert p.latency(16) < p.latency(8) < p.latency(1)

    def test_latency_linear_in_batch(self):
        p = LatencyParams(lam=1.2, alpha=2.0, beta=0.1, gamma=0.05)
        l1, l2 = p.latency(4, 1), p.latency(4, 2)
        assert (l2 - 0.05) == pytest.approx(2 * (l1 - 0.05))

    def test_rejects_nonpositive_resources(self):
        p = LatencyParams(lam=1.0, alpha=1.0, beta=0.0, gamma=0.0)
        with pytest.raises(ValueError):
            p.latency(0)

    def test_rejects_invalid_params(self):
        with pytest.raises(ValueError):
            LatencyParams(lam=0.0, alpha=1.0, beta=0.1, gamma=0.0)
        with pytest.raises(ValueError):
            LatencyParams(lam=1.0, alpha=-1.0, beta=0.1, gamma=0.0)


class TestInitTimeParams:
    def test_sample_positive_and_near_mean(self):
        params = InitTimeParams(mean=5.0, std=0.5)
        rng = np.random.default_rng(0)
        samples = np.array([params.sample(rng) for _ in range(500)])
        assert (samples > 0).all()
        assert samples.mean() == pytest.approx(5.0, rel=0.05)

    def test_truncation_floor(self):
        params = InitTimeParams(mean=1.0, std=10.0)
        rng = np.random.default_rng(1)
        samples = [params.sample(rng) for _ in range(200)]
        assert min(samples) >= 0.1 * params.mean


class TestPerfProfile:
    def test_expected_inference_cpu_vs_gpu(self, trs_profile):
        cpu16 = trs_profile.expected_inference_time(HardwareConfig.cpu(16))
        gpu = trs_profile.expected_inference_time(HardwareConfig.gpu(1.0))
        # warm-start GPU speedup ~10x for TRS (paper §I / Fig. 2)
        assert 6.0 < cpu16 / gpu < 14.0

    def test_gpu_cold_start_slower_than_cpu(self, trs_profile):
        """Fig. 2: TRS cold start on GPU exceeds CPU despite faster inference."""
        cpu16, gpu = HardwareConfig.cpu(16), HardwareConfig.gpu(1.0)
        cold_cpu = trs_profile.expected_init_time(cpu16) + trs_profile.expected_inference_time(cpu16)
        cold_gpu = trs_profile.expected_init_time(gpu) + trs_profile.expected_inference_time(gpu)
        assert cold_gpu > cold_cpu

    def test_init_params_selector(self, trs_profile):
        assert trs_profile.init_params(Backend.CPU) is trs_profile.init_cpu
        assert trs_profile.init_params(Backend.GPU) is trs_profile.init_gpu


class TestGroundTruthPerformance:
    def test_noiseless_matches_expected(self, trs_profile):
        perf = GroundTruthPerformance(trs_profile, rng=0, noisy=False)
        cfg = HardwareConfig.cpu(4)
        assert perf.inference_time(cfg) == trs_profile.expected_inference_time(cfg)
        assert perf.init_time(cfg) == trs_profile.expected_init_time(cfg)

    def test_noise_is_multiplicative_and_unbiased(self, trs_profile):
        perf = GroundTruthPerformance(trs_profile, rng=0)
        cfg = HardwareConfig.cpu(4)
        base = trs_profile.expected_inference_time(cfg)
        samples = perf.sample_inference(cfg, batch=1, n=2000)
        assert samples.mean() == pytest.approx(base, rel=0.05)
        assert (samples > 0).all()

    def test_cpu_noisier_than_gpu(self, trs_profile):
        """Fig. 11b: GPU inference-time measurements are more precise."""
        perf = GroundTruthPerformance(trs_profile, rng=0)
        cpu = perf.sample_inference(HardwareConfig.cpu(4), 1, 1000)
        gpu = perf.sample_inference(HardwareConfig.gpu(0.5), 1, 1000)
        assert np.std(np.log(cpu)) > np.std(np.log(gpu))

    def test_deterministic_given_seed(self, trs_profile):
        a = GroundTruthPerformance(trs_profile, rng=11).sample_init(HardwareConfig.cpu(1), 5)
        b = GroundTruthPerformance(trs_profile, rng=11).sample_init(HardwareConfig.cpu(1), 5)
        np.testing.assert_array_equal(a, b)

    def test_sample_shapes(self, trs_profile):
        perf = GroundTruthPerformance(trs_profile, rng=3)
        assert perf.sample_inference(HardwareConfig.gpu(0.2), 2, 7).shape == (7,)
        assert perf.sample_init(HardwareConfig.gpu(0.2), 4).shape == (4,)
