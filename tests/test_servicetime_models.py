"""Token service-time and residency models beyond the paper's fixed law.

A differential test pins the fixed path (the Eq. 1/2 law at
:func:`resources_of` equals the inline evaluation exactly); property
tests pin the beyond-paper regimes' invariants: token-driven service
times are strictly monotone in both token counts, and swap-in is
strictly cheaper than a GPU cold start wherever swapping is allowed.
"""

import dataclasses

import numpy as np
import pytest

from repro.dag.apps import image_query_swap, llm_chat, llm_profile
from repro.dag.models import get_model, model_names
from repro.hardware.configs import Backend, ConfigurationSpace, HardwareConfig
from repro.hardware.perfmodel import (
    GroundTruthPerformance,
    InitTimeParams,
    LatencyParams,
)
from repro.hardware.servicetime import (
    TokenServiceTime,
    WorkUnit,
    resources_of,
)
from repro.workload.generator import TokenWorkModel

SPACE = ConfigurationSpace.default()


# --------------------------------------------------------- differential
@pytest.mark.parametrize("name", model_names())
def test_fixed_model_matches_inline_law_bitwise(name):
    """The inline path is the Eq. 1/2 law at ``resources_of``, float for float.

    Registry profiles carry no ``service_model``, so
    ``expected_inference_time`` takes the inline path; it must equal the
    backend's law evaluated at the resource quantity the token model
    uses, exactly, for every configuration and batch size.
    """
    profile = get_model(name).profile
    assert profile.service_model is None
    for config in SPACE.configs:
        law = profile.cpu if config.backend is Backend.CPU else profile.gpu
        for batch in (1, 2, 7, profile.max_batch):
            assert law.latency(resources_of(config), batch) == (
                profile.expected_inference_time(config, batch)
            )


def test_resources_of_selects_backend_quantity():
    assert resources_of(HardwareConfig.cpu(4)) == 4.0
    assert resources_of(HardwareConfig.gpu(0.3)) == 0.3


# ----------------------------------------------------------- work units
def test_work_unit_validation_and_combine():
    with pytest.raises(ValueError):
        WorkUnit(tokens_in=0, tokens_out=0)
    with pytest.raises(ValueError):
        WorkUnit(tokens_in=-1, tokens_out=4)
    combined = WorkUnit.combine(
        [WorkUnit(10, 200), WorkUnit(80, 30), WorkUnit(5, 5)]
    )
    assert combined == WorkUnit(tokens_in=80, tokens_out=200)
    with pytest.raises(ValueError):
        WorkUnit.combine([])


def test_token_work_model_is_seed_deterministic_and_bounded():
    model = TokenWorkModel()
    a = [model.sample(np.random.default_rng(11)) for _ in range(1)]
    b = [model.sample(np.random.default_rng(11)) for _ in range(1)]
    assert a == b
    rng = np.random.default_rng(7)
    for _ in range(500):
        w = model.sample(rng)
        assert 1 <= w.tokens_in <= model.max_tokens
        assert 1 <= w.tokens_out <= model.max_tokens


# --------------------------------------------------- token monotonicity
def _token_model() -> TokenServiceTime:
    model = llm_profile().service_model
    assert isinstance(model, TokenServiceTime)
    return model


@pytest.mark.parametrize("config", SPACE.configs, ids=lambda c: c.key)
def test_token_service_time_monotone_in_both_token_counts(config):
    """More tokens can never be faster — strictly, in each dimension."""
    model = _token_model()
    rng = np.random.default_rng(42)
    for _ in range(50):
        t_in = int(rng.integers(1, 2000))
        t_out = int(rng.integers(1, 2000))
        d_in = int(rng.integers(1, 500))
        d_out = int(rng.integers(1, 500))
        base = model.expected(config, 1, WorkUnit(t_in, t_out))
        assert model.expected(config, 1, WorkUnit(t_in + d_in, t_out)) > base
        assert model.expected(config, 1, WorkUnit(t_in, t_out + d_out)) > base


def test_token_split_sums_to_expected_minus_overhead():
    model = _token_model()
    config = HardwareConfig.gpu(0.5)
    work = WorkUnit(tokens_in=333, tokens_out=77)
    prefill, decode = model.split(config, 2, work)
    assert prefill > 0 and decode > 0
    total = model.expected(config, 2, work)
    assert total == pytest.approx(prefill + decode + model.gpu.gamma)


def test_token_equivalent_law_matches_typical_work():
    """Collapsing the token model at typical work is exactly Eq. 1/2."""
    model = _token_model()
    for backend in (Backend.CPU, Backend.GPU):
        lam, alpha, beta, gamma = model.equivalent_law(backend)
        params = LatencyParams(lam=lam, alpha=alpha, beta=beta, gamma=gamma)
        configs = (
            SPACE.cpu_configs() if backend is Backend.CPU else SPACE.gpu_configs()
        )
        for config in configs:
            for batch in (1, 3, 8):
                assert params.latency(resources_of(config), batch) == (
                    pytest.approx(model.expected(config, batch))
                )


def test_llm_profile_carries_its_own_equivalent_law():
    """The profile's LatencyParams answer planning queries consistently."""
    profile = llm_profile()
    for config in SPACE.configs:
        assert profile.expected_inference_time(config, 4) == pytest.approx(
            profile.service_model.expected(config, 4)
        )
        inline = (
            profile.cpu.latency(config.cpu_cores, 4)
            if config.backend is Backend.CPU
            else profile.gpu.latency(config.gpu_fraction, 4)
        )
        assert inline == pytest.approx(profile.expected_inference_time(config, 4))


# ------------------------------------------------------- swap invariants
def test_swap_in_must_beat_cold_start_validated():
    base = get_model("TRS").profile
    with pytest.raises(ValueError, match="swap-in must beat a cold start"):
        dataclasses.replace(
            base,
            swap_gpu=InitTimeParams(
                mean=base.init_gpu.mean * 2.0, std=0.1
            ),
        )


def test_swap_capable_profiles_swap_strictly_faster():
    app = image_query_swap()
    for spec in app.specs:
        profile = spec.profile
        assert profile.swap_gpu is not None
        assert profile.swap_gpu.mean < profile.init_gpu.mean
        oracle = GroundTruthPerformance(profile, rng=0, noisy=False)
        for config in SPACE.gpu_configs():
            assert oracle.swap_in_time(config) < oracle.init_time(config)


def test_swap_time_refused_off_gpu_and_on_fixed_profiles():
    swap_profile = image_query_swap().specs[0].profile
    oracle = GroundTruthPerformance(swap_profile, rng=0)
    with pytest.raises(ValueError, match="cannot swap"):
        oracle.swap_in_time(HardwareConfig.cpu(4))
    fixed = GroundTruthPerformance(get_model("TRS").profile, rng=0)
    assert not fixed.supports_swap
    with pytest.raises(ValueError, match="cannot swap"):
        fixed.swap_in_time(HardwareConfig.gpu(0.3))


def test_llm_app_carries_work_model_and_swap_app_does_not():
    llm = llm_chat()
    assert isinstance(llm.work_model, TokenWorkModel)
    assert image_query_swap().work_model is None


def test_work_aware_oracle_consumes_one_draw_per_call():
    """Passing work must not perturb the noise stream of other calls."""
    profile = llm_profile()
    config = HardwareConfig.gpu(0.5)
    work = WorkUnit(tokens_in=500, tokens_out=100)
    a = GroundTruthPerformance(profile, rng=123)
    b = GroundTruthPerformance(profile, rng=123)
    # Interleave a work-carrying call; the *second* draw of each oracle
    # must still match (same position in the noise stream).
    a.inference_time(config, 1)
    b.inference_time(config, 1, work=work)
    assert a.inference_time(config, 2) == b.inference_time(config, 2)
