"""End-to-end tests of the beyond-paper regimes: LLM work + GPU swapping.

These drive full simulations (short horizons) rather than unit surfaces:
the LLM archetype must conserve invocations and emit schema-valid
``token_stage`` telemetry, the swap regime must actually swap and — the
point of swapping — pay strictly fewer full cold starts than its no-swap
twin on the identical workload.
"""

from types import SimpleNamespace

import pytest

from repro.experiments.runners import build_environment
from repro.hardware.configs import HardwareConfig
from repro.simulator import Runtime
from repro.simulator.cluster import ModelResidencyCache
from repro.telemetry import TraceRecorder, aggregate, to_dict, validate_event
from repro.telemetry.events import (
    InstanceSwappedIn,
    StageFinish,
    StageStart,
    TokenStage,
)


@pytest.fixture(scope="module")
def llm_run():
    env = build_environment(
        "llm-chat", sla=6.0, duration=120.0, train_duration=900.0
    )
    recorder = TraceRecorder()
    rt = Runtime(recorder=recorder)
    rt.add_app(env.app, env.trace, env.make_policy("smiless"), seed=3)
    metrics = rt.run()[env.app.name]
    return env, metrics, recorder


@pytest.fixture(scope="module")
def swap_pair():
    """(swap metrics, baseline metrics, swap recorder, trace length) on
    the same workload."""
    results = {}
    recorder = None
    for app in ("image-query-swap", "image-query"):
        env = build_environment(
            app, preset="bursty", sla=1.0, duration=180.0, train_duration=900.0
        )
        rec = TraceRecorder() if app == "image-query-swap" else None
        rt = Runtime(recorder=rec)
        rt.add_app(env.app, env.trace, env.make_policy("smiless"), seed=3)
        results[app] = rt.run()[env.app.name]
        if rec is not None:
            recorder = rec
    return (
        results["image-query-swap"],
        results["image-query"],
        recorder,
        len(env.trace),
    )


# ------------------------------------------------------------------- LLM
def test_llm_run_conserves_invocations(llm_run):
    env, metrics, _ = llm_run
    assert len(env.trace) == (
        metrics.n_completed + metrics.unfinished + metrics.timed_out
    )
    assert metrics.n_completed > 0


def test_llm_run_emits_valid_token_stages(llm_run):
    env, metrics, recorder = llm_run
    stages = [e for e in recorder.events if isinstance(e, TokenStage)]
    assert stages, "LLM run produced no token_stage events"
    for e in stages:
        assert validate_event(to_dict(e)) == []
        assert e.tokens_in >= 1 and e.tokens_out >= 1
        assert e.prefill > 0.0 and e.decode > 0.0
    # Work-dependent service: token totals vary across invocations.
    assert len({(e.tokens_in, e.tokens_out) for e in stages}) > 1


def test_llm_token_split_sums_to_stage_duration(llm_run):
    """prefill + decode is the stage's wall-clock execution time."""
    _, _, recorder = llm_run
    starts, finishes, stages = {}, {}, []
    for e in recorder.events:
        key = (getattr(e, "invocation_id", None), getattr(e, "function", None))
        if isinstance(e, StageStart):
            assert key not in starts
            starts[key] = e.t
        elif isinstance(e, StageFinish):
            finishes[key] = e.t
        elif isinstance(e, TokenStage):
            stages.append((key, e))
    assert stages
    for key, e in stages:
        duration = finishes[key] - starts[key]
        assert e.prefill + e.decode == pytest.approx(duration, rel=1e-9)


def test_llm_token_stages_cover_only_the_llm_function(llm_run):
    _, _, recorder = llm_run
    fns = {e.function for e in recorder.events if isinstance(e, TokenStage)}
    assert fns == {"LLM"}


def test_llm_trace_reconstructs_metrics(llm_run):
    _, metrics, recorder = llm_run
    rebuilt = aggregate(recorder.events)
    assert rebuilt.summary() == metrics.summary()
    assert rebuilt.swap_ins == metrics.swap_ins


# ------------------------------------------------------------------ swap
def test_swap_regime_swaps_and_reduces_cold_starts(swap_pair):
    swap, base, _, _ = swap_pair
    assert swap.swap_ins > 0
    cold_starts = swap.initializations - swap.swap_ins
    assert cold_starts < base.initializations
    assert base.swap_ins == 0


def test_swap_events_match_counter_and_reconstruct(swap_pair):
    swap, _, recorder, _ = swap_pair
    events = [e for e in recorder.events if isinstance(e, InstanceSwappedIn)]
    assert len(events) == swap.swap_ins
    for e in events:
        assert validate_event(to_dict(e)) == []
        assert e.swap_duration > 0.0
        assert e.config.startswith("gpu-")
    rebuilt = aggregate(recorder.events)
    assert rebuilt.swap_ins == swap.swap_ins
    assert rebuilt.summary() == swap.summary()


def test_swap_runs_conserve_invocations(swap_pair):
    swap, base, _, arrivals = swap_pair
    for m in (swap, base):
        assert m.n_completed + m.unfinished + m.timed_out == arrivals


def test_every_pack_event_is_schema_valid(llm_run, swap_pair):
    """Every event of both pack regimes, not only the regime-specific
    kinds, satisfies the published schema."""
    for recorder in (llm_run[2], swap_pair[2]):
        assert recorder.events
        for e in recorder.events:
            assert validate_event(to_dict(e)) == []


# ------------------------------------------------------- residency cache
def test_residency_cache_lru_semantics():
    cache = ModelResidencyCache(capacity_gb=10.0)
    assert cache.admit(("a", "f"), 4.0) == []
    assert cache.admit(("a", "g"), 4.0) == []
    assert cache.resident(("a", "f"))
    # Touch the older entry; the *other* one becomes the LRU victim.
    cache.touch(("a", "f"))
    evicted = cache.admit(("a", "h"), 4.0)
    assert evicted == [("a", "g")]
    assert cache.resident(("a", "f")) and cache.resident(("a", "h"))
    assert not cache.resident(("a", "g"))
    assert cache.used_gb == pytest.approx(8.0)


def test_residency_cache_never_admits_oversize_models():
    cache = ModelResidencyCache(capacity_gb=4.0)
    assert cache.admit(("a", "big"), 5.0) == []
    assert not cache.resident(("a", "big"))
    assert len(cache) == 0


def test_residency_cache_explicit_evict():
    cache = ModelResidencyCache(capacity_gb=8.0)
    cache.admit(("a", "f"), 3.0)
    assert cache.evict(("a", "f")) is True
    assert cache.evict(("a", "f")) is False
    assert cache.used_gb == 0.0


# ------------------------------------------------------- smiless lead
def test_smiless_init_lead_uses_swap_time_only_when_resident():
    env = build_environment(
        "image-query-swap", sla=1.0, duration=60.0, train_duration=900.0
    )
    policy = env.make_policy("smiless")
    fn = env.app.specs[0].name
    gpu = HardwareConfig.gpu(0.3)
    swap = policy.profiles[fn].swap_time(gpu)
    assert swap is not None
    plan = SimpleNamespace(config=gpu, init_time=swap + 5.0)
    resident = SimpleNamespace(model_resident=lambda f: True)
    absent = SimpleNamespace(model_resident=lambda f: False)
    assert policy._init_lead(fn, plan, resident) == swap
    assert policy._init_lead(fn, plan, absent) == plan.init_time
    # CPU plans never shorten: swap_time is None off-GPU.
    cpu_plan = SimpleNamespace(config=HardwareConfig.cpu(4), init_time=2.0)
    assert policy._init_lead(fn, cpu_plan, resident) == 2.0


def test_smiless_init_lead_identical_for_fixed_profiles():
    env = build_environment(
        "image-query", sla=1.0, duration=60.0, train_duration=900.0
    )
    policy = env.make_policy("smiless")
    fn = env.app.specs[0].name
    plan = SimpleNamespace(config=HardwareConfig.gpu(0.3), init_time=3.5)
    resident = SimpleNamespace(model_resident=lambda f: True)
    assert policy._init_lead(fn, plan, resident) == plan.init_time
