"""Golden determinism regression for the hot-path refactor.

The indexed pools, streamed arrivals, cancellable timers and memoized
performance models are pure optimizations: they must not change any
simulated outcome.  These goldens were captured from the pre-optimization
engine (flat instance lists, pre-pushed arrivals, epoch-checked expiry
closures, unmemoized models) on a fixed seed; exact equality guards the
whole refactor, bit for bit.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments import build_environment
from repro.predictor.interarrival import InterArrivalPredictor, gaps_from_counts
from repro.predictor.invocation import InvocationPredictor
from repro.simulator import Runtime
from repro.telemetry.audit import format_decision_audit
from repro.telemetry.recorder import TraceRecorder, write_jsonl

GOLDEN = {
    "smiless": {
        "total_cost": 0.021234276514211513,
        "violation_ratio": 0.0625,
        "invocations": 32.0,
        "mean_latency": 1.8374996431873079,
        "p50_latency": 1.7217652206835865,
        "p99_latency": 4.176380256244681,
        "reinit_fraction": 0.0234375,
        "cpu_cost": 0.009589276514211511,
        "gpu_cost": 0.011645000000000003,
        "availability": 1.0,
        "goodput": 0.9375,
    },
    "grandslam": {
        "total_cost": 0.04533333333333334,
        "violation_ratio": 0.0,
        "invocations": 32.0,
        "mean_latency": 1.1689839044284174,
        "p50_latency": 1.1668884110355293,
        "p99_latency": 1.3531786860133097,
        "reinit_fraction": 0.0,
        "cpu_cost": 0.04533333333333334,
        "gpu_cost": 0,
        "availability": 1.0,
        "goodput": 1.0,
    },
}


# Captured from the pre-optimization policy path (before prediction
# caching, vectorized co-optimization and directive reuse): a second
# smiless cell on a different app, plus full-trace and decision-audit
# digests of a *traced* image-query run.  The optimizations must leave
# metrics, traces and audits byte-identical.
SMILESS_AMBER_GOLDEN = {
    "total_cost": 0.04962998161721614,
    "violation_ratio": 0.0625,
    "invocations": 32.0,
    "mean_latency": 1.946881771898577,
    "p50_latency": 1.8418977967539973,
    "p99_latency": 4.245052596596203,
    "reinit_fraction": 0.020833333333333332,
    "cpu_cost": 0.02633998161721614,
    "gpu_cost": 0.023290000000000005,
    "availability": 1.0,
    "goodput": 0.9375,
}
SMILESS_TRACE_DIGEST = "882cb77403c038ffac378cc2058aa98f"
SMILESS_AUDIT_DIGEST = "966f317ac4fa2d476dbb37b004e32364"
SMILESS_TRACE_EVENTS = 1038


@pytest.fixture(scope="module")
def environment():
    return build_environment(
        "image-query", preset="steady", sla=2.0, duration=150.0, seed=0
    )


@pytest.mark.parametrize("policy", sorted(GOLDEN))
def test_summary_bit_identical_to_pre_refactor_engine(environment, policy):
    env = environment
    rt = Runtime()
    rt.add_app(env.app, env.trace, env.make_policy(policy), seed=3)
    metrics = rt.run()[env.app.name]
    summary = metrics.summary()
    assert summary == GOLDEN[policy]


def test_back_to_back_runs_identical(environment):
    """Memo caches warmed by a first run must not perturb a second one."""
    env = environment

    def one_run():
        rt = Runtime()
        rt.add_app(env.app, env.trace, env.make_policy("smiless"), seed=3)
        return rt.run()[env.app.name].summary()

    assert one_run() == one_run()


def test_smiless_amber_summary_bit_identical():
    """Second-app smiless golden pinned before the policy-path optimization."""
    env = build_environment(
        "amber-alert", preset="steady", sla=2.0, duration=150.0, seed=0
    )
    rt = Runtime()
    rt.add_app(env.app, env.trace, env.make_policy("smiless"), seed=3)
    summary = rt.run()[env.app.name].summary()
    assert summary == SMILESS_AMBER_GOLDEN


def test_smiless_trace_and_audit_digests_bit_identical(environment, tmp_path):
    """Traced runs must re-emit the exact pre-optimization event stream.

    The policy issues every directive the same way whether or not a
    recorder is attached, so the JSONL trace and the decision-audit
    rendering of a recorded run pin the full ``DirectiveChanged`` churn
    byte for byte — and, with it, the decisions of untraced runs.
    """
    env = environment
    rec = TraceRecorder()
    rt = Runtime(recorder=rec)
    rt.add_app(env.app, env.trace, env.make_policy("smiless"), seed=3)
    rt.run()
    path = tmp_path / "trace.jsonl"
    write_jsonl(rec.events, path)
    trace_digest = hashlib.blake2b(
        path.read_bytes(), digest_size=16
    ).hexdigest()
    audit_digest = hashlib.blake2b(
        format_decision_audit(rec.events).encode(), digest_size=16
    ).hexdigest()
    assert len(rec.events) == SMILESS_TRACE_EVENTS
    assert trace_digest == SMILESS_TRACE_DIGEST
    assert audit_digest == SMILESS_AUDIT_DIGEST


def _random_history(rng: np.random.Generator) -> np.ndarray:
    """Counts with quiet stretches, long zero runs and bursts."""
    parts = []
    while sum(p.size for p in parts) < 240:
        kind = rng.integers(3)
        size = int(rng.integers(5, 60))
        if kind == 0:
            parts.append(np.zeros(size, dtype=np.int64))
        elif kind == 1:
            parts.append(rng.poisson(rng.uniform(0.2, 2.0), size=size))
        else:
            parts.append(rng.poisson(rng.uniform(8.0, 30.0), size=min(size, 12)))
    return np.concatenate(parts)


def test_predictor_stream_bit_identical_to_one_shot_on_every_window():
    """Streamed and one-shot predictions agree bitwise on every window.

    Each seeded history is grown one window at a time (sometimes by a
    jump longer than the LSTM window, and starting shorter than it), the
    way a run's count history grows; every prefix is predicted both from
    a run stream and by a fresh one-shot forward.
    """
    rng = np.random.default_rng(42)
    train = rng.poisson(0.8, size=900)
    inv = InvocationPredictor(
        bucket_size=1, n_buckets=16, epochs=2, seed=0
    ).fit(train)
    duals = [
        InterArrivalPredictor(epochs=2, seed=0).fit(train),
        InterArrivalPredictor(dual_input=False, epochs=2, seed=0).fit(train),
    ]
    checked = {"inv": 0, "dual": 0, "single": 0}
    for _ in range(8):
        hist = _random_history(rng)
        inv_stream = inv.stream()
        it_streams = [p.stream() for p in duals]
        n = int(rng.integers(1, inv.window))  # start shorter than the window
        while n <= hist.size:
            prefix = hist[:n]
            if n < inv.window:
                with pytest.raises(ValueError):
                    inv.predict_next(prefix, stream=inv_stream)
            else:
                assert inv.predict_next(prefix, stream=inv_stream) == (
                    inv.predict_next(prefix)
                )
                checked["inv"] += 1
            gaps = gaps_from_counts(prefix)
            for p, stream, key in zip(duals, it_streams, ("dual", "single")):
                if gaps.size >= p.gap_window and n >= p.count_window:
                    got = p.predict_next(gaps, prefix, stream=stream)
                    assert got == p.predict_next(gaps, prefix)
                    checked[key] += 1
            n += 1 if rng.random() < 0.9 else int(rng.integers(2, 45))
    # The generator must exercise every LSTM path on many windows.
    assert min(checked.values()) >= 400, checked
