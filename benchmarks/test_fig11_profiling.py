"""Fig. 11 — offline profiling results.

(a) the influence of the initialization-time measurement: planning with the
    plain mean makes pre-warms chronically late (the paper measures a 34 %
    SLA violation ratio), while the robust mu + 3*sigma estimate avoids
    the violations at slightly earlier warm-ups;
(b) the accuracy of the fitted inference-time models: SMAPE below 20 % per
    function, below ~8 % on average, with GPU fits more precise than CPU
    fits (§VII-C1).
"""

import numpy as np
from conftest import emit

from repro.dag.models import MODEL_REGISTRY
from repro.hardware import GroundTruthPerformance, HardwareConfig
from repro.policies import SMIlessPolicy
from repro.profiler import OfflineProfiler, smape
from repro.simulator import Runtime


def fig11a(setup):
    """Violation ratio with mean vs robust init estimates.

    ``prewarm_safety`` is disabled so warm-up timing depends *only* on the
    initialization estimate, isolating the measurement-policy effect: with
    the plain mean, roughly half of all initializations finish after their
    scheduled readiness and land on the critical path.
    """
    out = {}
    for label, n_sigma in (("mean (n=0)", 0.0), ("mu+1s", 1.0), ("mu+3s", 3.0)):
        profiles = {
            fn: p.with_n_sigma(n_sigma) for fn, p in setup.profiles.items()
        }
        policy = SMIlessPolicy(
            profiles,
            invocation_predictor=setup.invocation_predictor,
            interarrival_predictor=setup.interarrival_predictor,
            prewarm_safety=0.0,
            seed=0,
        )
        rt = Runtime()
        rt.add_app(setup.app, setup.trace, policy, seed=3)
        m = rt.run()[setup.app.name]
        out[label] = m.violation_ratio()
    return out


def fig11b():
    """Per-function SMAPE of the fitted latency models, CPU vs GPU."""
    profiler = OfflineProfiler()
    rows = {}
    rng = np.random.default_rng(0)
    for name, info in MODEL_REGISTRY.items():
        oracle = GroundTruthPerformance(info.profile, rng=int(rng.integers(2**31)))
        fitted = profiler.profile_function(name, oracle)
        cpu_cfgs = [HardwareConfig.cpu(c) for c in (1, 2, 4, 8, 16)]
        gpu_cfgs = [HardwareConfig.gpu(k / 10) for k in range(1, 11)]
        batches = (1, 2, 4, 8)
        def err(cfgs):
            actual, pred = [], []
            for cfg in cfgs:
                for b in batches:
                    actual.append(info.profile.expected_inference_time(cfg, b))
                    pred.append(fitted.inference_time(cfg, b))
            return smape(np.array(actual), np.array(pred))
        rows[name] = (err(cpu_cfgs), err(gpu_cfgs))
    return rows


def regenerate(setup):
    viol = fig11a(setup)
    errors = fig11b()
    lines = ["Fig. 11a — SLA violation ratio vs init-time measurement"]
    for label, v in viol.items():
        lines.append(f"  {label:<11} {v:>6.1%}")
    lines.append("  (paper: mean -> 34%, mu+3sigma -> 0%)")
    lines.append("\nFig. 11b — SMAPE of fitted inference-time models (%)")
    lines.append(f"{'model':>6} {'cpu':>7} {'gpu':>7}")
    for name, (cpu_err, gpu_err) in errors.items():
        lines.append(f"{name:>6} {cpu_err:>6.1f}% {gpu_err:>6.1f}%")
    cpu_mean = np.mean([e[0] for e in errors.values()])
    gpu_mean = np.mean([e[1] for e in errors.values()])
    lines.append(f"{'mean':>6} {cpu_mean:>6.1f}% {gpu_mean:>6.1f}%")
    lines.append("  (paper: every function <20%, average <8%, GPU more precise)")
    return "\n".join(lines), viol, errors


def test_fig11_profiling(benchmark, setups):
    setup = setups["amber-alert"]
    text, viol, errors = benchmark.pedantic(
        regenerate, args=(setup,), rounds=1, iterations=1
    )
    emit("fig11_profiling", text)
    # (a) robust estimation removes most violations the mean causes
    assert viol["mu+3s"] < viol["mean (n=0)"]
    assert viol["mu+3s"] < 0.15
    # (b) the paper's accuracy targets
    for name, (cpu_err, gpu_err) in errors.items():
        assert cpu_err < 20.0, name
        assert gpu_err < 20.0, name
    assert np.mean([e[1] for e in errors.values()]) < np.mean(
        [e[0] for e in errors.values()]
    )
    assert np.mean([e for pair in errors.values() for e in pair]) < 8.0
