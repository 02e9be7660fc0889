"""Quickstart: serve one application with SMIless and read the bill.

Walks the full pipeline on the paper's Image Query workload (Fig. 7 WL2):

1. build the application DAG,
2. run the Offline Profiler to learn per-function latency/init models,
3. synthesize an Azure-like invocation trace,
4. serve the trace on the simulated cluster under the SMIless policy,
5. print cost, latency and SLA statistics.

Run:  python examples/quickstart.py
"""

from repro.dag import image_query
from repro.policies import SMIlessPolicy
from repro.profiler import OfflineProfiler
from repro.simulator import Runtime
from repro.workload import AzureLikeWorkload


def main() -> None:
    # 1. The application: IR -> {DB, TM} -> TG, SLA 2 s end-to-end.
    app = image_query(sla=2.0)
    print(f"Application: {app.name}, {len(app)} functions, SLA {app.sla}s")
    for fn in app:
        succ = ", ".join(app.successors(fn)) or "-"
        print(f"  {fn:4s} -> {succ}")

    # 2. Offline profiling (25 CPU + 50 GPU samples per function, §IV-A).
    profiler = OfflineProfiler()
    profiles = profiler.profile_app(app, rng=1)
    plan = profiler.plan
    samples = len(plan.cpu_grid()) + len(plan.gpu_grid())
    print(f"\nProfiled {len(profiles)} functions "
          f"({samples} inference samples each)")

    # 3. A 10-minute Azure-like trace plus an hour of training history.
    workload = AzureLikeWorkload.preset("steady", seed=6)
    train_counts = workload.generate(3600.0).counts_per_window(1.0)
    trace = AzureLikeWorkload.preset("steady", seed=7).generate(600.0)
    print(f"\nWorkload: {len(trace)} invocations over {trace.duration:.0f}s "
          f"(mean gap {trace.inter_arrival_times().mean():.1f}s)")

    # 4. Serve under SMIless (LSTM predictors trained on the history).
    policy = SMIlessPolicy(profiles, train_counts=train_counts, seed=0)
    rt = Runtime()
    rt.add_app(app, trace, policy, seed=3)
    metrics = rt.run()[app.name]

    # 5. Results.
    assert policy.strategy is not None
    print("\nChosen execution strategy (per function):")
    for fn in app.function_names:
        plan = policy.strategy.plan(fn)
        print(
            f"  {fn:4s} {plan.config.key:7s} {plan.policy.value:10s} "
            f"T={plan.init_time:.2f}s I={plan.inference_time:.2f}s"
        )

    s = metrics.summary()
    breakdown = metrics.cost_breakdown()
    print(f"\nTotal cost          ${s['total_cost']:.4f}")
    print(f"  initialization    ${breakdown['init']:.4f}")
    print(f"  inference         ${breakdown['inference']:.4f}")
    print(f"  keep-alive idle   ${breakdown['keepalive']:.4f}")
    print(f"Mean E2E latency    {s['mean_latency']:.2f}s (p99 {s['p99_latency']:.2f}s)")
    print(f"SLA violations      {s['violation_ratio']:.1%}")
    print(f"Cold (re)inits      {s['reinit_fraction']:.1%} of stage executions")


if __name__ == "__main__":
    main()
