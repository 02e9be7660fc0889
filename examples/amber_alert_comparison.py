"""AMBER Alert (Fig. 7 WL1): SMIless against the baseline systems.

Serves the six-function emergency-alert pipeline under five schedulers and
prints the cost / SLA trade-off table of the paper's §VII-B evaluation.

Run:  python examples/amber_alert_comparison.py
"""

from repro.dag import amber_alert
from repro.policies import (
    GrandSLAmPolicy,
    IceBreakerPolicy,
    OptimalPolicy,
    OrionPolicy,
    SMIlessPolicy,
)
from repro.profiler import OfflineProfiler, oracle_profile
from repro.simulator import Runtime
from repro.workload import AzureLikeWorkload


def main() -> None:
    app = amber_alert(sla=2.0)
    profiles = OfflineProfiler().profile_app(app, rng=1)
    oracle = {s.name: oracle_profile(s.profile, n_sigma=1.0) for s in app.specs}

    workload = AzureLikeWorkload.preset("steady", seed=6)
    train_counts = workload.generate(3600.0).counts_per_window(1.0)
    trace = AzureLikeWorkload.preset("steady", seed=7).generate(600.0)

    policies = [
        SMIlessPolicy(profiles, train_counts=train_counts, seed=0),
        OrionPolicy(profiles),
        IceBreakerPolicy(profiles, train_counts=train_counts),
        GrandSLAmPolicy(profiles),
        OptimalPolicy(oracle, trace),
    ]

    print(f"{app.name}: {len(trace)} invocations over {trace.duration:.0f}s, "
          f"SLA {app.sla}s\n")
    print(f"{'policy':<12} {'cost':>9} {'violations':>11} {'mean lat':>9} "
          f"{'reinit':>7} {'cpu$':>8} {'gpu$':>8}")
    rows = []
    for policy in policies:
        rt = Runtime()
        rt.add_app(app, trace, policy, seed=3)
        metrics = rt.run()[app.name]
        s = metrics.summary()
        rows.append((policy.name, s))
        print(
            f"{policy.name:<12} ${s['total_cost']:>8.4f} "
            f"{s['violation_ratio']:>10.1%} {s['mean_latency']:>8.2f}s "
            f"{s['reinit_fraction']:>6.1%} ${s['cpu_cost']:>7.4f} "
            f"${s['gpu_cost']:>7.4f}"
        )

    smiless_cost = dict(rows)["smiless"]["total_cost"]
    print("\nCost relative to SMIless:")
    for name, s in rows:
        print(f"  {name:<12} {s['total_cost'] / smiless_cost:5.2f}x")


if __name__ == "__main__":
    main()
