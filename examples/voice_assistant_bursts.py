"""Voice Assistant (Fig. 7 WL3) under bursty traffic: watch the Auto-scaler.

Replays a bursty trace and prints, per second, the arrival count alongside
the live CPU/GPU pod counts — the Fig. 14 view of SMIless tracking load —
followed by the burst-window cost/violation comparison of Fig. 15.

Run:  python examples/voice_assistant_bursts.py
"""

import numpy as np

from repro.dag import voice_assistant
from repro.policies import GrandSLAmPolicy, OrionPolicy, SMIlessPolicy
from repro.profiler import OfflineProfiler
from repro.simulator import Runtime
from repro.workload import AzureLikeWorkload


def main() -> None:
    app = voice_assistant(sla=2.0)
    profiles = OfflineProfiler().profile_app(app, rng=1)
    workload = AzureLikeWorkload.preset("bursty", seed=6)
    train_counts = workload.generate(3600.0).counts_per_window(1.0)
    trace = AzureLikeWorkload.preset("bursty", seed=9).generate(600.0)

    policy = SMIlessPolicy(profiles, train_counts=train_counts, seed=0)
    rt = Runtime()
    rt.add_app(app, trace, policy, seed=3)
    metrics = rt.run()[app.name]

    pods = metrics.pods_over_time()
    arrivals = metrics.arrivals_over_time()
    # find the busiest 60-second window (the paper samples one such window)
    counts = arrivals[:, 1]
    window = 60
    sums = np.convolve(counts, np.ones(window), mode="valid")
    peak = int(np.argmax(counts))
    start = max(0, peak - 10)
    print(f"Busiest 60s window starts at t={start}s "
          f"({int(sums[min(start, len(sums) - 1)])} invocations)\n")
    print(f"{'t':>5} {'arrivals':>9} {'cpu pods':>9} {'gpu pods':>9}")
    for k in range(start, min(start + 60, len(counts)), 2):
        print(f"{arrivals[k, 0]:>5.0f} {int(arrivals[k, 1]):>9} "
              f"{int(pods[k, 1]):>9} {int(pods[k, 2]):>9}")

    in_burst = slice(start, start + window)
    calm = counts.copy()
    calm[in_burst] = 0
    print(f"\nCPU:GPU pod ratio — burst window: "
          f"{pods[in_burst, 1].sum() / max(pods[in_burst, 2].sum(), 1):.1f}, "
          f"whole run: {pods[:, 1].sum() / max(pods[:, 2].sum(), 1):.1f}")

    print("\nBurst-handling comparison (Fig. 15):")
    print(f"{'policy':<12} {'cost':>9} {'violations':>11}")
    for p in (
        SMIlessPolicy(profiles, train_counts=train_counts, seed=0),
        OrionPolicy(profiles),
        GrandSLAmPolicy(profiles),
    ):
        rt = Runtime()
        rt.add_app(app, trace, p, seed=3)
        m = rt.run()[app.name]
        print(f"{p.name:<12} ${m.total_cost():>8.4f} {m.violation_ratio():>10.1%}")


if __name__ == "__main__":
    main()
