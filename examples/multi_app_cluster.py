"""Co-running all three Fig. 7 applications on one shared cluster (§VII-A).

The paper's evaluation drives a dedicated load generator per application,
all against the same 8-machine cluster.  This example reproduces that
setting with one co-run cell (:class:`~repro.experiments.MultiAppCellSpec`):
a single simulated clock and a shared capacity pool, so one application's
fleet pressure is visible to the others.  Each app brings its own workload
preset and environment seed, which is what a cell's ``EnvSpec`` states.

Run:  python examples/multi_app_cluster.py
"""

from repro.experiments import EnvSpec, MultiAppCellSpec, run_grid

PRESETS = {
    "amber-alert": "steady",
    "image-query": "diurnal",
    "voice-assistant": "steady",
}


def main() -> None:
    envs = tuple(
        EnvSpec(
            app=name,
            preset=preset,
            duration=400.0,
            train_duration=1800.0,
            seed=60 + i,
        )
        for i, (name, preset) in enumerate(PRESETS.items())
    )
    policies = ("smiless", "grandslam")
    results = run_grid([MultiAppCellSpec(envs=envs, policy=p) for p in policies])
    total_invocations = sum(x["arrivals"] for x in results[0].extras.values())
    print(
        f"Co-running {len(envs)} applications "
        f"({total_invocations} invocations total) on one 8-machine cluster\n"
    )

    for policy, res in zip(policies, results):
        total = sum(s["total_cost"] for s in res.summary.values())
        print(f"[{policy}]  cluster bill ${total:.4f}")
        for name, s in res.summary.items():
            print(
                f"  {name:<16} ${s['total_cost']:.4f} "
                f"viol={s['violation_ratio']:.1%} "
                f"mean lat={s['mean_latency']:.2f}s"
            )
        print()


if __name__ == "__main__":
    main()
