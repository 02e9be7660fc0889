"""Fig. 13 — the advantage of co-optimization (§VII-C3 ablations).

- SMIless-No-DAG disregards the DAG (per-function SLA shares, simultaneous
  warm-up): the paper measures +39 % cost over full SMIless;
- SMIless-Homo restricts configurations to CPU backends: under tight SLAs
  the violation ratio climbs (paper: up to 22 %).
"""

from conftest import emit

from repro.policies import SMIlessHomoPolicy, SMIlessNoDagPolicy, SMIlessPolicy
from repro.simulator import Runtime


def run(setup, policy_cls, *, sla=None, **kw):
    app = setup.app if sla is None else setup.app.with_sla(sla)
    policy = policy_cls(
        setup.profiles,
        invocation_predictor=setup.invocation_predictor,
        interarrival_predictor=setup.interarrival_predictor,
        seed=0,
        **kw,
    )
    rt = Runtime()
    rt.add_app(app, setup.trace, policy, seed=3)
    return rt.run()[app.name]


def regenerate(setups):
    lines = ["Fig. 13 — co-optimization ablations"]
    lines.append("\n(a) cost: SMIless vs SMIless-No-DAG (per app)")
    overheads = {}
    for app_name in ("amber-alert", "image-query"):
        setup = setups[app_name]
        full = run(setup, SMIlessPolicy)
        nodag = run(setup, SMIlessNoDagPolicy)
        overheads[app_name] = nodag.total_cost() / full.total_cost() - 1
        lines.append(
            f"  {app_name:<16} smiless=${full.total_cost():.4f} "
            f"no-dag=${nodag.total_cost():.4f} (+{overheads[app_name]:.0%})"
        )
    lines.append("  (paper: No-DAG costs +39%)")

    lines.append("\n(b) violations: SMIless vs SMIless-Homo at a tight SLA")
    homo_viol = {}
    for app_name, sla in (("image-query", 0.6), ("amber-alert", 0.8)):
        setup = setups[app_name]
        full = run(setup, SMIlessPolicy, sla=sla)
        homo = run(setup, SMIlessHomoPolicy, sla=sla)
        homo_viol[app_name] = (full.violation_ratio(), homo.violation_ratio())
        lines.append(
            f"  {app_name:<16} SLA={sla}s smiless={full.violation_ratio():.1%} "
            f"homo={homo.violation_ratio():.1%}"
        )
    lines.append("  (paper: Homo violates up to 22%)")
    return "\n".join(lines), overheads, homo_viol


def test_fig13_ablation(benchmark, setups):
    text, overheads, homo_viol = benchmark.pedantic(
        regenerate, args=(setups,), rounds=1, iterations=1
    )
    emit("fig13_ablation", text)
    # (a) ignoring the DAG always costs extra; the more parallel structure
    # the application has, the bigger the penalty (paper: +39 % overall)
    for app_name, overhead in overheads.items():
        assert overhead > 0.05, app_name
    assert max(overheads.values()) > 0.30
    # (b) at tight SLAs the CPU-only variant violates far more
    for app_name, (full_v, homo_v) in homo_viol.items():
        assert homo_v > full_v, app_name
        assert homo_v > 0.2, app_name
