"""Fig. 10 — total cost and violation ratio under different SLA settings.

Sweeps the SLA target and re-serves the Image Query trace under each
system.  Paper shapes:

- SMIless keeps the lowest cost with no (here: near-no) violations at every
  SLA setting, and its cost stays *stable* because the path search only
  updates a few functions' configurations when the SLA changes;
- Orion benefits most from lenient SLAs (beyond ~5 s its gap to SMIless
  narrows to ~2x) but violates heavily at tight ones.
"""

import numpy as np
from conftest import emit

from repro.simulator import Runtime

SLAS = (1.0, 1.5, 2.0, 3.0, 5.0, 8.0)
POLICIES = ("smiless", "orion", "grandslam", "aquatope")


def regenerate(setup):
    rows: dict[str, list[tuple[float, float]]] = {p: [] for p in POLICIES}
    for sla in SLAS:
        app = setup.app.with_sla(sla)
        for policy in POLICIES:
            rt = Runtime()
            rt.add_app(app, setup.trace, setup.make_policy(policy), seed=3)
            m = rt.run()[app.name]
            rows[policy].append((m.total_cost(), m.violation_ratio()))
    lines = ["Fig. 10 — cost / violation ratio vs SLA (image-query)"]
    header = f"{'policy':<12}" + "".join(f" {f'SLA {s:g}s':>15}" for s in SLAS)
    lines.append(header)
    for policy in POLICIES:
        cells = "".join(
            f" {f'${c:.3f}/{v:.0%}':>15}" for c, v in rows[policy]
        )
        lines.append(f"{policy:<12}{cells}")
    return "\n".join(lines), rows


def test_fig10_sla_sweep(benchmark, setups):
    setup = setups["image-query"]
    text, rows = benchmark.pedantic(
        regenerate, args=(setup,), rounds=1, iterations=1
    )
    emit("fig10_sla_sweep", text)
    smiless = rows["smiless"]
    # SMIless: low violations at every SLA setting (paper: none).
    assert all(v < 0.12 for _, v in smiless)
    # Cost decreases monotonically (within noise) as the SLA relaxes.
    costs = np.array([c for c, _ in smiless])
    assert all(
        later <= earlier * 1.1 for earlier, later in zip(costs, costs[1:])
    )
    # SMIless undercuts the other violation-free system at every setting.
    for (c_s, _), (c_g, v_g) in zip(smiless, rows["grandslam"]):
        if v_g < 0.05:
            assert c_s < c_g
    # Orion violates heavily at every SLA setting relative to SMIless
    # (paper Fig. 10b: Orion ~40 % at the default SLA).
    for (_, v_s), (_, v_o) in zip(smiless, rows["orion"]):
        assert v_o > 3 * v_s
