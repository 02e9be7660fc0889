"""Zero-cost set-up: a run pays only for the components it uses.

Pins two rules, each in a fresh interpreter so ``sys.modules`` and the
predictor cache start empty:

- the offline entry points import no SciPy; only an Aquatope policy that
  actually tunes loads it (through :mod:`repro.bayesopt`);
- building an environment trains no predictor; the LSTMs are trained,
  once per training series, by the policy that consumes ``train_counts``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_python(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


PRELUDE = """\
import json, sys
from repro.experiments import build_environment
from repro.policies import smiless
env = build_environment(
    "image-query", preset="steady", sla=2.0,
    duration=60.0, train_duration=300.0, seed=0,
)

def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
"""


def test_offline_imports_load_no_scipy():
    out = run_python(
        "import json, sys\n"
        "import repro.cli, repro.experiments, repro.simulator\n"
        "import repro.serving, repro.sharding\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    assert out == []


def test_only_predictor_consuming_policies_train():
    out = run_python(
        PRELUDE
        + """
after_env = len(smiless._PREDICTOR_CACHE)
for name in ("grandslam", "orion", "icebreaker"):
    env.make_policy(name)
after_baselines = len(smiless._PREDICTOR_CACHE)
policy = env.make_policy("smiless")
kinds = sorted(key[0] for key in smiless._PREDICTOR_CACHE)
env.make_policy("smiless")
print(json.dumps({
    "after_env": after_env,
    "after_baselines": after_baselines,
    "kinds": kinds,
    "after_second_smiless": len(smiless._PREDICTOR_CACHE),
    "trained": [
        policy.invocation_predictor is not None,
        policy.interarrival_predictor is not None,
    ],
    "scipy": scipy_loaded(),
}))
"""
    )
    assert out["after_env"] == 0
    assert out["after_baselines"] == 0
    assert out["kinds"] == ["interarrival", "invocation"]
    # A second policy on the same training series is a cache hit.
    assert out["after_second_smiless"] == 2
    assert out["trained"] == [True, True]
    assert out["scipy"] is False


def test_aquatope_loads_bayesopt_on_demand():
    out = run_python(
        PRELUDE
        + """
policy = env.make_policy("aquatope")
before = scipy_loaded()
assignment = {fn: str(c) for fn, c in policy.tune(env.app).items()}
print(json.dumps({
    "before": before,
    "after": scipy_loaded(),
    "assignment": assignment,
}))
"""
    )
    assert out["before"] is False
    assert out["after"] is True
    # The assignment the BO loop returned while repro.bayesopt was still
    # imported at module load.
    assert out["assignment"] == {
        "DB": "cpu-1",
        "IR": "cpu-2",
        "TG": "cpu-16",
        "TM": "cpu-4",
    }
