"""Zero-cost rule: the offline stack never loads ``repro.serving``.

The serving façade sits strictly above the simulator/experiments layers.
These tests pin that (a) importing every offline entry point — including
the CLI, whose ``serve`` subcommand lazy-imports the package — pulls in
no serving module, and (b) a simulation's summary is byte-identical
whether or not ``repro.serving`` was imported first, i.e. the package
cannot perturb offline results even when present.
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
    return proc.stdout


def test_offline_imports_never_load_serving():
    out = run_python(
        "import sys\n"
        "import repro.cli, repro.simulator, repro.experiments\n"
        "import repro.workload, repro.telemetry, repro.overload\n"
        "serving = [m for m in sys.modules if m.startswith('repro.serving')]\n"
        "print(serving)\n"
    )
    assert out.strip() == "[]"


SIM_SNIPPET = """\
import json, sys
{prelude}
from repro.experiments import build_environment
from repro.simulator import Runtime
env = build_environment(
    "image-query", preset="steady", sla=2.0,
    duration=60.0, train_duration=300.0, seed=0,
)
rt = Runtime()
rt.add_app(env.app, env.trace, env.make_policy("smiless"), seed=3)
metrics = rt.run()[env.app.name]
loaded = any(m.startswith("repro.serving") for m in sys.modules)
assert loaded == {expect_loaded}, sorted(sys.modules)
print(json.dumps(metrics.summary(), sort_keys=True))
"""


def test_summaries_byte_identical_with_and_without_serving():
    without = run_python(
        SIM_SNIPPET.format(prelude="", expect_loaded=False)
    )
    with_serving = run_python(
        SIM_SNIPPET.format(prelude="import repro.serving", expect_loaded=True)
    )
    assert without == with_serving
    summary = json.loads(without)
    assert summary["invocations"] > 0
