"""Repo benchmark: run one workload in fresh processes and report metrics.

    python3 perfbench/run.py --workload corun-flood-grandslam --seed 1 \
        --seconds 20 --trace 0

Run from the repository root.  Each rep is a new Python process
(``rep.py``), because the program's environment and predictor caches
live inside one process and a user pays them on every invocation.  Reps
repeat until ``--seconds`` have passed (at least three); host-time
metrics are medians over reps.  ``--trace 1`` adds one rep with the
benchmark's layer spans attached (and, for co-runs, one with a
telemetry recorder) and reports the per-layer metrics instead.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``).  The
lines before it print every metric with its unit, the per-layer
self-time table, output checks and provenance.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import layer_of  # noqa: E402
from workloads import APPS, WORKLOADS  # noqa: E402

MIN_REPS = 4
MAX_REPS = 8
#: Wall budget of one invocation; reps stop starting well before it.
BUDGET_S = 170.0


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest(root: Path) -> str:
    """SHA-256 over the program's sources (identifies code without git)."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_rep(root: Path, workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Start one rep process, wait for it, parse its result line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [
            sys.executable, str(HERE / "rep.py"),
            "--workload", workload, "--seed", str(seed),
            "--mode", mode, "--spawned-at", repr(spawned),
        ],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{workload} {mode} rep exceeded the {BUDGET_S:.0f}s budget")
    if proc.returncode != 0:
        fail(f"{workload} {mode} rep exited with code {proc.returncode}")
    rep = json.loads(stdout.strip().splitlines()[-1])
    marks = rep["marks"]
    rep["setup_s"] = marks["setup_done"] - marks["spawned"]
    rep["wall_s"] = marks["results"] - marks["spawned"]
    return rep


def pooled_quantile(values: list[float], q: int) -> float:
    """Linearly interpolated percentile (NumPy's default method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(reps: list[dict]) -> dict[str, float]:
    med = lambda key: statistics.median(r[key] for r in reps)  # noqa: E731
    sim = lambda key: statistics.median(r["sim"][key] for r in reps)  # noqa: E731
    attempted = sum(r["attempted"] for r in reps)
    # Serve reps differ (pacing follows host timing): pool their simulated
    # latencies.  Co-run reps are identical, so any rep's value is the value.
    pooled = [x for r in reps for x in r.get("sim_latencies_s", ())]
    if pooled:
        p50, p99 = pooled_quantile(pooled, 50), pooled_quantile(pooled, 99)
    else:
        p50, p99 = sim("p50_latency_s"), sim("p99_latency_s")
    return {
        "setup_s": med("setup_s"),
        "wall_s": med("wall_s"),
        "peak_rss_mb": med("rss_mb"),
        "completion_ratio": sum(r["ok"] for r in reps) / attempted,
        "sim_invocations_per_s": statistics.median(
            r["resolved"] / r["run_s"] for r in reps
        ),
        "sim_cost_usd": sim("cost_usd"),
        "sim_slo_miss_ratio": sim("slo_miss_ratio"),
        "sim_p50_latency_s": p50,
        "sim_p99_latency_s": p99,
    }


def per_layer(reps: list[dict], traced: dict, telemetry: dict | None) -> dict[str, float]:
    spans = traced["spans"]

    def name_stat(name: str, stat: str) -> float:
        return spans[name][stat] if name in spans else 0

    def layer_stat(layer: str, stat: str) -> float:
        return sum(v[stat] for n, v in spans.items() if layer_of(n) == layer)

    base = reps[0]
    counts = base["counts"]
    latencies = [x for r in reps for x in r.get("latencies_s", ())]
    requests = len(latencies)
    serve_s = sum(r["run_s"] for r in reps) if requests else 0.0
    traced_requests = len(traced.get("latencies_s", ()))
    driver_s = name_stat("serving.submit", "outer_s") + name_stat("serving.advance", "outer_s")
    tel = telemetry["telemetry"] if telemetry else {}
    attempted = sum(r["attempted"] for r in reps)
    return {
        "import.s": traced["import_s"],
        "profiler.profile_app.s": name_stat("profiler.profile_app", "total_s"),
        "workload.generate.s": name_stat("workload.generate", "total_s"),
        "predictor.pretrain.s": name_stat("predictor.pretrain", "total_s"),
        "simulator.run.s": name_stat("simulator.run", "total_s"),
        "simulator.self.s": name_stat("simulator.run", "self_s"),
        "simulator.events": base["events"],
        "simulator.events_per_invocation": base["events"] / base["attempted"],
        "simulator.initializations": counts["initializations"],
        "pools.calls": layer_stat("pools", "calls"),
        "pools.s": layer_stat("pools", "outer_s"),
        "hardware.calls": layer_stat("hardware", "calls"),
        "hardware.s": layer_stat("hardware", "outer_s"),
        **{
            f"policies.{hook}.{stat}": name_stat(
                f"policies.{hook}", "calls" if stat == "calls" else "total_s"
            )
            for hook in ("on_window", "on_arrival", "on_stage_complete")
            for stat in ("calls", "s")
        },
        "core.optimize.calls": name_stat("core.optimize", "calls"),
        "core.optimize.s": name_stat("core.optimize", "outer_s"),
        "core.autoscale.s": name_stat("core.autoscale", "total_s"),
        "predictor.predict.calls": name_stat("predictor.predict", "calls"),
        "predictor.predict.s": name_stat("predictor.predict", "total_s"),
        "metrics.finalize.s": name_stat("metrics.finalize", "total_s"),
        "faults.timed_out": counts["timed_out"],
        "overload.shed": counts["shed"],
        "overload.rejected": counts["rejected"],
        "overload.peak_queue_depth": counts["peak_queue_depth"],
        "serving.submit.calls": name_stat("serving.submit", "calls"),
        "serving.submit.s": name_stat("serving.submit", "total_s"),
        "serving.advance.s": name_stat("serving.advance", "total_s"),
        "serving.http_overhead_ms": (
            1000.0 * (sum(traced["latencies_s"]) - driver_s) / traced_requests
            if traced_requests
            else 0.0
        ),
        "serving.finish.s": name_stat("serving.finish", "total_s"),
        "serving.replay.s": name_stat("serving.replay", "total_s"),
        "requestlog.write.s": name_stat("requestlog.write", "total_s"),
        "telemetry.events": tel.get("events", 0),
        "telemetry.aggregate.s": tel.get("aggregate_s", 0.0),
        "telemetry.write.s": tel.get("write_s", 0.0),
        "trace_overhead_ratio": traced["wall_s"] / statistics.median(r["wall_s"] for r in reps),
        "failed_ratio": 1.0 - sum(r["ok"] for r in reps) / attempted,
        "sim_worst_app_p99_latency_s": statistics.median(
            r["sim"]["worst_app_p99_latency_s"] for r in reps
        ),
        "serve_requests_per_s": requests / serve_s if requests else 0.0,
        "http_p50_ms": 1000.0 * pooled_quantile(latencies, 50) if requests else 0.0,
        "http_p99_ms": 1000.0 * pooled_quantile(latencies, 99) if requests else 0.0,
    }


def consistency_checks(kind: str, reps: list[dict], extra: list[dict]) -> list[str]:
    """Co-run reps with one seed must simulate bit-identically, traced or not."""
    if kind != "corun":
        return []
    problems = []
    ref = reps[0]
    for i, rep in enumerate(reps[1:] + extra, start=1):
        for key in ("digest", "sim", "counts"):
            if rep[key] != ref[key]:
                problems.append(f"rep {i} {key} differs from rep 0: {rep[key]} != {ref[key]}")
    return problems


def layer_table(spans: dict) -> list[str]:
    layers: dict[str, list[float]] = {}
    for name, v in spans.items():
        row = layers.setdefault(layer_of(name), [0, 0.0, 0.0])
        row[0] += v["calls"]
        row[1] += v["outer_s"]
        row[2] += v["self_s"]
    lines = [f"  {'layer':<14}{'calls':>12}{'time_s':>12}{'self_s':>12}"]
    for layer, (calls, total, self_s) in sorted(layers.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"  {layer:<14}{calls:>12d}{total:>12.4f}{self_s:>12.4f}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        fail(f"no program sources under {root / 'src'}; run from the repo root")
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the repo root")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    cfg = WORKLOADS[args.workload]
    started = time.monotonic()
    deadline = started + BUDGET_S
    reps: list[dict] = []
    while len(reps) < MIN_REPS or (
        len(reps) < MAX_REPS and time.monotonic() - started < args.seconds
    ):
        reps.append(run_rep(root, args.workload, args.seed, "plain", deadline))
    traced = telemetry = None
    if args.trace:
        traced = run_rep(root, args.workload, args.seed, "spans", deadline)
        if cfg["kind"] == "corun":
            telemetry = run_rep(root, args.workload, args.seed, "telemetry", deadline)

    problems = [c for r in reps + [x for x in (traced, telemetry) if x] for c in r["checks"]]
    problems += consistency_checks(
        cfg["kind"], reps, [x for x in (traced, telemetry) if x]
    )

    values = end_to_end(reps)
    if args.trace:
        values.update(per_layer(reps, traced, telemetry))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"BENCHMARK.json names metrics this benchmark does not compute: {missing}")

    provenance = {
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "apps": list(APPS),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": reps[0]["numpy"],
        "workload": args.workload,
        "seed": args.seed,
        "reps": len(reps),
    }
    print(f"perfbench {args.workload} seed={args.seed} ({cfg['why']})")
    print(f"  reps={len(reps)} digest={reps[0]['digest']} "
          f"attempted/rep={reps[0]['attempted']} events/rep={reps[0]['events']}")
    for key in ("setup_s", "wall_s", "run_s", "events"):
        print(f"  per-rep {key}: " + " ".join(f"{r[key]:.6g}" for r in reps))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in values.items():
        print(f"  {name:<34}{value:>16.6g} {units.get(name, '')}")
    if traced is not None:
        print(f"layer spans ({traced['span_count']} recorded):")
        if traced["untraced"]:
            print("  not found, so not traced: " + ", ".join(traced["untraced"]))
        print("\n".join(layer_table(traced["spans"])))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print("checks: " + ("ok" if not problems else f"{len(problems)} failed"))
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
