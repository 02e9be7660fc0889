"""The benchmark's three workloads, each run once per fresh process.

Every input is generated from the workload seed and handed to the
program through its public API: environment recipes, arrival traces, a
fault plan, an overload spec, or a closed-loop request schedule.  The
app set is an explicit list and never follows the program's registry.

A rep returns a JSON-able dict: host-time marks (``time.monotonic``,
comparable across processes on one host), simulated metrics, exact
counters, the outcome of its output checks and, when traced, the span
summary.  ``run.py`` aggregates reps into the reported metrics.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from pathlib import Path

#: The three Fig. 7 applications, pinned.
APPS = ("amber-alert", "image-query", "voice-assistant")

#: Where reps leave request logs, telemetry traces and span archives.
OUT_DIR = Path(".perfbench_out")

WORKLOADS = {
    "corun-flood-grandslam": dict(
        kind="corun",
        why="engine-bound: event heap, gateway, pools and service-time "
        "models do the work; grandslam does almost none",
        preset="flood",
        policy="grandslam",
        retention="sketch",
        duration=400.0,
        arrivals_per_app=2600,
        train_duration=600.0,
        chaos=False,
    ),
    "corun-bursty-smiless-chaos": dict(
        kind="corun",
        why="policy-bound: smiless optimizer and predictors at a low event "
        "rate, with gateway retry, timeout, shed and outage paths",
        preset="bursty",
        policy="smiless",
        retention="full",
        duration=600.0,
        arrivals_per_app=200,
        train_duration=1200.0,
        chaos=True,
    ),
    "serve-closed-loop": dict(
        kind="serve",
        why="live front door: HTTP, pump and request log over time-warp "
        "serving, one injected arrival at a time",
        preset="steady",
        policy="smiless",
        retention="full",
        horizon=1500.0,
        requests=350,
        clients=2,
        think_mean_s=0.005,
        train_duration=600.0,
        admission_rate=2.0,
        admission_burst=10.0,
    ),
}


#: Seed of the profiling runs and predictor training history.  Fixed, like
#: a deployment's offline preparation: the workload seed varies what the
#: deployed system is asked to serve, not the system itself.
ENV_SEED = 0


def app_trace_seed(seed: int, index: int) -> int:
    """Seed of app ``index``'s evaluation trace (independent per app)."""
    return seed * 1000 + 100 + index


def summary_digest(summaries: dict) -> str:
    """Stable digest of per-app summaries (NaN-safe, key-sorted)."""
    blob = json.dumps(summaries, sort_keys=True, default=float)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _fixed_size_trace(preset: str, seed: int, n: int, duration: float):
    """``n`` arrivals of ``preset`` rescaled to span exactly ``duration``.

    The preset's shape (gaps, drift, bursts) is kept; the time axis is
    stretched so every seed offers the same amount of work.
    """
    from repro.workload import AzureLikeWorkload, Trace

    span = duration * 1.5
    while True:
        times = AzureLikeWorkload.preset(preset, seed=seed).generate(span).times
        if len(times) > n:
            break
        span *= 2.0
    scale = duration / float(times[n])
    return Trace(times[:n] * scale, duration=duration)


def _chaos(duration: float):
    """Mild fault plan and overload defences for the chaos co-run."""
    from repro.faults.plan import (
        ExecutionFault,
        FaultPlan,
        LatencyStraggler,
        MachineOutage,
        ResilienceSpec,
    )
    from repro.overload.spec import OverloadSpec

    faults = FaultPlan(
        outages=(MachineOutage(machine=1, start=0.3 * duration, end=0.3 * duration + 60.0),),
        execution_faults=(ExecutionFault(rate=0.01),),
        stragglers=(
            LatencyStraggler(
                factor=2.0, backend="gpu", start=0.6 * duration, end=0.6 * duration + 60.0
            ),
        ),
        resilience=ResilienceSpec(deadline_factor=4.0),
    )
    overload = OverloadSpec(
        queue_limit=4, shed_policy="deadline-aware", breaker_failures=3
    )
    return faults, overload


def _metrics_view(metrics: dict) -> dict:
    """Simulated end-to-end metrics and exact counters of a finished run."""
    import numpy as np
    from repro.metrics.sketch import QuantileSketch

    ms = list(metrics.values())
    totals = [
        m.n_completed + m.unfinished + m.timed_out + m.shed + m.rejected for m in ms
    ]
    arrivals = sum(totals)
    within = sum(m.goodput() * t for m, t in zip(ms, totals))
    if all(m.retention == "sketch" for m in ms):
        pooled = QuantileSketch()
        for m in ms:
            pooled.merge(m.latency_sketch)
        p50, p99 = pooled.quantile(50), pooled.quantile(99)
    else:
        lat = np.concatenate([m.latencies() for m in ms])
        p50, p99 = (float(np.percentile(lat, q)) for q in (50, 99))
    lost = sum(m.unfinished + m.timed_out + m.shed + m.rejected for m in ms)
    return {
        "sim": {
            "cost_usd": sum(m.total_cost() for m in ms),
            "slo_miss_ratio": 1.0 - within / arrivals if arrivals else math.nan,
            "p50_latency_s": p50,
            "p99_latency_s": p99,
            "worst_app_p99_latency_s": max(m.latency_percentile(99) for m in ms),
        },
        "counts": {
            "arrivals": arrivals,
            "lost": lost,
            "resolved": arrivals - sum(m.unfinished for m in ms),
            "timed_out": sum(m.timed_out for m in ms),
            "shed": sum(m.shed for m in ms),
            "rejected": sum(m.rejected for m in ms),
            "peak_queue_depth": max(m.peak_queue_depth for m in ms),
            "initializations": sum(m.initializations for m in ms),
        },
    }


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0



# ---------------------------------------------------------------- co-runs
def run_corun(cfg: dict, seed: int, marks: dict, telemetry=False) -> dict:
    import dataclasses

    import repro.experiments.runners as runners
    from repro.simulator import Deployment, MultiAppSimulator

    envs = []
    for i, app in enumerate(APPS):
        env = runners.build_environment(
            app,
            preset=cfg["preset"],
            duration=cfg["duration"],
            train_duration=cfg["train_duration"],
            seed=ENV_SEED,
        )
        trace = _fixed_size_trace(
            cfg["preset"], app_trace_seed(seed, i), cfg["arrivals_per_app"], cfg["duration"]
        )
        envs.append(dataclasses.replace(env, trace=trace))
    faults, overload = _chaos(cfg["duration"]) if cfg["chaos"] else (None, None)
    recorder = None
    if telemetry:
        from repro.telemetry.recorder import TraceRecorder

        recorder = TraceRecorder()
    sim = MultiAppSimulator(
        [Deployment(e.app, e.trace, e.make_policy(cfg["policy"])) for e in envs],
        seed=seed,
        recorder=recorder,
        faults=faults,
        overload=overload,
        retention=cfg["retention"],
    )
    marks["setup_done"] = time.monotonic()
    metrics = sim.run()
    marks["run_done"] = time.monotonic()
    summaries = {name: m.summary() for name, m in metrics.items()}
    view = _metrics_view(metrics)
    marks["results"] = time.monotonic()
    rss = _peak_rss_mb()

    checks = []
    for env in envs:
        m = metrics[env.app.name]
        accounted = m.n_completed + m.unfinished + m.timed_out + m.shed + m.rejected
        if len(env.trace) + m.injected_arrivals != accounted:
            checks.append(
                f"{env.app.name}: conservation broken: {len(env.trace)} arrivals "
                f"+ {m.injected_arrivals} injected != {accounted} accounted"
            )
    out = {
        "attempted": view["counts"]["arrivals"],
        "ok": view["counts"]["arrivals"] - view["counts"]["lost"],
        "resolved": view["counts"]["resolved"],
        "failed": 0,
        "events": sim.events.processed,
        "run_s": marks["run_done"] - marks["setup_done"],
        "digest": summary_digest(summaries),
        "rss_mb": rss,
        **view,
    }
    if telemetry:
        out["telemetry"] = _check_telemetry(recorder, metrics, checks)
    out["checks"] = checks
    return out


_COUNTERS = (
    "n_completed",
    "unfinished",
    "timed_out",
    "shed",
    "rejected",
    "injected_arrivals",
    "initializations",
    "failed_initializations",
    "stage_executions",
    "cold_stage_executions",
    "stage_retries",
    "failed_executions",
    "fallbacks",
)


def _check_telemetry(recorder, live: dict, checks: list) -> dict:
    """Rebuild metrics from the recorded events; they must match live ones."""
    from repro.telemetry import aggregate_all

    t0 = time.perf_counter()
    rebuilt = aggregate_all(recorder.events)
    t1 = time.perf_counter()
    path = OUT_DIR / f"telemetry-{os.getpid()}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        recorder.write_jsonl(path)
        t2 = time.perf_counter()
    finally:
        path.unlink(missing_ok=True)
    if set(rebuilt) != set(live):
        checks.append(f"telemetry: apps {sorted(rebuilt)} != live {sorted(live)}")
    for name, m in live.items():
        r = rebuilt.get(name)
        if r is None:
            continue
        for counter in _COUNTERS:
            if getattr(r, counter) != getattr(m, counter):
                checks.append(
                    f"telemetry: {name}.{counter} rebuilt {getattr(r, counter)} "
                    f"!= live {getattr(m, counter)}"
                )
        if not math.isclose(r.total_cost(), m.total_cost(), rel_tol=1e-9):
            checks.append(
                f"telemetry: {name} cost rebuilt {r.total_cost()} != live {m.total_cost()}"
            )
    return {
        "events": len(recorder.events),
        "aggregate_s": t1 - t0,
        "write_s": t2 - t1,
    }


# ------------------------------------------------------------------ serve
def run_serve(cfg: dict, seed: int, marks: dict, telemetry=False) -> dict:
    import asyncio

    return asyncio.run(_serve(cfg, seed, marks))


async def _serve(cfg: dict, seed: int, marks: dict) -> dict:
    from loadgen import closed_loop
    from repro.experiments.parallel import EnvSpec, MultiAppCellSpec
    from repro.overload.spec import OverloadSpec
    from repro.serving import (
        LiveServer,
        RequestLogWriter,
        SimDriver,
        TimeWarpPacer,
        verify_replay,
    )

    cell = MultiAppCellSpec(
        envs=tuple(
            EnvSpec(
                app=app,
                preset=cfg["preset"],
                duration=cfg["horizon"],
                train_duration=cfg["train_duration"],
                seed=ENV_SEED,
            )
            for app in APPS
        ),
        policy=cfg["policy"],
        sim_seed=seed,
        retention=cfg["retention"],
        overload=OverloadSpec(
            admission_rate=cfg["admission_rate"],
            admission_burst=cfg["admission_burst"],
        ),
    )
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    log_path = OUT_DIR / f"serve-{os.getpid()}.jsonl"
    try:
        driver = SimDriver(cell, horizon=cfg["horizon"])
        server = LiveServer(
            driver, TimeWarpPacer(), port=0, log=RequestLogWriter(log_path)
        )
        await server.start()
        marks["setup_done"] = time.monotonic()
        load = await closed_loop(
            server.port,
            seed=seed,
            requests=cfg["requests"],
            clients=cfg["clients"],
            think_mean=cfg["think_mean_s"],
            apps=APPS,
        )
        metrics = await server.stop()
        view = _metrics_view(metrics)
        marks["results"] = time.monotonic()
        rss = _peak_rss_mb()
        events = driver.runtime.events.processed

        checks = []
        if load["errors"]:
            checks.append(f"serve: {len(load['errors'])} transport errors: {load['errors'][:3]}")
        _, diffs = verify_replay(log_path)
        if diffs:
            checks.append(f"serve: replay differs from the live session: {diffs[:3]}")
    finally:
        log_path.unlink(missing_ok=True)

    statuses = load["status"]
    sent = len(statuses)
    ok = sum(1 for s in statuses if s == 200)
    first_send = min(load["send"])
    last_recv = max(load["recv"])
    latencies = [r - s for s, r in zip(load["send"], load["recv"])]
    return {
        "attempted": sent,
        "ok": ok,
        "failed": sent - ok,
        "resolved": sum(1 for s in statuses if s != 0),
        "events": events,
        "run_s": last_recv - first_send,
        "digest": summary_digest({n: m.summary() for n, m in metrics.items()}),
        "rss_mb": rss,
        "latencies_s": latencies,
        "sim_latencies_s": [
            float(x) for m in metrics.values() for x in m.latencies()
        ],
        "checks": checks,
        **view,
    }


RUNNERS = {"corun": run_corun, "serve": run_serve}
