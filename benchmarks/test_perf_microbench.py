"""Simulator hot-path microbench: events/sec and wall-clock per grid cell.

Runs the fig08-style comparison grid (every policy on every Fig. 7 app)
through :func:`repro.experiments.parallel.run_grid`, serially and with a
4-worker process pool.  Full mode writes the measurements to
``BENCH_simcore.json`` at the repository root so the speedup is tracked
across PRs; smoke mode writes its record under pytest's ``tmp_path`` and
leaves the committed one alone.

Two modes:

- **full** (default): evaluation duration 150 s, two serial repeats
  (min taken, the standard microbenchmark estimator), and the >= 3x
  end-to-end speedup acceptance assert against the recorded seed baseline;
- **smoke** (``SMILESS_BENCH_SMOKE=1``): duration 40 s, single repeat, no
  speedup assert (the baseline constant was measured at duration 150).
  Used by CI to exercise the harness cheaply.  When a recorded smoke
  baseline exists (``benchmarks/results/BENCH_smoke_baseline.json``),
  smoke mode asserts the serial grid has not regressed past
  ``MAX_SMOKE_REGRESSION`` times the recorded wall-clock.

Both modes assert that the 4-worker grid returns bit-identical summaries
to the serial grid — the determinism contract of the parallel runner.

In-process caches (memoized environments, the trained-predictor cache) are
cleared between serial repeats so every repeat pays the full cost of a
cold run; without this, repeat 2 would measure cache hits and flatter the
result.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.experiments import ScenarioSpec
from repro.experiments import parallel as parallel_mod
from repro.experiments.parallel import run_grid
from repro.policies import smiless as smiless_mod

REPO_ROOT = pathlib.Path(__file__).parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_simcore.json"

SMOKE = bool(os.environ.get("SMILESS_BENCH_SMOKE"))

APPS = ("image-query", "amber-alert", "voice-assistant")
POLICIES = ("smiless", "orion", "icebreaker", "grandslam")
DURATION = 40.0 if SMOKE else 150.0
REPEATS = 1 if SMOKE else 2
#: Process-pool size, clamped to the host: 4 workers on a 1-core machine
#: only add pool overhead (a recorded run showed 20.3 s parallel against
#: 7.1 s serial on cpu_count 1), so the pool never exceeds the CPU count
#: and the parallel pass is skipped entirely where it cannot win.
PARALLEL_WORKERS = min(4, os.cpu_count() or 1)

#: Throughput floor for the policy path: every smiless cell must reach at
#: least this fraction of the same app's orion events/s, so the directive
#: path cannot silently regress back to its pre-optimization ~100x gap.
#: Enforced in smoke mode (the CI regression gate): at smoke duration the
#: margin is wide (~2.5x the floor), while full-mode cells amortize orion's
#: fixed setup over more events and sit within noise of the boundary.
SMILESS_MIN_ORION_FRACTION = 0.2

#: Wall-clock of this exact grid (3 apps x 4 policies, preset steady,
#: sla 2.0, duration 150 s, env seed 0, sim seed 3) on the pre-optimization
#: engine, measured in this repository's reference container from a git
#: worktree at the seed commit: environments built once per app, then every
#: cell's ``make_policy`` + ``run`` timed serially.  :func:`run_cell` now
#: times the simulation only, with policy construction and predictor
#: training outside the timer.  Only comparable to full-mode runs.
SEED_BASELINE_SECONDS = 17.05

#: Acceptance floor for the optimized engine (indexed pools + cancellable
#: timers + memoized perf models + predictor cache) on the same grid.
MIN_SPEEDUP = 3.0

#: Recorded smoke-mode wall-clock (same container class as CI); smoke runs
#: fail if the serial grid slows past this factor of the recording.
SMOKE_BASELINE_JSON = (
    REPO_ROOT / "benchmarks" / "results" / "BENCH_smoke_baseline.json"
)
MAX_SMOKE_REGRESSION = 1.3


def _clear_caches() -> None:
    """Reset every in-process memo so a repeat measures a cold run."""
    parallel_mod._environment.cache_clear()
    smiless_mod._PREDICTOR_CACHE.clear()


def _timed_grid(cells, *, workers: int):
    _clear_caches()
    start = time.perf_counter()
    results = run_grid(cells, workers=workers)
    return time.perf_counter() - start, results


def test_perf_microbench(tmp_path):
    cells = ScenarioSpec(apps=APPS, policies=POLICIES, duration=DURATION).cells()

    serial_walls = []
    serial_results = None
    for _ in range(REPEATS):
        wall, serial_results = _timed_grid(cells, workers=1)
        serial_walls.append(wall)
    serial_seconds = min(serial_walls)

    if PARALLEL_WORKERS >= 2:
        parallel_seconds, parallel_results = _timed_grid(
            cells, workers=PARALLEL_WORKERS
        )
        # Determinism contract: fanning the grid across processes changes
        # nothing about any cell's outcome.
        assert [r.summary for r in parallel_results] == [
            r.summary for r in serial_results
        ]
        assert [r.spec for r in parallel_results] == [
            r.spec for r in serial_results
        ]
        best_seconds = min(serial_seconds, parallel_seconds)
    else:
        # One usable core: the pool can only lose to serial, so skip it
        # (noted in the JSON) rather than record a meaningless figure.
        parallel_seconds = None
        best_seconds = serial_seconds

    speedup = SEED_BASELINE_SECONDS / best_seconds if not SMOKE else None

    report = {
        "mode": "smoke" if SMOKE else "full",
        "cpu_count": os.cpu_count(),
        "grid": {
            "apps": list(APPS),
            "policies": list(POLICIES),
            "preset": "steady",
            "sla": 2.0,
            "duration": DURATION,
            "env_seed": 0,
            "sim_seed": 3,
        },
        "serial_seconds": round(serial_seconds, 4),
        "serial_repeats": serial_walls,
        "parallel_workers": PARALLEL_WORKERS,
        "parallel_seconds": (
            None if parallel_seconds is None else round(parallel_seconds, 4)
        ),
        "parallel_skipped": (
            "single usable core: a process pool cannot beat serial"
            if parallel_seconds is None
            else None
        ),
        "best_seconds": round(best_seconds, 4),
        "seed_baseline_seconds": None if SMOKE else SEED_BASELINE_SECONDS,
        "speedup_vs_seed": None if SMOKE else round(speedup, 2),
        "cells": [
            {
                "app": r.spec.envs[0].app,
                "policy": r.spec.policy,
                "wall_clock": round(r.wall_clock, 4),
                "events_processed": r.events_processed,
                "events_per_second": round(r.events_per_second, 1),
            }
            for r in serial_results
        ],
    }
    out = tmp_path / BENCH_JSON.name if SMOKE else BENCH_JSON
    out.write_text(json.dumps(report, indent=2) + "\n")
    parallel_note = (
        "skipped" if parallel_seconds is None else f"{parallel_seconds:.2f}s"
    )
    print(
        f"\n[perf microbench] mode={report['mode']} "
        f"serial={serial_seconds:.2f}s parallel={parallel_note}"
        + ("" if SMOKE else f" speedup_vs_seed={speedup:.2f}x")
    )

    # Policy-path throughput floor: smiless within 1/5 of orion per app.
    if SMOKE:
        events_per_second = {
            (r.spec.envs[0].app, r.spec.policy): r.events_per_second
            for r in serial_results
        }
        for app in APPS:
            smiless_eps = events_per_second[(app, "smiless")]
            orion_eps = events_per_second[(app, "orion")]
            floor = SMILESS_MIN_ORION_FRACTION * orion_eps
            assert smiless_eps >= floor, (
                f"smiless on {app} ran {smiless_eps:.1f} events/s, below "
                f"{SMILESS_MIN_ORION_FRACTION:.0%} of orion's "
                f"{orion_eps:.1f} events/s"
            )

    if not SMOKE:
        assert speedup >= MIN_SPEEDUP, (
            f"grid took {best_seconds:.2f}s against the "
            f"{SEED_BASELINE_SECONDS:.2f}s seed baseline "
            f"({speedup:.2f}x < {MIN_SPEEDUP}x)"
        )
    elif SMOKE_BASELINE_JSON.exists():
        recorded = json.loads(SMOKE_BASELINE_JSON.read_text())
        limit = MAX_SMOKE_REGRESSION * recorded["serial_seconds"]
        assert serial_seconds <= limit, (
            f"smoke grid took {serial_seconds:.2f}s serially, past "
            f"{MAX_SMOKE_REGRESSION}x the recorded "
            f"{recorded['serial_seconds']:.2f}s baseline "
            f"(recorded at {recorded.get('recorded_at', 'unknown')})"
        )
