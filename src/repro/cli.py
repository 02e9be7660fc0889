"""Command-line interface: ``python -m repro.cli <command>``.

Every run command compiles its flags into one
:class:`~repro.experiments.scenario.ScenarioSpec` (``_scenario_spec``) and
runs it through :mod:`repro.experiments`.  One seed rule holds for all of
them: ``--seed S`` builds every app's environment with seed ``S`` and seeds
the simulator with ``S + 3``.  The subcommands:

- ``compare``   — serve one application under several policies
- ``sweep``     — SLA sweep under one policy
- ``multiapp``  — co-run all three evaluation apps on one cluster
- ``scenario``  — run a declarative JSON scenario spec (apps × policies ×
  SLAs × presets × seeds, optionally co-run) through the experiment grid;
  ``--preset llm|gpu-swap|overload`` runs a built-in validated scenario
  pack instead, and ``--azure-trace PATH`` replays the published Azure
  Functions CSV as the evaluation trace
- ``trace``     — run one cell with telemetry on: JSONL event trace,
  optional Chrome/Perfetto export, decision audit, and a trace→metrics
  reconstruction check
- ``report``    — full text report for one run (live, or rebuilt offline
  from a JSONL trace with ``--from-trace``)
- ``bench``     — the macro benchmark: a million-invocation multi-app
  co-run with ``retention=sketch`` (bounded memory), recording wall-clock,
  event throughput and peak RSS to ``BENCH_macro.json``; ``--shards N``
  fans (app × trace-slice) units over worker processes and merges
  bit-identically at the barrier (``BENCH_macro_sharded.json``)
- ``serve``     — live serving façade: expose every app of a scenario as
  an HTTP endpoint (``POST /invoke/<app>``) backed by the simulated
  runtime, paced wall-clock or time-warp, with token-bucket admission
  (HTTP 429) and a JSONL request log; ``--replay log.jsonl`` re-runs a
  recorded session offline and verifies bit-identical RunMetrics
- ``profile``   — print a function's profiled latency/init models
- ``apps``      — list the built-in applications and workload presets

Examples::

    python -m repro.cli compare image-query --preset diurnal --duration 300
    python -m repro.cli sweep amber-alert --slas 1 2 4 8
    python -m repro.cli multiapp --policy smiless --workers 2
    python -m repro.cli scenario spec.json --workers 4 --json
    python -m repro.cli scenario --preset llm --workers 4
    python -m repro.cli scenario --preset gpu-swap
    python -m repro.cli scenario --preset overload --workers 4
    python -m repro.cli scenario spec.json --azure-trace azurefunctions.csv
    python -m repro.cli trace image-query --out run.jsonl --chrome run.trace.json
    python -m repro.cli report image-query --from-trace run.jsonl
    python -m repro.cli bench --macro --invocations 1000000
    python -m repro.cli bench --macro --invocations 10000000 --shards 4
    python -m repro.cli serve --scenario spec.json --pacing time-warp --log run.jsonl
    python -m repro.cli serve --replay run.jsonl
    python -m repro.cli profile TRS
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from pathlib import Path

from repro.experiments import PACK_NAMES, ScenarioSpec, run_grid, run_scenario
from repro.experiments.parallel import cell_simulator
from repro.experiments.runners import APP_BUILDERS, PAPER_APPS, POLICY_NAMES
from repro.simulator.metrics import RETENTION_MODES, summary_mismatches
from repro.workload.azure import PRESETS


#: The :class:`ScenarioSpec` field each run flag (argparse ``dest``) sets.
_SPEC_FIELDS = {
    "app": "apps",
    "policy": "policies",
    "policies": "policies",
    "sla": "slas",
    "slas": "slas",
    "preset": "presets",
    "duration": "duration",
    "init_failure_rate": "init_failure_rate",
    "faults": "faults",
    "overload": "overload",
    "retention": "retention",
    "azure_trace": "azure_trace",
    "trace_dir": "trace_dir",
    "shards": "shards",
    "slices_per_app": "slices_per_app",
}


def _scenario_spec(args, **axes) -> ScenarioSpec:
    """Compile a run command's flags into its one :class:`ScenarioSpec`.

    ``axes`` are the fields the command fixes itself (``multiapp``'s apps,
    a JSON spec's contents); every flag of ``_SPEC_FIELDS`` the command has
    and the user set (not ``None``) overrides them.  ``--faults`` and
    ``--overload`` pass through as paths, which
    :meth:`ScenarioSpec.from_dict` loads.  The one seed rule: ``--seed S``
    builds every app's environment with seed ``S`` and seeds the simulator
    with ``S + 3``.
    """
    flags = vars(args)
    data = dict(axes)
    data.update(
        (field, flags[dest])
        for dest, field in _SPEC_FIELDS.items()
        if flags.get(dest) is not None
    )
    if flags.get("seed") is not None:
        data.update(env_seed=args.seed, seeds=args.seed + 3)
    return ScenarioSpec.from_dict(data)


def cmd_run(args, **axes) -> int:
    """``compare``, ``sweep`` and ``multiapp``: a scenario given by flags."""
    return _print_scenario(_scenario_spec(args, **axes), workers=args.workers)


def _print_scenario_rows(rows) -> None:
    print(
        f"{'app':<16} {'preset':<8} {'sla':>5} {'policy':<16} {'cost':>9} "
        f"{'violations':>11} {'mean lat':>9} {'p99 lat':>8} {'reinit':>7}"
    )
    for s in rows:
        r = s.row
        print(
            f"{s.app:<16} {s.preset:<8} {s.sla:>4.1f}s {s.policy:<16} "
            f"${r.total_cost:>8.4f} {r.violation_ratio:>10.1%} "
            f"{r.mean_latency:>8.2f}s {r.p99_latency:>7.2f}s "
            f"{r.reinit_fraction:>6.1%}"
        )


def _json_cells(results) -> list[dict]:
    """One JSON object per (cell, app): coordinates, summary, extras."""
    return [
        {
            "app": env.app,
            "preset": env.preset,
            "sla": env.sla,
            "policy": res.spec.policy,
            "sim_seed": res.spec.sim_seed,
            "summary": _json_safe(res.summary[env.app]),
            "extras": res.extras.get(env.app, {}),
        }
        for res in results
        for env in res.spec.envs
    ]


def _cmd_scenario_pack(args) -> int:
    from repro.experiments import run_pack

    report = run_pack(
        args.preset, workers=args.workers, azure_trace=args.azure_trace
    )
    if args.json:
        doc = {
            "pack": report.pack,
            "ok": report.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in report.checks
            ],
            "cells": _json_cells(report.results),
        }
        print(json.dumps(doc, indent=2))
        return 0 if report.ok else 1
    n = len(report.results)
    print(f"scenario pack {report.pack!r}: {n} cell(s)\n")
    _print_scenario_rows(report.rows())
    print()
    for c in report.checks:
        mark = "PASS" if c.passed else "FAIL"
        print(f"[{mark}] {c.name}: {c.detail}")
    return 0 if report.ok else 1


def cmd_scenario(args) -> int:
    if (args.spec is None) == (args.preset is None):
        print(
            "scenario: provide exactly one of SPEC (a JSON file) or "
            f"--preset {{{','.join(PACK_NAMES)}}}",
            file=sys.stderr,
        )
        return 2
    if args.preset is not None:
        return _cmd_scenario_pack(args)
    # ``--preset`` names a pack, so it is ``None`` on this path.
    spec = _scenario_spec(args, **json.loads(Path(args.spec).read_text()))
    return _print_scenario(spec, workers=args.workers, as_json=args.json)


def _print_scenario(spec: ScenarioSpec, *, workers: int, as_json=False) -> int:
    """Run every cell of ``spec``; print one row (or JSON object) per app."""
    if as_json:
        cells = _json_cells(run_grid(spec.cells(), workers=workers))
        print(json.dumps(cells, indent=2))
        return 0
    n_cells = len(spec.cells())
    print(
        f"scenario: {len(spec.apps)} app(s) x {len(spec.policies)} "
        f"policy(ies) x {len(spec.slas)} SLA(s) x {len(spec.presets)} "
        f"preset(s) x {len(spec.seeds)} seed(s) -> {n_cells} cell(s)"
        f"{' [co-run]' if spec.co_run else ''}\n"
    )
    _print_scenario_rows(run_scenario(spec, workers=workers))
    return 0


def cmd_profile(args) -> int:
    from repro.dag.models import get_model
    from repro.hardware import GroundTruthPerformance, HardwareConfig
    from repro.profiler import OfflineProfiler

    info = get_model(args.model)
    oracle = GroundTruthPerformance(info.profile, rng=args.seed)
    fitted = OfflineProfiler().profile_function(info.name, oracle)
    print(f"{info.name} — {info.full_name} ({info.architecture}, {info.dataset})\n")
    print(f"{'config':>8} {'truth':>8} {'fitted':>8}")
    for cfg in [HardwareConfig.cpu(c) for c in (1, 4, 16)] + [
        HardwareConfig.gpu(f) for f in (0.1, 0.5, 1.0)
    ]:
        print(
            f"{cfg.key:>8} {info.profile.expected_inference_time(cfg):>7.3f}s "
            f"{fitted.inference_time(cfg):>7.3f}s"
        )
    for backend, cfg in (("cpu", HardwareConfig.cpu(1)), ("gpu", HardwareConfig.gpu(0.1))):
        print(
            f"init {backend}: mean={fitted.mean_init_time(cfg):.2f}s "
            f"robust={fitted.init_time(cfg):.2f}s"
        )
    return 0


def _json_safe(value):
    """Recursively replace non-finite floats so ``--json`` emits strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def cmd_report(args) -> int:
    from repro.simulator.reporting import format_report

    if args.from_trace is not None:
        from repro.telemetry import aggregate, read_jsonl

        metrics = aggregate(read_jsonl(args.from_trace), app=args.app)
        if args.json:
            print(json.dumps(_json_safe(metrics.summary()), indent=2))
        else:
            print(f"rebuilt from trace: {args.from_trace}")
            print(format_report(metrics))
        return 0

    if args.app is None:
        print("error: app is required unless --from-trace is given")
        return 2
    from repro.workload.analysis import format_summary, summarize

    (env,), sim = cell_simulator(_scenario_spec(args).cell())
    metrics = sim.run()[env.app.name]
    if args.json:
        print(json.dumps(_json_safe(metrics.summary()), indent=2))
        return 0
    print("workload:")
    print(format_summary(summarize(env.trace)))
    print()
    print(format_report(metrics))
    return 0


def cmd_trace(args) -> int:
    from repro.telemetry import (
        TraceRecorder,
        aggregate,
        format_decision_audit,
        to_dict,
        validate_event,
        write_chrome_trace,
        write_jsonl,
    )

    recorder = TraceRecorder()
    (env,), sim = cell_simulator(_scenario_spec(args).cell(), recorder=recorder)
    metrics = sim.run()[env.app.name]

    # Every emitted event must satisfy the published schema ...
    bad = 0
    for i, event in enumerate(recorder.events):
        errors = validate_event(to_dict(event))
        if errors:
            bad += 1
            print(f"schema violation in event {i}: {'; '.join(errors)}")
    if bad:
        print(f"error: {bad} event(s) failed schema validation")
        return 1
    # ... and the trace must reconstruct the live metrics exactly.
    if summary_mismatches(aggregate(recorder.events).summary(), metrics.summary()):
        print("error: trace does not reconstruct the live run metrics")
        return 1

    n = write_jsonl(recorder.events, args.out)
    print(f"wrote {n} events -> {args.out}")
    if args.chrome is not None:
        write_chrome_trace(recorder.events, args.chrome)
        print(f"wrote Chrome trace -> {args.chrome} (load in Perfetto)")
    print()
    print("decision audit:")
    print(format_decision_audit(recorder.events))
    return 0


def _seconds_since_process_start() -> float | None:
    """Wall seconds since this process started (``None`` off Linux).

    Read from ``/proc``, so the figure includes interpreter start-up and
    every import — the time a user of the command actually waits.
    """
    try:
        with open("/proc/self/stat") as fh:
            # Fields after the parenthesised command name; starttime is
            # field 22 of the record, in clock ticks since boot.
            started = int(fh.read().rpartition(")")[2].split()[19])
        uptime = time.clock_gettime(time.CLOCK_BOOTTIME)
    except (OSError, AttributeError, ValueError, IndexError):
        return None
    return uptime - started / os.sysconf("SC_CLK_TCK")


def _bench_provenance() -> dict:
    """Where a bench record was measured: code, apps, host, toolchain.

    ``git_dirty`` says whether tracked files differed from ``git_sha``
    when the record was made; both are ``None`` without git.
    """
    import platform
    import socket
    import subprocess

    import numpy as np

    root = Path(__file__).resolve().parents[2]

    def git(*cmd: str) -> str | None:
        try:
            proc = subprocess.run(
                ["git", *cmd],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": (sha or "").strip() or None,
        "git_dirty": None if status is None else bool(status.strip()),
        "apps": list(PAPER_APPS),
        "hostname": socket.gethostname(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _aggregate_rate(preset: str) -> float:
    """Arrivals per second of ``PAPER_APPS`` co-run under ``preset``."""
    return (1.0 / PRESETS[preset].mean_gap) * len(PAPER_APPS)


def _bench_cell(args):
    """The macro bench's cell: ``PAPER_APPS`` co-run for ``--invocations``.

    The horizon is the arrival target over the preset's aggregate rate
    unless ``--duration`` overrides it; raises ``ValueError`` on an
    invalid combination.
    """
    return _scenario_spec(
        args,
        apps=PAPER_APPS,
        # Defaults that --duration and --slices-per-app override.
        duration=math.ceil(args.invocations / _aggregate_rate(args.preset)),
        slices_per_app=4 if args.shards > 1 else 1,
    ).cell()


def _bench_command(args) -> str:
    """The command line that reproduces a bench record.

    ``--invocations`` plus every option set away from its default;
    ``--out`` names a file, not the experiment, and is left out.
    """
    defaults = vars(build_parser().parse_args(["bench", "--macro"]))
    parts = ["repro bench --macro", f"--invocations {args.invocations}"]
    for dest, value in vars(args).items():
        if dest not in ("invocations", "out") and value != defaults[dest]:
            parts.append(f"--{dest.replace('_', '-')} {value}")
    return " ".join(parts)


def cmd_bench(args) -> int:
    import dataclasses
    import resource

    from repro.experiments.parallel import clamp_shard_workers, run_cell

    # Mode selection (--macro) is enforced by the argparse group; by the
    # time we are here a mode is guaranteed.
    try:
        spec = _bench_cell(args)
    except ValueError as exc:
        print(f"error: bench: {exc}", file=sys.stderr)
        return 2
    duration = spec.envs[0].duration
    slices_per_app = spec.slices_per_app
    sharded = slices_per_app > 1
    workers, clamp_note = clamp_shard_workers(args.shards)
    if clamp_note is not None:
        print(f"note: {clamp_note}")
    spec = dataclasses.replace(spec, shards=workers)
    out = args.out or (
        "BENCH_macro_sharded.json" if sharded else "BENCH_macro.json"
    )
    shard_banner = (
        f", shards={args.shards} (workers={workers}), "
        f"slices_per_app={slices_per_app}"
        if sharded
        else ""
    )
    print(
        f"macro bench: {len(PAPER_APPS)} apps x preset {args.preset!r} "
        f"(~{_aggregate_rate(args.preset):.0f} arrivals/s aggregate) "
        f"for {duration:.0f}s "
        f"under {args.policy!r}, retention={spec.retention!r}{shard_banner}"
    )
    res = run_cell(spec)
    # ru_maxrss is KiB on Linux: the process-lifetime peak, which is the
    # macro bench's headline (environment build + full co-run).  A sharded
    # run does its work in worker processes, whose peak the finished
    # pool leaves in RUSAGE_CHILDREN.
    peak_rss_mb = (
        max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        )
        / 1024.0
    )
    completed = sum(s["invocations"] for s in res.summary.values())
    record = {
        "generated_by": _bench_command(args),
        "invocations_target": int(args.invocations),
        "completed": int(completed),
        "policy": args.policy,
        "preset": args.preset,
        "retention": spec.retention,
        "sla": args.sla,
        "duration": duration,
        "seed": args.seed,
        "wall_clock_seconds": res.wall_clock,
        "end_to_end_seconds": None,  # set when the record is written
        "events_processed": res.events_processed,
        "events_per_second": res.events_per_second,
        "peak_rss_mb": peak_rss_mb,
        "apps": _json_safe(res.summary),
    }
    if sharded:
        record["shards_requested"] = int(args.shards)
        record["workers_effective"] = int(workers)
        record["slices_per_app"] = int(slices_per_app)
        if clamp_note is not None:
            record["clamp_note"] = clamp_note
        if workers > 1:
            # Parity gate: the same unit decomposition on one shard must
            # merge to the exact same metrics (NaN == NaN).  This is the
            # correctness bar — fail loudly, not quietly.
            print("running 1-shard reference pass for the parity gate ...")
            ref = run_cell(dataclasses.replace(spec, shards=1))
            mismatched = sorted(
                app
                for app in res.summary
                if summary_mismatches(res.summary[app], ref.summary[app])
            )
            if mismatched:
                print(
                    "error: sharded metrics diverge from the 1-shard "
                    f"reference for {mismatched}",
                    file=sys.stderr,
                )
                return 1
            record["parity"] = "exact"
            record["reference_wall_clock_seconds"] = ref.wall_clock
            record["speedup_vs_one_shard"] = (
                ref.wall_clock / res.wall_clock
                if res.wall_clock > 0
                else float("inf")
            )
            print(
                f"parity: exact; speedup vs 1 shard: "
                f"{record['speedup_vs_one_shard']:.2f}x"
            )
        else:
            # One effective worker runs the identical serial code path the
            # reference would — a second multi-hour pass would compare a
            # function with itself.
            record["parity"] = "skipped: single effective worker"
    record["provenance"] = _bench_provenance()
    record["end_to_end_seconds"] = _seconds_since_process_start()
    with open(out, "w") as fh:
        json.dump(_json_safe(record), fh, indent=2)
        fh.write("\n")
    print(
        f"completed {int(completed)} invocations in {res.wall_clock:.1f}s "
        f"({res.events_per_second:,.0f} events/s), peak RSS {peak_rss_mb:.0f} MB"
    )
    print(f"wrote {out}")
    return 0


def cmd_apps(args) -> int:
    print("applications:")
    for name, builder in APP_BUILDERS.items():
        app = builder()
        print(
            f"  {name:<16} {len(app)} functions, longest path "
            f"{app.longest_path_length()}, default SLA {app.sla}s"
        )
    print("\nworkload presets:")
    for name, p in PRESETS.items():
        print(
            f"  {name:<10} mean_gap={p.mean_gap:g}s cv={p.gap_cv:g} "
            f"bursts={'yes' if p.burst_frequency else 'no'} "
            f"idle={'yes' if p.idle_fraction else 'no'}"
        )
    print("\npolicies:", ", ".join(POLICY_NAMES))
    return 0


def _serve_overload(args, spec):
    """Fold ``--admission-rate/--admission-burst`` into the spec's overload."""
    if args.admission_rate is None:
        return spec
    import dataclasses

    from repro.overload import OverloadSpec

    base = spec.overload.to_dict() if spec.overload is not None else {}
    base["admission_rate"] = args.admission_rate
    base["admission_burst"] = args.admission_burst
    return dataclasses.replace(spec, overload=OverloadSpec.from_dict(base))


def cmd_serve(args) -> int:
    from repro.simulator.reporting import format_report

    if (args.replay is None) == (args.scenario is None):
        print("error: serve needs exactly one of --scenario or --replay")
        return 2

    if args.replay is not None:
        from repro.serving import replay_request_log, verify_replay

        parsed_has_footer = True
        try:
            result, diffs = verify_replay(args.replay)
        except ValueError as exc:
            if "no summary footer" not in str(exc):
                raise
            parsed_has_footer = False
            result, diffs = replay_request_log(args.replay), []
        for app, metrics in result.metrics.items():
            print(f"=== {app} (replayed) ===")
            print(format_report(metrics))
            print()
        if not parsed_has_footer:
            print("no footer in the log; replayed without verification")
            return 0
        if diffs:
            print("replay parity FAILED:")
            for diff in diffs:
                print(f"  {diff}")
            return 1
        print(
            "replay parity: OK (RunMetrics bit-identical to the recorded "
            "live session)"
        )
        return 0

    import asyncio
    import signal

    from repro.serving import (
        LiveServer,
        RequestLogWriter,
        SimDriver,
        make_pacer,
    )

    spec = _serve_overload(
        args, _scenario_spec(args, **json.loads(Path(args.scenario).read_text()))
    )
    driver = SimDriver(spec.cell(), horizon=spec.duration)
    pacer = make_pacer(args.pacing, time_scale=args.time_scale)
    log = RequestLogWriter(args.log) if args.log is not None else None

    async def session():
        server = LiveServer(
            driver,
            pacer,
            host=args.host,
            port=args.port,
            log=log,
            max_requests=args.max_requests,
        )
        await server.start()
        print(
            f"serving {', '.join(sorted(driver.gateways))} on "
            f"http://{server.host}:{server.port} "
            f"({args.pacing} pacing, horizon {driver.horizon:g}s) — "
            f"POST /invoke/<app>, /control/stop to finish",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGINT, server.request_stop)
            loop.add_signal_handler(signal.SIGTERM, server.request_stop)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
        return await server.run()

    metrics = asyncio.run(session())
    for app, m in metrics.items():
        print(f"=== {app} ===")
        print(format_report(m))
        print()
    if args.log is not None:
        print(f"request log: {args.log} (replay with: repro serve --replay)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.cli`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="SMIless reproduction experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, workers=False):
        p.add_argument("--preset", default="steady", choices=sorted(PRESETS))
        p.add_argument("--duration", type=float, default=600.0)
        p.add_argument("--seed", type=int, default=0)
        if workers:
            p.add_argument(
                "--workers",
                type=int,
                default=1,
                help="worker processes for the experiment grid (1 = serial)",
            )

    def retention_arg(p, default="full"):
        p.add_argument(
            "--retention",
            default=default,
            choices=sorted(RETENTION_MODES),
            help="record retention: 'full' keeps every record (exact), "
            "'sketch' streams latency into bounded-memory sketches",
        )

    def chaos(p):
        p.add_argument(
            "--init-failure-rate",
            type=float,
            default=0.0,
            help="probability that a container initialization fails (0..1)",
        )
        p.add_argument(
            "--faults",
            default=None,
            metavar="PLAN.json",
            help="attach a fault plan (machine outages, execution faults, "
            "stragglers, flash crowds, resilience knobs) from a JSON file",
        )
        p.add_argument(
            "--overload",
            default=None,
            metavar="SPEC.json",
            help="attach an overload spec (bounded queues with shedding, "
            "token-bucket admission, circuit breakers, brownout) from a "
            "JSON file",
        )

    p = sub.add_parser("compare", help="compare policies on one app")
    p.add_argument("app", choices=sorted(APP_BUILDERS))
    p.add_argument("--sla", type=float, default=2.0)
    p.add_argument(
        "--policies",
        nargs="+",
        default=["smiless", "orion", "icebreaker", "grandslam"],
        choices=POLICY_NAMES,
    )
    common(p, workers=True)
    chaos(p)
    retention_arg(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="SLA sweep under one policy")
    p.add_argument("app", choices=sorted(APP_BUILDERS))
    p.add_argument("--policy", default="smiless", choices=POLICY_NAMES)
    p.add_argument("--slas", nargs="+", type=float, default=[1.0, 2.0, 4.0, 8.0])
    common(p, workers=True)
    chaos(p)
    retention_arg(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("multiapp", help="co-run the three evaluation apps")
    p.add_argument("--policy", default="smiless", choices=POLICY_NAMES)
    common(p, workers=True)
    chaos(p)
    retention_arg(p)
    p.set_defaults(
        func=functools.partial(cmd_run, apps=PAPER_APPS, co_run=True)
    )

    p = sub.add_parser(
        "scenario",
        help="run a declarative JSON scenario spec or a built-in pack",
    )
    p.add_argument(
        "spec",
        nargs="?",
        default=None,
        help="path to a ScenarioSpec JSON file (omit with --preset)",
    )
    p.add_argument(
        "--preset",
        default=None,
        choices=PACK_NAMES,
        help="run a built-in scenario pack (every registered policy, "
        "invariants validated) instead of a JSON spec",
    )
    p.add_argument(
        "--azure-trace",
        default=None,
        metavar="PATH",
        help="replay the published Azure Functions CSV at PATH as every "
        "cell's evaluation trace",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the experiment grid (1 = serial)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON object per (cell, app) with its full "
        "RunMetrics summary",
    )
    p.add_argument(
        "--trace-dir",
        default=None,
        help="record every cell and write JSONL event traces here",
    )
    p.add_argument(
        "--retention",
        default=None,
        choices=sorted(RETENTION_MODES),
        help="override the spec's record-retention mode",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=None,
        help="override the spec's shard count (worker processes per "
        "sharded cell; needs --slices-per-app > 1 and sketch retention)",
    )
    p.add_argument(
        "--slices-per-app",
        type=int,
        default=None,
        help="override the spec's trace slices per app (> 1 runs every "
        "cell on the shard plane; part of the experiment definition)",
    )
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("report", help="serve one app and print the full report")
    p.add_argument("app", nargs="?", default=None, choices=sorted(APP_BUILDERS))
    p.add_argument("--policy", default="smiless", choices=POLICY_NAMES)
    p.add_argument("--sla", type=float, default=2.0)
    p.add_argument(
        "--from-trace",
        default=None,
        metavar="PATH",
        help="rebuild the report offline from a JSONL telemetry trace "
        "instead of running a simulation (app may be omitted for "
        "single-app traces)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the RunMetrics summary as JSON instead of the text report",
    )
    common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "trace",
        help="run one app with telemetry on and export the event trace",
    )
    p.add_argument("app", choices=sorted(APP_BUILDERS))
    p.add_argument("--policy", default="smiless", choices=POLICY_NAMES)
    p.add_argument("--sla", type=float, default=2.0)
    p.add_argument(
        "--out",
        default="trace.jsonl",
        help="JSONL event trace output path (default: trace.jsonl)",
    )
    p.add_argument(
        "--chrome",
        default=None,
        metavar="PATH",
        help="also export a Chrome trace-event file (open in Perfetto)",
    )
    common(p)
    chaos(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "bench",
        help="macro benchmark: million-invocation multi-app co-run",
    )
    # The benchmark mode is a required choice: invoking `bench` without a
    # mode (or with an unknown one) is an argparse error (exit code 2),
    # not a printed hint with a success-shaped exit path.
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--macro",
        action="store_true",
        help="run the macro benchmark (multi-app co-run at flood rates)",
    )
    p.add_argument(
        "--invocations",
        type=int,
        default=1_000_000,
        help="target aggregate arrival count (sets the horizon)",
    )
    p.add_argument("--preset", default="flood", choices=sorted(PRESETS))
    p.add_argument("--policy", default="grandslam", choices=POLICY_NAMES)
    p.add_argument("--sla", type=float, default=2.0)
    p.add_argument(
        "--duration",
        type=float,
        default=None,
        help="horizon override in seconds (default: --invocations / rate)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--shards",
        type=int,
        default=1,
        help="fan the run's (app x trace-slice) units over this many "
        "worker processes, merging bit-identically at the barrier "
        "(clamped to the host CPU count; requires --retention sketch)",
    )
    p.add_argument(
        "--slices-per-app",
        type=int,
        default=None,
        help="trace slices per app; > 1 runs on the shard plane (part of "
        "the experiment definition; constant across shard counts). "
        "Default: 4 with --shards > 1, 1 otherwise",
    )
    retention_arg(p, default="sketch")
    p.add_argument(
        "--out",
        default=None,
        help="benchmark record output path (default: BENCH_macro.json, "
        "or BENCH_macro_sharded.json for sharded runs)",
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "serve",
        help="serve a scenario live over HTTP, or replay a request log",
    )
    p.add_argument(
        "--scenario",
        default=None,
        metavar="SPEC.json",
        help="ScenarioSpec JSON with one policy/SLA/preset/seed; every "
        "app gets a POST /invoke/<app> endpoint",
    )
    p.add_argument(
        "--replay",
        default=None,
        metavar="LOG.jsonl",
        help="replay a recorded request log offline and verify it against "
        "the recorded footer (bit-identical RunMetrics)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=8080,
        help="listening port (0 = let the kernel pick)",
    )
    p.add_argument(
        "--pacing",
        default="time-warp",
        # Literal list (not repro.serving.PACING_MODES): importing the CLI
        # must never load the serving package (zero-cost rule).
        choices=["time-warp", "wall-clock"],
        help="time-warp advances the simulated clock only while work is "
        "pending; wall-clock tracks real time through --time-scale",
    )
    p.add_argument(
        "--time-scale",
        type=float,
        default=1.0,
        help="simulated seconds per wall second (wall-clock pacing only)",
    )
    p.add_argument(
        "--log",
        default=None,
        metavar="LOG.jsonl",
        help="append every request to this JSONL request log for replay",
    )
    p.add_argument(
        "--max-requests",
        type=int,
        default=None,
        help="finalize the session automatically after this many requests",
    )
    p.add_argument(
        "--admission-rate",
        type=float,
        default=None,
        help="per-app token-bucket admission rate (requests per simulated "
        "second); rejected requests get HTTP 429 with Retry-After",
    )
    p.add_argument(
        "--admission-burst",
        type=float,
        default=10.0,
        help="token-bucket burst capacity (with --admission-rate)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("profile", help="profile one Table I model")
    p.add_argument("model")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("apps", help="list applications, presets and policies")
    p.set_defaults(func=cmd_apps)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
