#!/usr/bin/env python3
"""Seeded asyncio load generator for the live serving façade.

Drives ``repro serve`` in closed loop with stdlib-only HTTP (raw
``asyncio.open_connection``, no third-party client): ``--concurrency``
workers each draw seeded exponential think-time gaps and app choices,
POST to ``/invoke/<app>``, and wait for the simulated invocation's
terminal status before sending their next request.

Two modes:

- **external** (default): target a running server via ``--host/--port``.
- **``--inline``**: spin the whole serving session up in-process from a
  scenario spec (time-warp pacing, ephemeral port), drive it, stop it,
  and optionally ``--verify-replay`` the captured request log — the CI
  closed-loop harness.  Exit status is non-zero when an ``--expect-*``
  assertion or replay verification fails.

Examples::

    python tools/loadgen.py --host 127.0.0.1 --port 8080 \
        --apps image-query --requests 100 --seed 7

    python tools/loadgen.py --inline --scenario spec.json \
        --requests 200 --concurrency 8 --seed 7 \
        --log serve_log.jsonl --verify-replay --expect-429 --expect-200
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import time
from collections import Counter
from pathlib import Path


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: dict | None = None,
) -> tuple[int, dict]:
    """One HTTP/1.1 exchange over a fresh connection; returns (status, JSON)."""
    payload = json.dumps(body).encode() if body is not None else b""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode()
            + payload
        )
        await writer.drain()
        status_line = await reader.readline()
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode("latin-1").partition(":")
            if key.strip().lower() == "content-length":
                length = int(value.strip())
        raw = await reader.readexactly(length) if length else b"{}"
        return status, json.loads(raw)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def run_load(
    host: str,
    port: int,
    *,
    apps: list[str],
    requests: int,
    concurrency: int = 4,
    rate: float = 50.0,
    seed: int = 0,
    tenant: str | None = None,
) -> dict:
    """Closed-loop seeded load; returns client-side statistics.

    The full schedule (inter-request gap + target app per request) is
    drawn up front from one seeded RNG, so a given seed always produces
    the same request sequence regardless of worker interleaving.
    """
    rng = random.Random(seed)
    schedule = [
        (rng.expovariate(rate) if rate > 0 else 0.0, rng.choice(apps))
        for _ in range(requests)
    ]
    queue: asyncio.Queue = asyncio.Queue()
    for item in schedule:
        queue.put_nowait(item)
    status_counts: Counter = Counter()
    disposition_counts: Counter = Counter()
    per_app: dict[str, Counter] = {app: Counter() for app in apps}
    wall_latencies: list[float] = []
    errors: list[str] = []

    async def worker() -> None:
        while True:
            try:
                gap, app = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            if gap:
                await asyncio.sleep(gap)
            t0 = time.monotonic()
            try:
                status, payload = await http_request(
                    host,
                    port,
                    "POST",
                    f"/invoke/{app}",
                    {"tenant": tenant} if tenant else None,
                )
            except OSError as exc:
                errors.append(f"{app}: {exc!r}")
                continue
            wall_latencies.append(time.monotonic() - t0)
            status_counts[status] += 1
            disposition = payload.get("status", "error")
            disposition_counts[disposition] += 1
            per_app[app][disposition] += 1

    await asyncio.gather(*(worker() for _ in range(concurrency)))
    wall_latencies.sort()
    return {
        "requests": requests,
        "errors": errors,
        "status": {str(k): v for k, v in sorted(status_counts.items())},
        "dispositions": dict(sorted(disposition_counts.items())),
        "per_app": {app: dict(c) for app, c in per_app.items()},
        "wall_latency_ms": {
            "mean": (
                sum(wall_latencies) / len(wall_latencies) * 1000.0
                if wall_latencies
                else None
            ),
            "p99": (
                wall_latencies[int(0.99 * (len(wall_latencies) - 1))] * 1000.0
                if wall_latencies
                else None
            ),
        },
    }


async def _inline_session(args) -> tuple[dict, dict]:
    """Run server + load in one process; returns (stats, final summary)."""
    from repro.experiments.scenario import ScenarioSpec
    from repro.serving import (
        LiveServer,
        RequestLogWriter,
        SimDriver,
        make_pacer,
    )

    spec = ScenarioSpec.from_json(args.scenario)
    driver = SimDriver(spec.cell(), horizon=spec.duration)
    server = LiveServer(
        driver,
        make_pacer(args.pacing, time_scale=args.time_scale),
        port=0,
        log=RequestLogWriter(args.log) if args.log else None,
    )
    await server.start()
    apps = args.apps or sorted(driver.gateways)
    stats = await run_load(
        server.host,
        server.port,
        apps=apps,
        requests=args.requests,
        concurrency=args.concurrency,
        rate=args.rate,
        seed=args.seed,
        tenant=args.tenant,
    )
    _, summary = await http_request(
        server.host, server.port, "POST", "/control/stop"
    )
    await server.run()
    return stats, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument(
        "--apps",
        nargs="+",
        default=None,
        help="target applications (inline mode defaults to all served apps)",
    )
    parser.add_argument("--requests", type=int, default=100)
    parser.add_argument("--concurrency", type=int, default=4)
    parser.add_argument(
        "--rate",
        type=float,
        default=50.0,
        help="mean request rate per worker stream (1/mean think-time gap)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tenant", default=None)
    parser.add_argument(
        "--stop",
        action="store_true",
        help="POST /control/stop after the load completes (external mode)",
    )
    parser.add_argument(
        "--inline",
        action="store_true",
        help="run the serving session in-process (needs --scenario)",
    )
    parser.add_argument("--scenario", default=None, metavar="SPEC.json")
    parser.add_argument(
        "--pacing", default="time-warp", choices=["time-warp", "wall-clock"]
    )
    parser.add_argument("--time-scale", type=float, default=1.0)
    parser.add_argument("--log", default=None, metavar="LOG.jsonl")
    parser.add_argument(
        "--verify-replay",
        action="store_true",
        help="after an inline session, replay --log and require "
        "bit-identical RunMetrics",
    )
    parser.add_argument(
        "--expect-429",
        action="store_true",
        help="fail unless at least one request was admission-rejected",
    )
    parser.add_argument(
        "--expect-200",
        action="store_true",
        help="fail unless at least one request completed",
    )
    args = parser.parse_args(argv)

    if args.inline:
        if args.scenario is None:
            parser.error("--inline requires --scenario")
        # Allow running straight from a checkout without PYTHONPATH.
        repo_src = Path(__file__).resolve().parent.parent / "src"
        if repo_src.is_dir() and str(repo_src) not in sys.path:
            sys.path.insert(0, str(repo_src))
        stats, summary = asyncio.run(_inline_session(args))
        stats["final_summary"] = summary.get("summary")
    else:

        async def external() -> dict:
            stats = await run_load(
                args.host,
                args.port,
                apps=args.apps or [],
                requests=args.requests,
                concurrency=args.concurrency,
                rate=args.rate,
                seed=args.seed,
                tenant=args.tenant,
            )
            if args.stop:
                _, summary = await http_request(
                    args.host, args.port, "POST", "/control/stop"
                )
                stats["final_summary"] = summary.get("summary")
            return stats

        if not args.apps:
            parser.error("external mode requires --apps")
        stats = asyncio.run(external())

    failures: list[str] = []
    if stats["errors"]:
        failures.append(f"{len(stats['errors'])} transport errors")
    if args.expect_429 and stats["dispositions"].get("rejected", 0) == 0:
        failures.append("expected at least one 429 (rejected), saw none")
    if args.expect_200 and stats["dispositions"].get("completed", 0) == 0:
        failures.append("expected at least one 200 (completed), saw none")
    if args.verify_replay:
        if not (args.inline and args.log):
            parser.error("--verify-replay requires --inline and --log")
        from repro.serving import verify_replay

        _, diffs = verify_replay(args.log)
        stats["replay_parity"] = "ok" if not diffs else diffs
        if diffs:
            failures.append(f"replay parity failed: {diffs}")

    print(json.dumps(stats, indent=2, sort_keys=True))
    if failures:
        print("LOADGEN FAILURES:", "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
