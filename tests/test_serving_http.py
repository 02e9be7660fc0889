"""LiveServer end-to-end: HTTP front door, 429s, record/replay parity.

Drives a real ``asyncio.start_server`` socket with the stdlib client
from ``tools/loadgen.py`` (imported, so the CI harness is itself under
test).  Request logs always land in ``tmp_path``.
"""

import asyncio
import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.experiments.parallel import EnvSpec, MultiAppCellSpec
from repro.overload.spec import OverloadSpec
from repro.serving import (
    LiveServer,
    RequestLogWriter,
    SimDriver,
    TimeWarpPacer,
    cell_from_header,
    read_request_log,
    replay_request_log,
    verify_replay,
)
from repro.telemetry.audit import (
    REQUEST_AUDIT_FIELDS,
    format_request_audit,
    request_audit,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import loadgen  # noqa: E402

HORIZON = 90.0


def env_spec(app):
    return EnvSpec(
        app=app,
        preset="steady",
        sla=2.0,
        duration=HORIZON,
        train_duration=400.0,
        seed=0,
    )


def make_driver(apps, *, policy="grandslam", overload=None, **kwargs):
    cell = MultiAppCellSpec(
        envs=tuple(env_spec(app) for app in apps),
        policy=policy,
        sim_seed=3,
        overload=overload,
    )
    return SimDriver(cell, horizon=HORIZON, **kwargs)


def record_session(log_path, requests=1):
    """Serve ``requests`` image-query calls, logging the session."""

    async def scenario():
        driver = make_driver(("image-query",))
        server = LiveServer(
            driver, TimeWarpPacer(), log=RequestLogWriter(log_path)
        )
        await server.start()
        for _ in range(requests):
            await loadgen.http_request(
                server.host, server.port, "POST", "/invoke/image-query"
            )
        await server.stop()

    asyncio.run(scenario())


async def request_with_headers(host, port, method, path, body=None):
    """Like ``loadgen.http_request`` but also returns response headers."""
    payload = json.dumps(body).encode() if body is not None else b""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {host}\r\nContent-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode()
            + payload
        )
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        raw = await reader.readexactly(length) if length else b"{}"
        return status, json.loads(raw), headers
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


class TestEndpoints:
    def test_routes_payloads_and_admission(self, tmp_path):
        log_path = tmp_path / "session.jsonl"

        async def scenario():
            driver = make_driver(
                ("image-query",),
                overload=OverloadSpec(
                    admission_rate=0.05, admission_burst=1.0
                ),
            )
            server = LiveServer(
                driver, TimeWarpPacer(), log=RequestLogWriter(log_path)
            )
            await server.start()
            host, port = server.host, server.port

            status, health = await loadgen.http_request(
                host, port, "GET", "/healthz"
            )
            assert status == 200
            assert health["apps"] == ["image-query"]
            assert health["pacing"] == "time-warp"

            status, payload = await loadgen.http_request(
                host, port, "POST", "/invoke/no-such-app"
            )
            assert status == 404
            assert payload["apps"] == ["image-query"]

            status, payload, _ = await request_with_headers(
                host, port, "GET", "/nope"
            )
            assert status == 404

            status, _, _ = await request_with_headers(
                host, port, "GET", "/invoke/image-query"
            )
            assert status == 405

            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /invoke/image-query HTTP/1.1\r\n"
                b"Content-Length: 8\r\nConnection: close\r\n\r\nnot json"
            )
            await writer.drain()
            assert int((await reader.readline()).split()[1]) == 400
            writer.close()

            # First request: admitted, completes with per-stage timing.
            status, payload = await loadgen.http_request(
                host, port, "POST", "/invoke/image-query", {"tenant": "t0"}
            )
            assert status == 200
            assert payload["status"] == "completed"
            assert payload["tenant"] == "t0"
            assert payload["latency"] > 0
            assert payload["stages"]
            for stage in payload["stages"].values():
                assert stage["finished_at"] >= stage["started_at"]
                assert stage["queue_wait"] >= 0

            # Second request: the bucket (burst 1, refill 0.05/s) cannot
            # have recovered a whole token — deterministic 429.
            status, payload, headers = await request_with_headers(
                host, port, "POST", "/invoke/image-query"
            )
            assert status == 429
            assert payload["status"] == "rejected"
            assert payload["retry_after"] > 0
            assert int(headers["retry-after"]) >= 1

            status, stats = await loadgen.http_request(
                host, port, "GET", "/stats"
            )
            assert status == 200
            assert stats["apps"]["image-query"]["completed"] == 1
            assert stats["apps"]["image-query"]["rejected"] == 1

            status, stopped = await loadgen.http_request(
                host, port, "POST", "/control/stop"
            )
            assert status == 200
            counters = stopped["summary"]["counters"]["image-query"]
            assert counters["completed"] == 1
            assert counters["rejected"] == 1
            metrics = await server.run()
            assert metrics["image-query"].rejected == 1
            return server

        asyncio.run(scenario())

        parsed = read_request_log(log_path)
        assert len(parsed.requests) == 2
        assert len(parsed.responses) == 2
        assert parsed.summary is not None
        _, diffs = verify_replay(log_path)
        assert diffs == []

    def test_horizon_straddling_request_times_out_504(self, tmp_path):
        async def scenario():
            driver = make_driver(("image-query",), drain_timeout=0.0)
            driver.start()
            driver.advance_to(HORIZON - 0.25, max_steps=1_000_000)
            server = LiveServer(driver, TimeWarpPacer())
            await server.start()
            host, port = server.host, server.port
            invoke = asyncio.create_task(
                loadgen.http_request(
                    host, port, "POST", "/invoke/image-query"
                )
            )
            while len(driver.tickets) < 1:
                await asyncio.sleep(0.005)
            stop = asyncio.create_task(
                loadgen.http_request(host, port, "POST", "/control/stop")
            )
            status, payload = await invoke
            assert status == 504
            assert payload["status"] == "unfinished"
            await stop
            await server.run()

        asyncio.run(scenario())

    def test_shutdown_refuses_new_requests_503(self):
        async def scenario():
            driver = make_driver(("image-query",))
            server = LiveServer(driver, TimeWarpPacer())
            await server.start()
            server.request_stop()
            status, payload = await loadgen.http_request(
                server.host, server.port, "POST", "/invoke/image-query"
            )
            assert status == 503
            await server.run()

        asyncio.run(scenario())


class TestClosedLoopRecordReplay:
    def test_loadgen_session_replays_bit_identical(self, tmp_path):
        """Satellite: live loadgen → request log → offline bit parity."""
        log_path = tmp_path / "closed_loop.jsonl"

        async def scenario():
            driver = make_driver(
                ("image-query", "amber-alert"),
                policy="smiless",
                overload=OverloadSpec(
                    admission_rate=0.5, admission_burst=2.0
                ),
            )
            server = LiveServer(
                driver, TimeWarpPacer(), log=RequestLogWriter(log_path)
            )
            await server.start()
            stats = await loadgen.run_load(
                server.host,
                server.port,
                apps=["image-query", "amber-alert"],
                requests=40,
                concurrency=8,
                rate=200.0,
                seed=7,
                tenant="tenant-a",
            )
            await loadgen.http_request(
                server.host, server.port, "POST", "/control/stop"
            )
            await server.run()
            return stats

        stats = asyncio.run(scenario())
        assert stats["errors"] == []
        assert stats["dispositions"]["completed"] > 0
        assert stats["dispositions"]["rejected"] > 0
        assert stats["status"]["429"] == stats["dispositions"]["rejected"]

        # Field-by-field replay parity against the recorded footer.
        result, diffs = verify_replay(log_path)
        assert diffs == []

        # The replayed RunMetrics mirror the HTTP-visible dispositions.
        totals = {
            "completed": sum(m.n_completed for m in result.metrics.values()),
            "rejected": sum(m.rejected for m in result.metrics.values()),
        }
        assert totals["completed"] == stats["dispositions"]["completed"]
        assert totals["rejected"] == stats["dispositions"]["rejected"]

        # Request-level audit rows cover every front-door request.
        rows = request_audit(result.parsed.responses)
        assert len(rows) == 40
        assert all(tuple(row) == REQUEST_AUDIT_FIELDS for row in rows)
        assert {row["tenant"] for row in rows} == {"tenant-a"}
        rejected = [r for r in rows if r["status"] == "rejected"]
        assert len(rejected) == stats["dispositions"]["rejected"]
        assert all(r["latency"] is None for r in rejected)
        table = format_request_audit(result.parsed.responses)
        assert "rejected" in table and "completed" in table

    def test_inline_loadgen_smoke_then_cli_replay(self, tmp_path, capsys):
        """The serving closed-loop smoke: ``loadgen --inline`` serves a
        smiless co-run behind token-bucket admission, requires 429s, 200s
        and replay parity, then ``repro serve --replay`` re-verifies the
        captured log."""
        from repro.cli import main

        spec_path = tmp_path / "serve_smoke_spec.json"
        log_path = tmp_path / "serve_smoke_log.jsonl"
        spec_path.write_text(
            json.dumps(
                {
                    "apps": ["image-query", "amber-alert"],
                    "policies": "smiless",
                    "slas": 2.0,
                    "presets": "steady",
                    "seeds": 3,
                    "duration": 150.0,
                    "train_duration": 600.0,
                    "overload": {"admission_rate": 0.5, "admission_burst": 2.0},
                }
            )
        )
        argv = [
            "--inline",
            "--scenario", str(spec_path),
            "--requests", "200",
            "--concurrency", "8",
            "--rate", "200",
            "--seed", "7",
            "--log", str(log_path),
            "--verify-replay", "--expect-429", "--expect-200",
        ]
        assert loadgen.main(argv) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["replay_parity"] == "ok"
        assert stats["status"]["429"] > 0 and stats["status"]["200"] > 0

        assert main(["serve", "--replay", str(log_path)]) == 0
        assert "replay parity: OK" in capsys.readouterr().out

    def test_cli_replay_parity_ok_and_tampered(self, tmp_path, capsys):
        from repro.cli import main

        log_path = tmp_path / "session.jsonl"
        record_session(log_path, requests=2)

        assert main(["serve", "--replay", str(log_path)]) == 0
        out = capsys.readouterr().out
        assert "replay parity: OK" in out
        assert "(replayed)" in out

        # Tamper with a footer metric: the parity gate must catch it.
        lines = [json.loads(line) for line in log_path.read_text().splitlines()]
        for record in lines:
            if record["kind"] == "summary":
                record["metrics"]["image-query"]["mean_latency"] += 1.0
        log_path.write_text(
            "\n".join(json.dumps(r, sort_keys=True) for r in lines) + "\n"
        )
        assert main(["serve", "--replay", str(log_path)]) == 1
        out = capsys.readouterr().out
        assert "replay parity FAILED" in out
        assert "mean_latency" in out

    def test_cli_serve_requires_one_mode(self, capsys):
        from repro.cli import main

        assert main(["serve"]) == 2
        assert "exactly one of" in capsys.readouterr().out

    def test_cli_live_session_empty_then_replayable(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "apps": ["image-query"],
                    "policies": "grandslam",
                    "slas": 2.0,
                    "presets": "steady",
                    "seeds": 3,
                    "duration": HORIZON,
                    "train_duration": 400.0,
                }
            )
        )
        log_path = tmp_path / "empty.jsonl"
        # --max-requests 0 makes the live branch deterministic and
        # non-interactive: bind, stop, finalize, report.
        rc = main(
            [
                "serve",
                "--scenario",
                str(spec_path),
                "--port",
                "0",
                "--max-requests",
                "0",
                "--admission-rate",
                "1.0",
                "--admission-burst",
                "2.0",
                "--log",
                str(log_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "serving image-query" in out
        assert "request log:" in out
        header = read_request_log(log_path).header
        assert header["overload"]["admission_rate"] == 1.0
        assert main(["serve", "--replay", str(log_path)]) == 0

    def test_replay_without_footer_reports_missing(self, tmp_path):
        log_path = tmp_path / "truncated.jsonl"
        record_session(log_path)
        # Simulate a crashed session: drop the summary footer.
        lines = log_path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        kept = [line for line, rec in zip(lines, records) if rec["kind"] != "summary"]
        log_path.write_text("\n".join(kept) + "\n")

        with pytest.raises(ValueError, match="no summary footer"):
            verify_replay(log_path)
        # …but an unverified replay still works from header + requests.
        result = replay_request_log(log_path)
        assert result.metrics["image-query"].n_completed == 1

    def test_header_naming_the_name_seed_rule_still_replays(self, tmp_path):
        """Logs that carry ``"seeding": "name"`` in their header verify."""
        log_path = tmp_path / "named.jsonl"
        record_session(log_path)
        records = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert records[0]["kind"] == "header"
        assert "seeding" not in records[0]
        records[0]["seeding"] = "name"
        log_path.write_text(
            "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
        )
        _, diffs = verify_replay(log_path)
        assert diffs == []

    def test_header_with_unsupported_seed_rule_rejected(self):
        header = {
            "envs": [asdict(env_spec("image-query"))],
            "policy": "grandslam",
            "sim_seed": 3,
            "seeding": "legacy",
        }
        with pytest.raises(ValueError, match="legacy"):
            cell_from_header(header)

    def test_header_with_other_window_rejected(self, tmp_path):
        """The control window is fixed at 1 s; a log naming another is
        refused rather than replayed on a window the session never ran."""
        log_path = tmp_path / "window.jsonl"
        record_session(log_path)
        records = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert records[0]["kind"] == "header"
        assert records[0]["window"] == 1.0
        records[0]["window"] = 2.0
        log_path.write_text(
            "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
        )
        with pytest.raises(ValueError, match="window 2.0"):
            cell_from_header(records[0])
        with pytest.raises(ValueError, match="window 2.0"):
            replay_request_log(log_path)
