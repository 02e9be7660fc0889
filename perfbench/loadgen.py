"""Closed-loop HTTP load for the serve workload (stdlib only).

``clients`` callers share one seeded schedule of (think time, app)
pairs.  Each caller waits for its reply before thinking and sending the
next request, so a slower server receives less load.  The callers run on
the server's own event loop, one process in all, as
``tools/loadgen.py --inline`` does.
"""

from __future__ import annotations

import asyncio
import random
import time


async def post(port: int, path: str) -> int:
    """One HTTP/1.1 POST over a fresh connection; returns the status."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
            "Content-Length: 0\r\nConnection: close\r\n\r\n".encode()
        )
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode("latin-1").partition(":")
            if key.strip().lower() == "content-length":
                length = int(value)
        if length:
            await reader.readexactly(length)
        return status
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def closed_loop(
    port: int,
    *,
    seed: int,
    requests: int,
    clients: int,
    think_mean: float,
    apps: tuple[str, ...],
) -> dict:
    """Send ``requests`` requests; per request its send and receive
    instants (``time.monotonic``) and HTTP status (0 on a transport
    error), plus the transport errors seen."""
    rng = random.Random(seed)
    schedule = [
        (rng.expovariate(1.0 / think_mean), rng.choice(apps))
        for _ in range(requests)
    ]
    schedule.reverse()
    send: list[float] = []
    recv: list[float] = []
    status: list[int] = []
    errors: list[str] = []

    async def caller() -> None:
        while schedule:
            think, app = schedule.pop()
            await asyncio.sleep(think)
            t0 = time.monotonic()
            try:
                code = await post(port, f"/invoke/{app}")
            except (OSError, ValueError, IndexError, asyncio.IncompleteReadError) as exc:
                errors.append(f"{app}: {exc!r}")
                code = 0
            send.append(t0)
            recv.append(time.monotonic())
            status.append(code)

    await asyncio.gather(*(caller() for _ in range(clients)))
    return {"send": send, "recv": recv, "status": status, "errors": errors}
