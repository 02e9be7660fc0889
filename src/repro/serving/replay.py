"""Offline replay of recorded live-serving sessions.

A request log's header carries the full session recipe (environment
specs, policy, seeds, overload spec, horizon) and its request records
carry every front-door arrival stamp — including arrivals the token
bucket rejected, because the bucket is a pure function of the stamp
sequence.  The log is read once (:func:`read_request_log`); rebuilding
the same :class:`~repro.simulator.multiapp.MultiAppSimulator` over each
app's recorded stamps (:meth:`ParsedLog.request_times`) up to the
header's horizon therefore reproduces the live run's RunMetrics bit for
bit: same invocation ids, same RNG streams, same admission decisions,
same billing.

:func:`verify_replay` compares the replayed metrics against the log's
recorded footer field by field — the closed-loop CI check.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.experiments.parallel import (
    EnvSpec,
    MultiAppCellSpec,
    _environment,
)
from repro.overload.spec import OverloadSpec
from repro.serving.requestlog import ParsedLog, read_request_log
from repro.simulator.gateway import WINDOW
from repro.simulator.metrics import RunMetrics, summary_mismatches
from repro.simulator.multiapp import Deployment, MultiAppSimulator
from repro.workload.trace import Trace

__all__ = ["ReplayResult", "cell_from_header", "replay_request_log", "verify_replay"]


def cell_from_header(header: dict[str, Any]) -> MultiAppCellSpec:
    """Rebuild the recorded session's co-run cell from a log header.

    Older logs name their per-app seed rule (``"seeding": "name"``); the
    name-derived rule is the only one a session can run under, so any
    other value is rejected rather than silently replayed differently.
    The control window is fixed (:data:`~repro.simulator.gateway.WINDOW`)
    for the same reason.
    """
    rule = header.get("seeding", "name")
    if rule != "name":
        raise ValueError(
            f"request log uses unsupported per-app seed rule {rule!r}; "
            "only name-derived seeds (\"name\") can be replayed"
        )
    window = header.get("window", WINDOW)
    if window != WINDOW:
        raise ValueError(
            f"request log uses control window {window!r}; "
            f"sessions run on a fixed {WINDOW} s window"
        )
    overload = header.get("overload")
    return MultiAppCellSpec(
        envs=tuple(EnvSpec(**env) for env in header["envs"]),
        policy=header["policy"],
        sim_seed=header["sim_seed"],
        init_failure_rate=header.get("init_failure_rate", 0.0),
        overload=(
            OverloadSpec.from_dict(overload) if overload is not None else None
        ),
        retention=header.get("retention", "full"),
    )


@dataclass
class ReplayResult:
    """Replayed metrics next to the log's recorded live outcome."""

    metrics: dict[str, RunMetrics]
    parsed: ParsedLog

    def summaries(self) -> dict[str, dict[str, float]]:
        return {name: m.summary() for name, m in self.metrics.items()}


def replay_request_log(path: str | Path) -> ReplayResult:
    """Re-run a recorded session offline; returns per-app metrics.

    Each app replays its recorded arrival stamps over the session horizon
    from the header, so the replay schedules as many window ticks as the
    live run did.
    """
    parsed = read_request_log(path)
    cell = cell_from_header(parsed.header)
    horizon = parsed.header["horizon"]
    deployments = []
    for spec in cell.envs:
        env = _environment(spec)
        deployments.append(
            Deployment(
                env.app,
                Trace(parsed.request_times(env.app.name), duration=horizon),
                env.make_policy(cell.policy),
            )
        )
    sim = MultiAppSimulator(
        deployments,
        drain_timeout=parsed.header.get("drain_timeout", 300.0),
        seed=cell.sim_seed,
        init_failure_rate=cell.init_failure_rate,
        overload=cell.overload,
        retention=cell.retention,
    )
    return ReplayResult(metrics=sim.run(), parsed=parsed)


def verify_replay(path: str | Path) -> tuple[ReplayResult, list[str]]:
    """Replay a log and diff it against its recorded footer.

    Returns the replay result and a list of human-readable mismatches
    (empty = bit-identical reproduction).  Raises if the log carries no
    footer to verify against.
    """
    result = replay_request_log(path)
    recorded = result.parsed.summary
    if recorded is None:
        raise ValueError(
            f"{path}: no summary footer to verify against (was the live "
            "session finalized?)"
        )
    diffs: list[str] = []
    replayed = result.summaries()
    for app, live_summary in recorded["metrics"].items():
        if app not in replayed:
            diffs.append(f"{app}: present in footer but not in replay")
            continue
        for key in summary_mismatches(live_summary, replayed[app]):
            diffs.append(
                f"{app}.{key}: live={live_summary.get(key)!r} "
                f"replay={replayed[app].get(key)!r}"
            )
    for app, live_counters in recorded.get("counters", {}).items():
        metrics = result.metrics.get(app)
        if metrics is None:
            continue
        replay_counters = metrics.dispositions()
        for key, live_value in live_counters.items():
            if replay_counters.get(key) != live_value:
                diffs.append(
                    f"{app}.{key}: live={live_value!r} "
                    f"replay={replay_counters.get(key)!r}"
                )
    return result, diffs
