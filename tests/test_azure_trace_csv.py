"""Azure Functions CSV ingestion: parsing, scaling, replay, threading.

Builds tiny CSVs in the published dataset format — ``HashOwner,HashApp,
HashFunction,Trigger`` metadata followed by 1440 per-minute counts — and
pins the full pipeline: row parsing, the paper's minute→2 s compression,
deterministic replay/tiling through :class:`AzureTraceWorkload`, and the
``--azure-trace`` threading through environments and scenarios.
"""

import numpy as np
import pytest

from repro.experiments import EnvSpec, ScenarioSpec
from repro.experiments.runners import build_environment
from repro.workload.azure import AzureTraceWorkload
from repro.workload.dataset import (
    MINUTES_PER_DAY,
    PAPER_SCALE_FACTOR,
    load_invocation_counts,
    load_scaled_trace,
)

#: Scaled length of one replayed day: 1440 minutes compressed by 2/60.
SCALED_DAY = MINUTES_PER_DAY * 60.0 * PAPER_SCALE_FACTOR


def write_csv(path, rows):
    """``rows`` maps function hash -> {minute_index: count}."""
    header = ["HashOwner", "HashApp", "HashFunction", "Trigger"] + [
        str(i) for i in range(1, MINUTES_PER_DAY + 1)
    ]
    lines = [",".join(header)]
    for i, (fn_hash, counts) in enumerate(rows.items()):
        minute = ["0"] * MINUTES_PER_DAY
        for idx, count in counts.items():
            minute[idx] = str(count)
        lines.append(",".join([f"owner{i}", f"app{i}", fn_hash, "timer"] + minute))
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def csv_path(tmp_path):
    return write_csv(
        tmp_path / "invocations.csv",
        {
            # Busiest function: 3 invocations/minute for the first 200 min.
            "fbusy": {i: 3 for i in range(200)},
            "fsparse": {0: 1, 700: 2},
            "fnever": {},
        },
    )


# ----------------------------------------------------------------- parsing
def test_load_invocation_counts_parses_and_filters(csv_path):
    rows = load_invocation_counts(csv_path)
    assert set(rows) == {"fbusy", "fsparse"}  # never-invoked row dropped
    assert rows["fbusy"].sum() == 600
    assert rows["fsparse"].sum() == 3
    assert rows["fbusy"].shape == (MINUTES_PER_DAY,)


def test_load_invocation_counts_rejects_ragged_rows(tmp_path):
    path = tmp_path / "bad.csv"
    header = ",".join(
        ["HashOwner", "HashApp", "HashFunction", "Trigger"]
        + [str(i) for i in range(1, MINUTES_PER_DAY + 1)]
    )
    path.write_text(header + "\no,a,f,timer,1,2,3\n")
    with pytest.raises(ValueError, match="ragged"):
        load_invocation_counts(path)


def test_load_scaled_trace_defaults_to_busiest_function(csv_path):
    day = load_scaled_trace(csv_path)
    assert len(day) == 600  # fbusy selected
    assert day.duration == pytest.approx(SCALED_DAY)
    # The 200 busy minutes compress to the first 200 * 2 s of the day.
    assert day.times.max() < 200 * 60.0 * PAPER_SCALE_FACTOR
    with pytest.raises(KeyError, match="not in"):
        load_scaled_trace(csv_path, "missing")


# ------------------------------------------------------------------ replay
def test_azure_workload_replay_is_deterministic(csv_path):
    w = AzureTraceWorkload(str(csv_path))
    a = w.generate(300.0, seed=5)
    b = w.generate(300.0, seed=5)
    c = w.generate(300.0, seed=6)
    assert a == b
    assert a != c
    assert a.duration == 300.0
    assert np.all(a.times < 300.0)


def test_azure_workload_tiles_past_one_day(csv_path):
    w = AzureTraceWorkload(str(csv_path), function_hash="fbusy")
    duration = SCALED_DAY * 2.5
    trace = w.generate(duration, seed=0)
    assert trace.duration == pytest.approx(duration)
    # Two full days plus the leading half of a third.
    day = w.generate(SCALED_DAY, seed=0)
    assert len(trace) > 2 * len(day)
    # Tiling shifts whole days: the second day repeats the first.
    second_day = trace.slice(SCALED_DAY, 2 * SCALED_DAY)
    assert np.allclose(second_day.times, day.times)


def test_azure_workload_custom_scale(csv_path):
    paper = AzureTraceWorkload(str(csv_path)).generate(100.0, seed=1)
    slower = AzureTraceWorkload(
        str(csv_path), scale=2 * PAPER_SCALE_FACTOR
    ).generate(100.0, seed=1)
    # Half the compression → roughly half the arrivals in the same window.
    assert len(slower) < len(paper)


def test_azure_workload_rejects_empty_function(tmp_path):
    path = write_csv(tmp_path / "one.csv", {"only": {0: 1}})
    w = AzureTraceWorkload(str(path), function_hash="only")
    assert len(w.generate(10.0)) >= 0  # busiest row replays fine
    bad = write_csv(tmp_path / "none.csv", {"empty": {}})
    with pytest.raises(ValueError, match="no functions above"):
        AzureTraceWorkload(str(bad)).generate(10.0)


# --------------------------------------------------------------- threading
def test_build_environment_replays_csv_for_eval_only(csv_path):
    env = build_environment(
        "image-query",
        sla=2.0,
        duration=120.0,
        train_duration=600.0,
        seed=0,
        azure_trace=str(csv_path),
    )
    expected = AzureTraceWorkload(str(csv_path)).generate(120.0, seed=1000)
    assert env.trace == expected
    # Training history stays synthetic (one replayed day for both would
    # leak the eval arrivals into predictor training).
    assert env.train_counts.sum() != len(env.trace)


def test_scenario_spec_threads_azure_trace(csv_path):
    spec = ScenarioSpec.from_dict(
        {
            "apps": ["image-query"],
            "policies": ["on-demand"],
            "duration": 60.0,
            "azure_trace": str(csv_path),
        }
    )
    cells = spec.cells()
    assert all(c.envs[0].azure_trace == str(csv_path) for c in cells)
    assert spec.cell().envs[0].azure_trace == str(csv_path)


def test_scenario_runs_on_azure_trace_end_to_end(csv_path):
    from repro.experiments.parallel import MultiAppCellSpec, run_cell

    env = EnvSpec(
        app="image-query",
        sla=2.0,
        duration=120.0,
        train_duration=600.0,
        azure_trace=str(csv_path),
    )
    res = run_cell(MultiAppCellSpec(envs=(env,), policy="on-demand"))
    x = res.extras["image-query"]
    assert x["arrivals"] == x["completed"] + x["unfinished"] + x["timed_out"]
    assert x["arrivals"] == len(
        AzureTraceWorkload(str(csv_path)).generate(120.0, seed=1000)
    )
