"""The committed root bench records describe the command that made them.

Each root ``BENCH_macro*.json`` names its command line in
``generated_by``.  Re-parsing that command with today's ``build_parser()``
and compiling it with ``cli._bench_cell`` must give the record's workload
fields back; a record whose fields disagree was made under other defaults
and is stale.  Every record must also say where it was measured
(``provenance``) and what a user waited for (``end_to_end_seconds``).
"""

from __future__ import annotations

import json
import pathlib
import shlex

import pytest

from repro.cli import _bench_cell, build_parser

ROOT = pathlib.Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_macro*.json"))


def test_root_records_exist():
    assert {p.name for p in RECORDS} >= {
        "BENCH_macro.json",
        "BENCH_macro_smiless.json",
        "BENCH_macro_sharded.json",
    }


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_matches_its_command(path):
    record = json.loads(path.read_text())
    assert record["provenance"]["git_sha"]
    assert record["end_to_end_seconds"] > record["wall_clock_seconds"] > 0
    program, *argv = shlex.split(record["generated_by"])
    assert program == "repro"
    args = build_parser().parse_args(argv)
    assert args.invocations == record["invocations_target"]
    cell = _bench_cell(args)
    env = cell.envs[0]
    assert {
        "preset": record["preset"],
        "policy": record["policy"],
        "retention": record["retention"],
        "sla": record["sla"],
        "seed": record["seed"],
        "duration": record["duration"],
        "slices_per_app": record.get("slices_per_app", 1),
    } == {
        "preset": env.preset,
        "policy": cell.policy,
        "retention": cell.retention,
        "sla": env.sla,
        "seed": env.seed,
        "duration": env.duration,
        "slices_per_app": cell.slices_per_app,
    }
