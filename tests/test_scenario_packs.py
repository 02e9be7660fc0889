"""Scenario-pack specs and invariant checks (no simulations run here).

The packs' full runs are exercised by the CI smoke step and documented in
EXPERIMENTS.md; these tests pin the cheap parts — spec shape, check logic
over fabricated cell results, CLI argument validation — so a regression
fails in milliseconds instead of minutes.
"""

import pytest

from repro.experiments.packs import (
    PACK_NAMES,
    PackReport,
    _conservation_check,
    _overload_checks,
    _progress_check,
    _swap_checks,
    pack_spec,
)
from repro.experiments.parallel import CellResult, EnvSpec, MultiAppCellSpec
from repro.policies import policy_names


def result(app, policy, *, summary=None, **extras):
    defaults = dict(
        completed=10, unfinished=0, timed_out=0, arrivals=10,
        shed=0, rejected=0, injected_arrivals=0, peak_queue_depth=0,
        initializations=5, swap_ins=0,
    )
    defaults.update(extras)
    return CellResult(
        spec=MultiAppCellSpec(envs=(EnvSpec(app=app),), policy=policy),
        summary={app: summary or {}},
        wall_clock=0.1,
        events_processed=100,
        extras={app: defaults},
    )


def test_pack_specs_cover_every_policy():
    assert PACK_NAMES == ("llm", "gpu-swap", "overload")
    llm = pack_spec("llm")
    assert llm.apps == ("llm-chat",)
    assert llm.policies == tuple(policy_names())
    swap = pack_spec("gpu-swap")
    assert set(swap.apps) == {"image-query-swap", "image-query"}
    assert swap.policies == tuple(policy_names())
    overload = pack_spec("overload")
    assert overload.apps == ("image-query",)
    assert overload.policies == tuple(policy_names())
    assert overload.overload is not None
    assert overload.overload.queue_limit is not None
    assert overload.overload.admission_rate is not None
    assert overload.faults is not None and overload.faults.flash_crowds
    with pytest.raises(KeyError, match="unknown scenario pack"):
        pack_spec("nope")


def test_pack_spec_threads_azure_trace():
    spec = pack_spec("llm", azure_trace="/tmp/trace.csv")
    assert spec.azure_trace == "/tmp/trace.csv"
    assert pack_spec("llm").azure_trace is None


def test_conservation_check_flags_leaks():
    good = [result("a", "p1"), result("a", "p2")]
    assert _conservation_check(good).passed
    leaky = good + [result("a", "p3", arrivals=11)]
    check = _conservation_check(leaky)
    assert not check.passed
    assert "a/p3" in check.detail


def test_conservation_check_extended_identity():
    # Offered load (trace + injected) balances against the five-way
    # accounting: completed, unfinished, timed out, shed, rejected.
    balanced = result(
        "a", "p", arrivals=10, injected_arrivals=6,
        completed=9, timed_out=1, shed=4, rejected=2,
    )
    assert _conservation_check([balanced]).passed
    # A shed invocation with no matching offered arrival is a leak.
    leaky = result("a", "p", shed=1)
    check = _conservation_check([leaky])
    assert not check.passed
    assert "11 accounted" in check.detail


def test_overload_checks_bound_activity_and_uplift():
    spec = pack_spec("overload")
    limit = spec.overload.queue_limit

    def on(policy, *, peak=None, goodput=0.6):
        return result(
            "image-query", policy, injected_arrivals=6, completed=9,
            timed_out=1, shed=4, rejected=2,
            peak_queue_depth=limit if peak is None else peak,
            summary={"goodput": goodput},
        )

    def off(policy, *, goodput=0.2):
        return result(
            "image-query", policy, injected_arrivals=6, completed=16,
            summary={"goodput": goodput},
        )

    bound, activity, uplift = _overload_checks(spec, [on("p")], [off("p")])
    assert bound.passed and activity.passed and uplift.passed

    bound, _, _ = _overload_checks(
        spec, [on("p", peak=limit + 1)], [off("p")]
    )
    assert not bound.passed and "peak depth" in bound.detail

    _, _, uplift = _overload_checks(
        spec, [on("p", goodput=0.2)], [off("p", goodput=0.2)]
    )
    assert not uplift.passed and "p: goodput" in uplift.detail

    _, _, uplift = _overload_checks(spec, [on("p")], [])
    assert not uplift.passed and "no twin pairs" in uplift.detail


def test_progress_check_flags_stalled_cells():
    assert _progress_check([result("a", "p")]).passed
    check = _progress_check([result("a", "p", completed=0)])
    assert not check.passed
    assert "a/p" in check.detail


def test_swap_checks_require_activity_and_strict_reduction():
    swapping = [
        result("image-query-swap", "p", initializations=10, swap_ins=4),
        result("image-query", "p", initializations=9),
    ]
    activity, reduction = _swap_checks(swapping)
    assert activity.passed and reduction.passed

    idle = [
        result("image-query-swap", "p"),
        result("image-query", "p"),
    ]
    activity, reduction = _swap_checks(idle)
    assert not activity.passed and not reduction.passed

    regressed = [
        result("image-query-swap", "p", initializations=12, swap_ins=2),
        result("image-query", "p", initializations=9),
    ]
    activity, reduction = _swap_checks(regressed)
    assert activity.passed and not reduction.passed
    assert "10 cold starts" in reduction.detail


def test_pack_report_ok_and_rows():
    res = result(
        "llm-chat",
        "smiless",
        summary={
            "total_cost": 1.0, "violation_ratio": 0.0, "mean_latency": 1.0,
            "p99_latency": 2.0, "reinit_fraction": 0.0,
        },
    )
    report = PackReport(
        pack="llm",
        spec=pack_spec("llm"),
        results=[res],
        checks=[_conservation_check([res])],
    )
    assert report.ok
    rows = report.rows()
    assert len(rows) == 1
    assert rows[0].app == "llm-chat" and rows[0].policy == "smiless"


def test_cli_scenario_requires_exactly_one_source(capsys):
    from repro.cli import main

    assert main(["scenario"]) == 2
    assert "exactly one of" in capsys.readouterr().err
    # Both a spec file and a preset is also ambiguous.
    assert main(["scenario", "spec.json", "--preset", "llm"]) == 2
