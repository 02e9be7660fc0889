"""Curated scenario packs: beyond-paper regimes with built-in validation.

A *pack* is a named, pre-baked :class:`~repro.experiments.scenario.ScenarioSpec`
plus the invariant checks that make its results trustworthy without manual
inspection.  Two packs ship with the repo (``repro scenario --preset NAME``):

``llm``
    The token-driven LLM archetype (``llm-chat``) under every registered
    policy.  Service times are work-dependent (per-invocation prompt and
    generation lengths), the regime the paper's fixed-latency model cannot
    express.

``gpu-swap``
    The swap-capable GPU regime: ``image-query-swap`` (host↔GPU model
    paging) side by side with its no-swap twin ``image-query`` under every
    registered policy, isolating what swapping buys.

``overload``
    A flash crowd (a 20 rps arrival spike injected mid-run through the
    fault plan) hitting ``image-query`` under every registered policy,
    with an :class:`~repro.overload.OverloadSpec` attached — bounded
    queues with deadline-aware shedding, token-bucket admission and
    brownout degradation.  Every cell runs twice: once protected and once
    as an unprotected twin (``overload=None``), isolating what shedding
    buys under the same crowd.

Every pack validates the extended conservation identity on each cell —
``arrivals + injected_arrivals == completed + unfinished + timed_out +
shed + rejected``, with arrivals taken from the *trace*, not re-derived
from the metrics (the identity reduces to the classic three-term form
when no overload spec or flash crowd is attached).  The ``gpu-swap`` pack
additionally requires swap-in activity and a strict cold-start reduction
versus the no-swap baseline for every policy that swapped; the
``overload`` pack requires bounded peak queue depth, shedding activity,
and strictly higher goodput for every policy's protected cell than its
unprotected twin.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from repro.experiments.parallel import CellResult, run_grid
from repro.experiments.runners import ScenarioRow, scenario_rows
from repro.experiments.scenario import ScenarioSpec
from repro.faults import FaultPlan, FlashCrowd
from repro.overload import OverloadSpec
from repro.policies import policy_names

__all__ = [
    "PACK_NAMES",
    "PackCheck",
    "PackReport",
    "pack_spec",
    "run_pack",
]

#: Pack runs are meant to finish in minutes on a laptop: a short horizon,
#: a modest training history, every policy in the registry.
PACK_DURATION = 180.0
PACK_TRAIN_DURATION = 1200.0


def _llm_spec() -> ScenarioSpec:
    return ScenarioSpec(
        apps=("llm-chat",),
        policies=tuple(policy_names()),
        slas=(6.0,),
        presets=("steady",),
        seeds=(3,),
        duration=PACK_DURATION,
        train_duration=PACK_TRAIN_DURATION,
    )


def _gpu_swap_spec() -> ScenarioSpec:
    # The swap app first: its rows lead the report, and the baseline twin
    # follows at the same coordinates for a cell-by-cell comparison.
    # Bursty arrivals under a tight SLA are the regime where swapping
    # matters: GPU placements churn (instances expire between bursts and
    # cold-launch again), so a host-resident model gets re-used instead of
    # re-initialized.  Under steady load policies either keep their GPU
    # instances warm forever or stay on CPU, and no swap ever fires.
    return ScenarioSpec(
        apps=("image-query-swap", "image-query"),
        policies=tuple(policy_names()),
        slas=(1.0,),
        presets=("bursty",),
        seeds=(3,),
        duration=PACK_DURATION,
        train_duration=PACK_TRAIN_DURATION,
    )


def _overload_spec() -> ScenarioSpec:
    # A mid-run flash crowd two orders of magnitude above the steady rate
    # (~0.2 rps): heavy enough that *no* policy can absorb it by scaling,
    # so the unprotected twin drowns in backlog and the goodput-uplift
    # check binds for every policy.  The spec engages three of the four
    # mechanisms (bounded queues + deadline-aware shedding, token-bucket
    # admission, brownout); circuit breakers are wired but stay closed —
    # no execution faults are injected here (unit tests trip them).
    return ScenarioSpec(
        apps=("image-query",),
        policies=tuple(policy_names()),
        slas=(2.0,),
        presets=("steady",),
        seeds=(3,),
        duration=PACK_DURATION,
        train_duration=PACK_TRAIN_DURATION,
        faults=FaultPlan(
            flash_crowds=(FlashCrowd(rate=100.0, start=60.0, end=90.0),)
        ),
        overload=OverloadSpec(
            queue_limit=32,
            shed_policy="deadline-aware",
            admission_rate=50.0,
            admission_burst=50.0,
            brownout_queue_delay=4.0,
            brownout_recover_delay=1.0,
        ),
    )


_PACK_BUILDERS: dict[str, Callable[[], ScenarioSpec]] = {
    "llm": _llm_spec,
    "gpu-swap": _gpu_swap_spec,
    "overload": _overload_spec,
}

#: Names accepted by ``repro scenario --preset``.
PACK_NAMES = tuple(_PACK_BUILDERS)


def pack_spec(name: str, *, azure_trace: str | None = None) -> ScenarioSpec:
    """The scenario spec behind a named pack (optionally on an Azure trace)."""
    try:
        spec = _PACK_BUILDERS[name]()
    except KeyError:
        raise KeyError(
            f"unknown scenario pack {name!r}; available: {', '.join(PACK_NAMES)}"
        ) from None
    if azure_trace is not None:
        spec = dataclasses.replace(spec, azure_trace=azure_trace)
    return spec


@dataclass(frozen=True)
class PackCheck:
    """One validated invariant of a pack run."""

    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class PackReport:
    """Everything a pack run produced: spec, cell results, invariant checks."""

    pack: str
    spec: ScenarioSpec
    results: list[CellResult]
    checks: list[PackCheck]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def rows(self) -> list[ScenarioRow]:
        """Scenario-shaped rows, one per (cell, app)."""
        return [row for res in self.results for row in scenario_rows(res)]


def _per_app(results: list[CellResult]):
    """``(policy, app, summary, extras)`` for every app of every cell."""
    for res in results:
        for app, extras in res.extras.items():
            yield res.spec.policy, app, res.summary[app], extras


def _conservation_check(results: list[CellResult]) -> PackCheck:
    bad = []
    cells = list(_per_app(results))
    for policy, app, _, x in cells:
        # Extended identity: every offered invocation (trace + fault-plan
        # injections) is completed, open at the horizon, timed out, shed
        # from a bounded queue, or rejected at admission — exactly once.
        accounted = (
            x["completed"]
            + x["unfinished"]
            + x["timed_out"]
            + x["shed"]
            + x["rejected"]
        )
        offered = x["arrivals"] + x["injected_arrivals"]
        if offered != accounted:
            bad.append(
                f"{app}/{policy}: {offered} offered vs {accounted} accounted"
            )
    detail = (
        f"all {len(cells)} cells conserve invocations"
        if not bad
        else "; ".join(bad)
    )
    return PackCheck(name="conservation", passed=not bad, detail=detail)


def _progress_check(results: list[CellResult]) -> PackCheck:
    stalled = [
        f"{app}/{policy}"
        for policy, app, _, x in _per_app(results)
        if x["completed"] == 0
    ]
    detail = (
        "every cell completed invocations"
        if not stalled
        else f"no completions in: {', '.join(stalled)}"
    )
    return PackCheck(name="progress", passed=not stalled, detail=detail)


def _swap_checks(results: list[CellResult]) -> list[PackCheck]:
    """Swap-regime invariants: activity, and cold-start reduction vs twin.

    An instance launch is a *cold start* when it pays the full
    initialization; a swap-in replaces that with host→GPU paging, so the
    swap app's cold-start count is ``initializations - swap_ins``.  The
    reduction check is per policy and only binds where the policy actually
    swapped (CPU-only placements never touch the residency cache).
    """
    by_policy: dict[str, dict[str, dict]] = {}
    for policy, app, _, x in _per_app(results):
        by_policy.setdefault(policy, {})[app] = x
    total_swaps = 0
    regressions = []
    compared = 0
    for policy, cells in sorted(by_policy.items()):
        swap = cells.get("image-query-swap")
        base = cells.get("image-query")
        if swap is None or base is None:
            continue
        swap_ins = swap["swap_ins"]
        total_swaps += swap_ins
        if swap_ins == 0:
            continue
        compared += 1
        cold = swap["initializations"] - swap_ins
        if cold >= base["initializations"]:
            regressions.append(
                f"{policy}: {cold} cold starts with swapping vs "
                f"{base['initializations']} without"
            )
    checks = [
        PackCheck(
            name="swap-activity",
            passed=total_swaps > 0,
            detail=f"{total_swaps} swap-ins across all policies",
        ),
        PackCheck(
            name="cold-start-reduction",
            passed=not regressions and compared > 0,
            detail=(
                f"{compared} policies swapped; each has strictly fewer "
                "cold starts than its no-swap twin"
                if not regressions and compared > 0
                else "; ".join(regressions) or "no policy swapped"
            ),
        ),
    ]
    return checks


def _overload_checks(
    spec: ScenarioSpec,
    protected: list[CellResult],
    unprotected: list[CellResult],
) -> list[PackCheck]:
    """Overload-regime invariants: bounded queues, activity, goodput uplift.

    The bound check is structural — a protected cell's deepest observed
    queue can never exceed ``queue_limit`` because admission to a full
    queue sheds first.  The uplift check is the economic one: under the
    same flash crowd, every policy's protected run must serve strictly
    more of the offered load within the SLA than its unprotected twin
    (sheds and rejections count against goodput, so the uplift is earned
    by keeping the survivors fast, not by discarding the denominator).
    """
    limit = spec.overload.queue_limit
    over = [
        f"{app}/{policy}: peak depth {x['peak_queue_depth']} > limit {limit}"
        for policy, app, _, x in _per_app(protected)
        if x["peak_queue_depth"] > limit
    ]
    total_shed = sum(
        x["shed"] + x["rejected"] for *_, x in _per_app(protected)
    )
    by_policy: dict[str, dict[str, dict]] = {}
    for side, results in (("on", protected), ("off", unprotected)):
        for policy, _, summary, _ in _per_app(results):
            by_policy.setdefault(policy, {})[side] = summary
    regressions = []
    compared = 0
    for policy, pair in sorted(by_policy.items()):
        if "on" not in pair or "off" not in pair:
            continue
        compared += 1
        g_on = pair["on"]["goodput"]
        g_off = pair["off"]["goodput"]
        if not g_on > g_off:
            regressions.append(
                f"{policy}: goodput {g_on:.3f} with shedding vs "
                f"{g_off:.3f} without"
            )
    return [
        PackCheck(
            name="bounded-queues",
            passed=not over,
            detail=(
                f"every protected cell's peak queue depth <= {limit}"
                if not over
                else "; ".join(over)
            ),
        ),
        PackCheck(
            name="shed-activity",
            passed=total_shed > 0,
            detail=(
                f"{total_shed} invocations shed or rejected across "
                "all protected cells"
            ),
        ),
        PackCheck(
            name="goodput-uplift",
            passed=not regressions and compared > 0,
            detail=(
                f"{compared} policies compared; each serves strictly more "
                "within-SLA load protected than unprotected"
                if not regressions and compared > 0
                else "; ".join(regressions) or "no twin pairs to compare"
            ),
        ),
    ]


def run_pack(
    name: str,
    *,
    workers: int = 1,
    azure_trace: str | None = None,
) -> PackReport:
    """Run a named pack end-to-end and validate its invariants.

    The ``overload`` pack doubles its grid: every cell also runs as an
    unprotected twin (``overload=None``) under the identical flash crowd,
    feeding the goodput-uplift check.  The report's ``results`` carry the
    protected cells only; the twins exist to be compared against.
    """
    spec = pack_spec(name, azure_trace=azure_trace)
    cells = spec.cells()
    if name == "overload":
        twins = [dataclasses.replace(c, overload=None) for c in cells]
        everything = run_grid(cells + twins, workers=workers)
        results = everything[: len(cells)]
        unprotected = everything[len(cells):]
    else:
        results = run_grid(cells, workers=workers)
        unprotected = []
    checks = [
        _conservation_check(results + unprotected),
        _progress_check(results),
    ]
    if name == "gpu-swap":
        checks.extend(_swap_checks(results))
    if name == "overload":
        checks.extend(_overload_checks(spec, results, unprotected))
    return PackReport(pack=name, spec=spec, results=results, checks=checks)
