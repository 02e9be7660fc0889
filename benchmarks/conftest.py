"""Shared fixtures for the figure-regeneration benchmarks.

Each ``test_figXX_*`` benchmark regenerates the rows/series of one paper
table or figure and writes them to ``benchmarks/results/<name>.txt`` (the
text is also printed; run ``pytest benchmarks/ --benchmark-only -s`` to see
it inline).  EXPERIMENTS.md records the paper-vs-measured comparison.

Heavy artifacts — offline profiles, trained predictors, the full Fig. 8
policy-comparison runs — are session-scoped so the suite stays fast.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass

import pytest

from repro.dag import amber_alert, image_query, voice_assistant
from repro.dag.graph import AppDAG
from repro.policies import (
    AquatopePolicy,
    GrandSLAmPolicy,
    IceBreakerPolicy,
    OptimalPolicy,
    OrionPolicy,
    SMIlessPolicy,
)
from repro.predictor import InterArrivalPredictor, InvocationPredictor
from repro.profiler import OfflineProfiler, oracle_profile
from repro.simulator import Runtime
from repro.workload import AzureLikeWorkload, Trace

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Evaluation duration per app (the paper runs 2 h; 600 s keeps the full
#: bench suite tractable while preserving every qualitative comparison).
EVAL_DURATION = 600.0
TRAIN_DURATION = 3600.0

#: Each Fig. 7 application is driven by its own workload regime.  The
#: burst regime is studied separately (Fig. 14/15, ``burst_setup``).
APP_PRESETS = {
    "amber-alert": "steady",
    "image-query": "diurnal",
    "voice-assistant": "steady",
}

POLICY_NAMES = ("smiless", "orion", "icebreaker", "grandslam", "aquatope", "opt")


@dataclass
class AppSetup:
    """Everything one application's experiments need."""

    app: AppDAG
    profiles: dict
    oracle: dict
    train_counts: "object"
    trace: Trace
    invocation_predictor: InvocationPredictor
    interarrival_predictor: InterArrivalPredictor

    def make_policy(self, name: str):
        """Fresh policy instance by name (trained predictors shared)."""
        if name == "smiless":
            return SMIlessPolicy(
                self.profiles,
                invocation_predictor=self.invocation_predictor,
                interarrival_predictor=self.interarrival_predictor,
                seed=0,
            )
        if name == "orion":
            return OrionPolicy(self.profiles)
        if name == "icebreaker":
            return IceBreakerPolicy(self.profiles, train_counts=self.train_counts)
        if name == "grandslam":
            return GrandSLAmPolicy(self.profiles)
        if name == "aquatope":
            return AquatopePolicy(self.profiles)
        if name == "opt":
            return OptimalPolicy(self.oracle, self.trace)
        raise KeyError(name)

    def run(self, policy_name: str, *, trace: Trace | None = None, seed: int = 3):
        """Simulate one policy on this app's trace."""
        rt = Runtime()
        rt.add_app(
            self.app,
            trace or self.trace,
            self.make_policy(policy_name),
            seed=seed,
        )
        return rt.run()[self.app.name]


def _build_setup(app: AppDAG, preset: str, seed_base: int) -> AppSetup:
    profiles = OfflineProfiler().profile_app(app, rng=seed_base)
    oracle = {s.name: oracle_profile(s.profile, n_sigma=1.0) for s in app.specs}
    train = AzureLikeWorkload.preset(preset, seed=seed_base).generate(TRAIN_DURATION)
    trace = AzureLikeWorkload.preset(preset, seed=seed_base + 100).generate(
        EVAL_DURATION
    )
    counts = train.counts_per_window(1.0)
    inv_pred = InvocationPredictor(
        bucket_size=app.min_batch(), n_buckets=16, epochs=4, seed=0
    ).fit(counts)
    ia_pred = InterArrivalPredictor(epochs=15, seed=0).fit(counts)
    return AppSetup(
        app=app,
        profiles=profiles,
        oracle=oracle,
        train_counts=counts,
        trace=trace,
        invocation_predictor=inv_pred,
        interarrival_predictor=ia_pred,
    )


@pytest.fixture(scope="session")
def setups() -> dict[str, AppSetup]:
    """Profiled + predictor-trained setups for the three Fig. 7 apps."""
    apps = {
        "amber-alert": amber_alert(),
        "image-query": image_query(),
        "voice-assistant": voice_assistant(),
    }
    return {
        name: _build_setup(app, APP_PRESETS[name], seed_base=11 + i)
        for i, (name, app) in enumerate(apps.items())
    }


@pytest.fixture(scope="session")
def burst_setup() -> AppSetup:
    """Voice Assistant under the bursty regime (Fig. 14/15)."""
    return _build_setup(voice_assistant(), "bursty", seed_base=21)


@pytest.fixture(scope="session")
def e2e_runs(setups):
    """The Fig. 8/9 grid: every policy on every application."""
    runs = {}
    for app_name, setup in setups.items():
        for policy_name in POLICY_NAMES:
            runs[(app_name, policy_name)] = setup.run(policy_name)
    return runs


def emit(name: str, text: str) -> str:
    """Print a regenerated table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text)
    print(f"\n{text}")
    return text
