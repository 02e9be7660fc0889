"""Tests for the Runtime/Gateway core and the experiment facade over it."""

import pytest

from repro.dag import linear_pipeline
from repro.hardware import HardwareConfig
from repro.policies import AlwaysOnPolicy, OnDemandPolicy
from repro.simulator import (
    Cluster,
    Deployment,
    Gateway,
    MultiAppSimulator,
    Runtime,
    derive_app_seed,
)
from repro.workload import Trace, constant_rate_process


def named_app(name, models):
    app = linear_pipeline(1, models=models)
    return type(app)(name, app.specs, [], sla=app.sla)


def make_deps(names=("app0", "app1")):
    deps = []
    for i, (name, models) in enumerate(zip(names, (("IR",), ("DB",)))):
        trace = constant_rate_process(10.0, 60.0, offset=5.0 + i)
        deps.append(Deployment(named_app(name, models), trace, AlwaysOnPolicy()))
    return deps


class TestRuntimeAPI:
    def test_add_app_returns_gateway(self):
        rt = Runtime()
        gw = rt.add_app(
            named_app("a", ("IR",)), Trace([1.0], duration=5.0), AlwaysOnPolicy()
        )
        assert isinstance(gw, Gateway)
        assert rt.gateways == [gw]
        assert gw.cluster is rt.cluster
        assert gw.events is rt.events

    def test_duplicate_app_name_rejected(self):
        rt = Runtime()
        rt.add_app(
            named_app("a", ("IR",)), Trace([1.0], duration=5.0), AlwaysOnPolicy()
        )
        with pytest.raises(ValueError, match="duplicate"):
            rt.add_app(
                named_app("a", ("DB",)), Trace([2.0], duration=5.0), OnDemandPolicy()
            )

    def test_run_without_gateways_rejected(self):
        with pytest.raises(ValueError, match="no gateways"):
            Runtime().run()

    def test_negative_drain_timeout_rejected(self):
        with pytest.raises(ValueError):
            Runtime(drain_timeout=-1.0)

    def test_direct_runtime_matches_solo_facade(self):
        """A one-deployment co-run equals Runtime/add_app with the derived seed."""
        app = named_app("a", ("IR",))
        trace = constant_rate_process(10.0, 60.0, offset=5.0)

        rt = Runtime()
        rt.add_app(app, trace, AlwaysOnPolicy(), seed=derive_app_seed(4, "a"))
        direct = rt.run()["a"]

        facade = MultiAppSimulator(
            [Deployment(app, trace, AlwaysOnPolicy())], seed=4
        ).run()["a"]
        assert direct.summary() == facade.summary()

    def test_facade_exposes_runtime_and_gateway(self):
        sim = MultiAppSimulator(
            [
                Deployment(
                    named_app("a", ("IR",)),
                    Trace([1.0], duration=5.0),
                    AlwaysOnPolicy(),
                )
            ]
        )
        assert isinstance(sim.runtime, Runtime)
        assert sim.runtime.gateways == sim.gateways
        assert isinstance(sim.gateways[0], Gateway)
        # per-app state lives on the gateway, not on the facade
        assert sim.gateways[0].app.name == "a"
        assert not hasattr(sim, "app")
        assert sim.runtime.open_invocations == 0


class TestSeedDerivation:
    def test_name_seed_is_deterministic(self):
        assert derive_app_seed(7, "app0") == derive_app_seed(7, "app0")

    def test_name_seed_varies_with_name_and_seed(self):
        assert derive_app_seed(7, "app0") != derive_app_seed(7, "app1")
        assert derive_app_seed(7, "app0") != derive_app_seed(8, "app0")


class TestLegacySeedingGolden:
    """A shared runtime reproduces pre-refactor two-app co-runs.

    The expected values were captured from the monolithic engine (commit
    395b9fb) with ``seed=7`` and positional per-app seeds (``7 + index``),
    before the Runtime/Gateway split landed.  Seeding the gateways the same
    way through :meth:`Runtime.add_app` must reproduce them bit for bit.
    """

    def runtime(self):
        runtime = Runtime()
        for i, models in enumerate((("IR",), ("DB",))):
            policy = (
                AlwaysOnPolicy(config=HardwareConfig.cpu(4))
                if i == 0
                else OnDemandPolicy(config=HardwareConfig.cpu(4))
            )
            runtime.add_app(
                named_app(f"app{i}", models),
                constant_rate_process(10.0, 60.0, offset=5.0 + i),
                policy,
                seed=7 + i,
            )
        return runtime

    def test_bit_identical_to_pre_refactor(self):
        results = self.runtime().run()
        app0, app1 = results["app0"].summary(), results["app1"].summary()
        assert len(results["app0"].invocations) == 6
        assert len(results["app1"].invocations) == 6
        assert app0["total_cost"] == 0.002266666666666667
        assert app0["mean_latency"] == 0.34084285138092446
        assert app0["p99_latency"] == 0.3731914992026727
        assert app0["reinit_fraction"] == 0.0
        assert app1["total_cost"] == 0.00042886857505982496
        assert app1["violation_ratio"] == pytest.approx(1 / 3)
        assert app1["mean_latency"] == 1.8920672429109926
        assert app1["p99_latency"] == 2.0499902544794133
        assert app1["reinit_fraction"] == 1.0


class TestNameSeedingOrderIndependence:
    def run_pair(self, order):
        deps = make_deps()
        deps = [deps[i] for i in order]
        results = MultiAppSimulator(deps, seed=7).run()
        return {name: m.summary() for name, m in results.items()}

    def test_permuting_deployments_preserves_per_app_results(self):
        forward = self.run_pair((0, 1))
        reversed_ = self.run_pair((1, 0))
        assert forward == reversed_

    def test_legacy_mode_is_positional(self):
        """Positional (legacy) seeds exist only where a caller passes them
        to ``Runtime.add_app``; the facade always derives them by name."""
        legacy = TestLegacySeedingGolden().runtime()
        assert [gw.seed for gw in legacy.gateways] == [7, 8]
        sim = MultiAppSimulator(make_deps()[::-1], seed=7)
        assert [gw.seed for gw in sim.runtime.gateways] == [
            derive_app_seed(7, "app1"),
            derive_app_seed(7, "app0"),
        ]


class TestCrossAppBackPressure:
    """S4: cross-app queueing that a solo run cannot exhibit."""

    def victim_deployment(self):
        return Deployment(
            named_app("victim", ("DB",)),
            Trace([30.0], duration=120.0),
            OnDemandPolicy(config=HardwareConfig.cpu(16)),
        )

    def test_solo_victim_is_healthy(self):
        cluster = Cluster.build(n_machines=1, cores_per_machine=16)
        dep = self.victim_deployment()
        rt = Runtime(cluster=cluster)
        rt.add_app(dep.app, dep.trace, dep.policy, seed=0)
        metrics = rt.run()[dep.app.name]
        assert metrics.unfinished == 0
        assert metrics.latencies().max() < 10.0

    def test_co_run_hog_starves_victim(self):
        cluster = Cluster.build(n_machines=1, cores_per_machine=16)
        hog = Deployment(
            named_app("hog", ("IR",)),
            Trace([5.0], duration=120.0),
            AlwaysOnPolicy(config=HardwareConfig.cpu(16)),
        )
        results = MultiAppSimulator(
            [hog, self.victim_deployment()], cluster=cluster, seed=0
        ).run()
        victim = results["victim"]
        # the always-on hog pins all 16 cores; the victim's cold start
        # queues behind capacity that never frees in its window
        assert victim.unfinished == 1 or victim.latencies().max() > 10.0
