"""Tests for multi-application co-scheduling on a shared cluster."""

import pytest

from repro.dag import image_query, linear_pipeline, voice_assistant
from repro.hardware import HardwareConfig
from repro.policies import AlwaysOnPolicy, OnDemandPolicy
from repro.profiler import OfflineProfiler
from repro.policies import SMIlessPolicy
from repro.simulator import Cluster, Deployment, MultiAppSimulator
from repro.workload import Trace, constant_rate_process


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MultiAppSimulator([])

    def test_rejects_duplicate_names(self):
        app = linear_pipeline(1, models=("IR",))
        dep = Deployment(app, Trace([1.0], duration=5.0), AlwaysOnPolicy())
        with pytest.raises(ValueError, match="duplicate"):
            MultiAppSimulator([dep, dep])


class TestCoRunning:
    def make_deps(self):
        deps = []
        for i, models in enumerate((("IR",), ("DB",))):
            app = linear_pipeline(1, models=models)
            # distinct app names
            app = type(app)(f"app{i}", app.specs, [], sla=app.sla)
            trace = constant_rate_process(10.0, 60.0, offset=5.0 + i)
            deps.append(Deployment(app, trace, AlwaysOnPolicy()))
        return deps

    def test_all_apps_complete(self):
        sim = MultiAppSimulator(self.make_deps(), seed=0)
        results = sim.run()
        assert set(results) == {"app0", "app1"}
        for m in results.values():
            assert len(m.invocations) == 6
            assert m.unfinished == 0

    def test_shared_clock(self):
        """Both apps' events interleave on one timeline."""
        sim = MultiAppSimulator(self.make_deps(), seed=0)
        results = sim.run()
        ends = [m.duration for m in results.values()]
        assert ends[0] == ends[1]  # finalized at the same shared clock

    def test_capacity_contention_across_apps(self):
        """One app's fleet can starve another on a tiny shared cluster."""
        cluster = Cluster.build(n_machines=1, cores_per_machine=16)
        hog_app = linear_pipeline(1, models=("IR",))
        hog_app = type(hog_app)("hog", hog_app.specs, [], sla=2.0)
        victim_app = linear_pipeline(1, models=("DB",))
        victim_app = type(victim_app)("victim", victim_app.specs, [], sla=2.0)
        deps = [
            Deployment(
                hog_app,
                Trace([5.0], duration=120.0),
                AlwaysOnPolicy(config=HardwareConfig.cpu(16)),
            ),
            Deployment(
                victim_app,
                Trace([30.0], duration=120.0),
                OnDemandPolicy(config=HardwareConfig.cpu(16)),
            ),
        ]
        results = MultiAppSimulator(deps, cluster=cluster, seed=0).run()
        # the always-on hog holds all 16 cores; the victim's cold start
        # waits for capacity that never frees within its window
        victim = results["victim"]
        assert victim.unfinished == 1 or victim.latencies().max() > 10.0

    def test_smiless_multiapp_end_to_end(self):
        """The full paper setting: SMIless serving co-running DAG apps."""
        deps = []
        for i, appf in enumerate((image_query, voice_assistant)):
            app = appf()
            profiles = OfflineProfiler().profile_app(app, rng=50 + i)
            trace = constant_rate_process(6.0, 120.0, offset=3.0 + i)
            deps.append(Deployment(app, trace, SMIlessPolicy(profiles)))
        results = MultiAppSimulator(deps, seed=1).run()
        for name, m in results.items():
            assert len(m.invocations) + m.unfinished == 20, name
            assert m.violation_ratio() < 0.5, name
