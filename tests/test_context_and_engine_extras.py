"""Coverage for SimulationContext plumbing and OptimizerEngine extras."""

import pytest

from repro.core import OptimizerEngine
from repro.dag import image_query, linear_pipeline
from repro.hardware import ConfigurationSpace, HardwareConfig
from repro.policies import AlwaysOnPolicy
from repro.policies.base import Policy
from repro.profiler import oracle_profile
from repro.simulator import FunctionDirective, Runtime
from repro.workload import Trace

SPACE = ConfigurationSpace.default()


def oracle_profiles(app):
    return {s.name: oracle_profile(s.profile, n_sigma=1.0) for s in app.specs}


class ProbePolicy(Policy):
    """Records context observations at chosen times."""

    name = "probe"

    def __init__(self):
        self.observations = []

    def on_register(self, app, ctx):
        for fn in app.function_names:
            ctx.set_directive(
                fn,
                FunctionDirective(
                    config=HardwareConfig.cpu(4), keep_alive=float("inf"), min_warm=1
                ),
            )
            ctx.schedule_warmup(fn, 0.0)

    def on_window(self, t, ctx):
        fn = ctx.app.function_names[0]
        self.observations.append(
            dict(
                t=t,
                live=ctx.live_count(fn),
                live_cpu4=ctx.live_count(fn, HardwareConfig.cpu(4)),
                live_gpu=ctx.live_count(fn, HardwareConfig.gpu(0.1)),
                idle=ctx.idle_count(fn),
                queue=ctx.queue_length(fn),
                window=ctx.window,
                counts=ctx.counts_history().tolist(),
            )
        )


class TestSimulationContext:
    @pytest.fixture
    def probe_run(self):
        app = linear_pipeline(1, models=("IR",))
        trace = Trace([5.0, 15.0], duration=30.0)
        policy = ProbePolicy()
        rt = Runtime()
        rt.add_app(app, trace, policy, seed=0)
        rt.run()
        return policy.observations

    def test_live_counts_respect_config_filter(self, probe_run):
        late = probe_run[-1]
        assert late["live"] == late["live_cpu4"] == 1
        assert late["live_gpu"] == 0

    def test_window_and_counts_history(self, probe_run):
        assert probe_run[0]["window"] == 1.0
        # counts history grows by one entry per tick
        lengths = [len(o["counts"]) for o in probe_run]
        assert lengths == sorted(lengths)
        assert sum(probe_run[-1]["counts"]) == 2

    def test_queue_mostly_empty_with_warm_fleet(self, probe_run):
        assert all(o["queue"] == 0 for o in probe_run[5:])

    def test_set_directive_rejects_unknown_function(self):
        app = linear_pipeline(1, models=("IR",))

        class Bad(Policy):
            name = "bad"

            def on_register(self, app, ctx):
                ctx.set_directive(
                    "ghost",
                    FunctionDirective(config=HardwareConfig.cpu(1)),
                )

        with pytest.raises(KeyError):
            rt = Runtime()
            rt.add_app(app, Trace([1.0], duration=5.0), Bad(), seed=0)
            rt.run()

    def test_schedule_warmup_rejects_unknown_function(self):
        app = linear_pipeline(1, models=("IR",))

        class Bad(Policy):
            name = "bad"

            def on_register(self, app, ctx):
                for fn in app.function_names:
                    ctx.set_directive(
                        fn, FunctionDirective(config=HardwareConfig.cpu(1))
                    )
                ctx.schedule_warmup("ghost", 0.0)

        with pytest.raises(KeyError):
            rt = Runtime()
            rt.add_app(app, Trace([1.0], duration=5.0), Bad(), seed=0)
            rt.run()

    def test_schedule_warmup_rejects_zero_count(self):
        app = linear_pipeline(1, models=("IR",))

        class Bad(AlwaysOnPolicy):
            def on_register(self, app, ctx):
                super().on_register(app, ctx)
                ctx.schedule_warmup(app.function_names[0], 0.0, count=0)

        with pytest.raises(ValueError):
            rt = Runtime()
            rt.add_app(app, Trace([1.0], duration=5.0), Bad(), seed=0)
            rt.run()


class TestOptimizerEngineExtras:
    @pytest.fixture
    def setup(self):
        app = image_query()
        profiles = oracle_profiles(app)
        engine = OptimizerEngine(SPACE)
        strategy = engine.strategy(app, profiles, 4.0)
        return app, profiles, engine, strategy

    def test_scale_with_budget_override(self, setup):
        app, profiles, engine, strategy = setup
        generous = {fn: 5.0 for fn in app.function_names}
        decisions = engine.scale(
            app, profiles, strategy, 16, 1.0, budgets=generous
        )
        # generous budgets allow heavy batching: few instances suffice
        assert all(d.instances <= 4 for d in decisions.values())
        tight = {fn: strategy.plan(fn).inference_time for fn in app.function_names}
        tight_decisions = engine.scale(
            app, profiles, strategy, 16, 1.0, budgets=tight
        )
        assert sum(d.instances for d in tight_decisions.values()) >= sum(
            d.instances for d in decisions.values()
        )

    def test_scale_with_max_init_time(self, setup):
        app, profiles, engine, strategy = setup
        decisions = engine.scale(
            app, profiles, strategy, 8, 1.0,
            budgets={fn: 2.0 for fn in app.function_names},
            max_init_time=4.0,
        )
        for fn, d in decisions.items():
            if d.feasible:
                assert profiles[fn].init_time(d.config) <= 4.0

    def test_strategy_with_sla_override_is_feasible(self, setup):
        app, profiles, engine, _ = setup
        strategy = engine.strategy(app, profiles, 4.0, sla=1.0)
        assert strategy.feasible
        assert strategy.latency <= 1.0 + 1e-9
