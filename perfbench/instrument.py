"""Attach the benchmark's span wrappers to the program's public calls.

Every wrapper sits at a layer boundary the benchmark measures (see
``NOTES.md``); nothing inside the program is edited.  Methods are found
by name on the classes the program exports, so a method a later change
adds to a wrapped class is traced without touching this file.
"""

from __future__ import annotations

from spans import SpanRecorder

POLICY_HOOKS = ("on_window", "on_arrival", "on_stage_complete")


def _subclasses(cls):
    seen = [cls]
    for sub in cls.__subclasses__():
        seen.extend(_subclasses(sub))
    return seen


def install(rec: SpanRecorder) -> None:
    """Wrap the public calls of every measured layer (imports the program)."""
    import repro.experiments.runners as runners
    import repro.policies.smiless as smiless
    from repro.core.autoscaler import AutoScaler
    from repro.core.workflow import WorkflowManager
    from repro.hardware.perfmodel import GroundTruthPerformance
    from repro.policies.base import Policy
    from repro.predictor.interarrival import InterArrivalPredictor
    from repro.predictor.invocation import InvocationPredictor
    from repro.profiler import OfflineProfiler
    from repro.simulator.gateway import Gateway
    from repro.simulator.pools import InstancePool
    from repro.simulator.runtime import Runtime
    from repro.workload import AzureLikeWorkload

    # Set-up.
    rec.patch(runners, "build_environment", "experiments.build_environment")
    rec.patch(OfflineProfiler, "profile_app", "profiler.profile_app")
    rec.patch(AzureLikeWorkload, "generate", "workload.generate")
    rec.patch(runners, "pretrain_predictors", "predictor.pretrain")
    rec.patch(smiless, "pretrain_predictors", "predictor.pretrain")
    # Engine, pools and service-time oracles.
    rec.patch(Runtime, "run", "simulator.run")
    rec.patch_public_methods(InstancePool, "pools")
    rec.patch_public_methods(GroundTruthPerformance, "hardware")
    rec.patch(Gateway, "finalize", "metrics.finalize")
    # Policy path.
    for cls in _subclasses(Policy):
        for hook in POLICY_HOOKS:
            if hook in vars(cls):
                rec.patch(cls, hook, f"policies.{hook}")
    rec.patch(WorkflowManager, "optimize", "core.optimize")
    rec.patch(AutoScaler, "plan", "core.autoscale")
    rec.patch(AutoScaler, "plan_all", "core.autoscale")
    rec.patch(InvocationPredictor, "predict_next", "predictor.predict")
    rec.patch(InterArrivalPredictor, "predict_next", "predictor.predict")


def install_serving(rec: SpanRecorder) -> None:
    """Wrap the live-serving driver and request log."""
    import repro.serving as serving
    from repro.serving import RequestLogWriter, SimDriver

    rec.patch(serving, "verify_replay", "serving.replay")
    rec.patch(SimDriver, "submit", "serving.submit")
    rec.patch(SimDriver, "advance_while_busy", "serving.advance")
    rec.patch(SimDriver, "advance_to", "serving.advance")
    rec.patch(SimDriver, "finish", "serving.finish")
    for method in ("header", "request", "response", "summary", "close"):
        rec.patch(RequestLogWriter, method, "requestlog.write")
