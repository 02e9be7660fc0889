"""The SMIless policy: the paper's full system in simulator form.

Wires together the Optimizer Engine (strategy = configuration + adaptive
cold-start policy per function), the Online Predictor (LSTM invocation and
inter-arrival forecasts with conservative fallbacks while history is short)
and the Auto-scaler (batching + scale-out under bursts):

- functions in the *pre-warm* regime run with ``keep_alive = 0`` and get a
  warm-up scheduled per arrival at ``t_next + offset(fn) - T(fn)``, where
  ``offset(fn)`` is the function's start offset along the DAG critical path
  — initialization thereby overlaps upstream inference (§V-B1, Fig. 5a);
- functions in the *keep-alive* regime hold their instance for a little
  over the predicted inter-arrival time (§V-B1, Case II);
- when the predicted invocation count would overload sequential instances,
  the Auto-scaler's Eq. (7)/(8) solution installs batching and ``min_warm``
  scale-out directives for the next window (§V-D);
- the strategy is recomputed when the predicted inter-arrival time drifts
  out of the bucket it was optimized for (strategies are cached per
  log-scale IT bucket to bound optimizer invocations).
"""

from __future__ import annotations

import hashlib
import math
from typing import Mapping

import numpy as np

from repro.core.engine import OptimizerEngine
from repro.core.prewarming import ColdStartPolicy
from repro.core.workflow import ExecutionStrategy
from repro.dag.graph import AppDAG
from repro.hardware.configs import ConfigurationSpace
from repro.policies.base import Policy
from repro.policies.registry import register_policy
from repro.predictor.interarrival import InterArrivalPredictor, gaps_from_counts
from repro.predictor.invocation import InvocationPredictor
from repro.profiler.profiles import FunctionProfile
from repro.simulator.gateway import SimulationContext
from repro.simulator.invocation import FunctionDirective, Invocation

#: Keep-alive safety factor over the predicted inter-arrival time.
KEEP_ALIVE_MARGIN = 1.25
#: Grace period for a pre-warmed instance awaiting its predicted arrival.
WARM_GRACE = 6.0
#: Geometric width of one inter-arrival bucket: predictions within a bucket
#: share one optimized strategy.
IT_REBUCKET_RATIO = 1.8
#: Seconds a burst-level count keeps the policy in burst context.
BURST_HOLDOVER = 20.0

#: Trained predictors keyed by (kind, training-series digest, seed).
#: Training is deterministic in those inputs (fixed default hyperparameters,
#: seeded RNG), so a cache hit returns bit-identical weights; experiment
#: grids that drive several applications with one workload regime then
#: train each predictor once instead of once per cell.  Predictors are
#: read-only after ``fit``, so sharing one instance across policies is safe.
#: Keys carry a blake2b digest of the training series, not the raw bytes,
#: so the cache's key memory stays bounded regardless of series length.
_PREDICTOR_CACHE: dict[tuple, object] = {}


def _cached_predictor(key: tuple, train):
    cached = _PREDICTOR_CACHE.get(key)
    if cached is None:
        if len(_PREDICTOR_CACHE) > 64:
            _PREDICTOR_CACHE.clear()
        cached = _PREDICTOR_CACHE[key] = train()
    return cached


def _train_key(kind: str, counts: np.ndarray, seed: int) -> tuple:
    digest = hashlib.blake2b(counts.tobytes(), digest_size=16).digest()
    return (kind, str(counts.dtype), counts.size, digest, seed)


def pretrain_predictors(
    train_counts: np.ndarray, seed: int = 0
) -> tuple[InvocationPredictor | None, InterArrivalPredictor | None]:
    """Train-and-cache the SMIless predictors for a training series.

    The single declaration of the training recipe (cache keys,
    hyperparameters, seed).  Returns ``(invocation, interarrival)``; a
    predictor whose series is too short to fit is ``None``.  Only
    policies that consume ``train_counts`` call this, so runs under other
    policies never pay for LSTM training.
    """
    counts = np.asarray(train_counts)
    try:
        invocation = _cached_predictor(
            _train_key("invocation", counts, seed),
            lambda: InvocationPredictor(
                bucket_size=1, n_buckets=16, epochs=4, seed=seed
            ).fit(counts),
        )
    except ValueError:
        invocation = None
    try:
        interarrival = _cached_predictor(
            _train_key("interarrival", counts, seed),
            lambda: InterArrivalPredictor(epochs=15, seed=seed).fit(counts),
        )
    except ValueError:
        interarrival = None
    return invocation, interarrival


def linear_quantile(values: np.ndarray, q: float) -> float:
    """``float(np.quantile(values, q))`` for a short 1-D array, bit for bit.

    NumPy's default (linear) rule without its per-call dispatch, which
    costs far more than the sort on the ten-gap windows the policy reads
    every window: index ``v = (n - 1) * q`` into the sorted values,
    weight ``g = v - floor(v)``, and NumPy's two-sided lerp between the
    neighbours (from the upper one when ``g >= 0.5``).
    """
    xs = sorted(values.tolist())
    v = (len(xs) - 1) * q
    i = math.floor(v)
    g = v - i
    a, b = xs[i], xs[min(i + 1, len(xs) - 1)]
    if g >= 0.5:
        return b - (b - a) * (1 - g)
    return a + (b - a) * g


@register_policy("smiless", kwargs={"train_counts": "train_counts"})
class SMIlessPolicy(Policy):
    """Co-optimized configuration and cold-start management (the paper)."""

    name = "smiless"

    def __init__(
        self,
        profiles: Mapping[str, FunctionProfile],
        *,
        space: ConfigurationSpace | None = None,
        train_counts: np.ndarray | None = None,
        invocation_predictor: InvocationPredictor | None = None,
        interarrival_predictor: InterArrivalPredictor | None = None,
        default_it: float = 10.0,
        prewarm_safety: float = 1.0,
        sla_margin: float = 0.1,
        seed: int = 0,
    ) -> None:
        self.profiles = dict(profiles)
        self.space = space or ConfigurationSpace.default()
        self.engine = OptimizerEngine(self.space)
        self.default_it = float(default_it)
        self.prewarm_safety = float(prewarm_safety)
        # Burst capacity must arrive while the burst is still running.
        self.burst_react_init = 4.0
        if not 0.0 <= sla_margin < 1.0:
            raise ValueError(f"sla_margin must be in [0, 1), got {sla_margin}")
        # Plan against a slightly tighter SLA so per-stage execution noise
        # (the profiler's ~8 % SMAPE) does not push real latencies over.
        self.sla_margin = float(sla_margin)
        self.invocation_predictor = invocation_predictor
        self.interarrival_predictor = interarrival_predictor
        if train_counts is not None:
            self._train(np.asarray(train_counts), seed)
        self.strategy: ExecutionStrategy | None = None
        self._strategy_cache: dict[int, ExecutionStrategy] = {}
        self._start_offsets: dict[str, float] = {}
        self._effective_policy: dict[str, ColdStartPolicy] = {}
        self._app: AppDAG | None = None
        self._current_it = self.default_it
        self._current_it_upper = self.default_it
        self._scaled_out = False
        self._last_arrival: float | None = None
        self._inactive = False
        # Memoized derivations of per-instance-constant inputs (profiles,
        # space, SLA): burst budgets per app, standing batch per (fn, config).
        self._budgets_cache: dict[str, dict[str, float]] = {}
        self._standing_batch_cache: dict[tuple, int] = {}
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        """Reset per-run incremental state (fresh at registration).

        The gap tracker, prediction memo and predictor streams assume the
        count history they follow is append-only; registration starts a
        new history.
        """
        # Incremental gap tracker: gaps between non-empty windows, extended
        # by scanning only the yet-unseen suffix of the count history
        # (bit-identical to ``gaps_from_counts`` over the full series).
        self._gaps_buf = np.empty(256, dtype=float)
        self._gaps_len = 0
        self._gaps_scanned = 0
        self._gaps_last_nz = -1
        # Per-window prediction memo: the count history only changes at
        # window ticks, so all predictions are constant while its length is.
        self._pred_win = -1
        self._pred_cache: dict[str, float | int] = {}
        # One predictor stream per run history.  The streams live here, not
        # on the predictors: ``_PREDICTOR_CACHE`` shares one predictor
        # instance across every application of a co-run.
        inv, it = self.invocation_predictor, self.interarrival_predictor
        self._inv_stream = inv.stream() if inv is not None and inv.trained else None
        self._it_stream = it.stream() if it is not None and it.trained else None

    # -- predictor training -------------------------------------------------
    def _train(self, counts: np.ndarray, seed: int) -> None:
        # Looked up as a module global on every call, so a span wrapper
        # patched onto ``pretrain_predictors`` sees all training.
        invocation, interarrival = pretrain_predictors(counts, seed)
        if self.invocation_predictor is None:
            self.invocation_predictor = invocation
        if self.interarrival_predictor is None:
            self.interarrival_predictor = interarrival

    # -- predictions ------------------------------------------------------------
    def predict_inter_arrival(self, counts: np.ndarray) -> float:
        """Predicted gap to the next invocation (seconds)."""
        return self._it_from_gaps(gaps_from_counts(counts), counts)

    def _it_from_gaps(
        self, gaps: np.ndarray, counts: np.ndarray, stream=None
    ) -> float:
        p = self.interarrival_predictor
        if (
            p is not None
            and p.trained
            and gaps.size >= p.gap_window
            and counts.size >= p.count_window
        ):
            return p.predict_next(gaps, counts, stream=stream)
        if gaps.size:
            # Conservative (low-quantile) fallback: under-estimating IT makes
            # pre-warming early, which costs a little idle time; the paper's
            # predictor is trained asymmetrically for the same reason.
            return linear_quantile(gaps[-10:], 0.25)
        return self.default_it

    def predict_inter_arrival_upper(self, counts: np.ndarray) -> float:
        """High-side gap estimate for keep-alive sizing.

        Keep-alive must *survive* until the next arrival, so it needs an
        over-estimate — the mirror image of the pre-warm-timing estimate.
        """
        return self._it_upper_from_gaps(gaps_from_counts(counts), counts)

    def _it_upper_from_gaps(self, gaps: np.ndarray, counts: np.ndarray) -> float:
        if gaps.size:
            return linear_quantile(gaps[-10:], 0.9)
        return max(self.predict_inter_arrival(counts), self.default_it)

    def _gaps(self, counts: np.ndarray) -> np.ndarray:
        """Incrementally maintained ``gaps_from_counts(counts)``.

        The count history is append-only within a run, so only the
        yet-unscanned suffix is searched for non-empty windows; the gaps
        accumulate in a doubling buffer and a read-only view is returned.
        O(new windows) per call instead of O(total windows).
        """
        n = counts.size
        if n > self._gaps_scanned:
            nz = np.flatnonzero(counts[self._gaps_scanned :])
            if nz.size:
                idxs = nz + self._gaps_scanned
                if self._gaps_last_nz >= 0:
                    starts = np.concatenate(([self._gaps_last_nz], idxs[:-1]))
                    new_gaps = (idxs - starts).astype(float) * 1.0
                else:
                    new_gaps = np.diff(idxs).astype(float) * 1.0
                end = self._gaps_len + new_gaps.size
                if end > self._gaps_buf.size:
                    grown = np.empty(
                        max(self._gaps_buf.size * 2, end), dtype=float
                    )
                    grown[: self._gaps_len] = self._gaps_buf[: self._gaps_len]
                    self._gaps_buf = grown
                self._gaps_buf[self._gaps_len : end] = new_gaps
                self._gaps_len = end
                self._gaps_last_nz = int(idxs[-1])
            self._gaps_scanned = n
        view = self._gaps_buf[: self._gaps_len]
        view.setflags(write=False)
        return view

    def _predicted(self, counts: np.ndarray, kind: str):
        """Per-window memo over the prediction helpers.

        Keyed on the history length: the history is append-only and the
        predictors' weights are frozen during a run, so every prediction
        is a pure function of the (length-identified) history.  Values
        come from the run's predictor streams, which are bitwise equal to
        the one-shot forward of the public ``predict_*`` methods.
        """
        if counts.size != self._pred_win:
            self._pred_win = counts.size
            self._pred_cache = {}
        val = self._pred_cache.get(kind)
        if val is None:
            gaps = self._gaps(counts)
            if kind == "it":
                val = self._it_from_gaps(gaps, counts, self._it_stream)
            elif kind == "it_upper":
                val = self._it_upper_from_gaps(gaps, counts)
            else:
                val = self.predict_invocations(counts, self._inv_stream)
            self._pred_cache[kind] = val
        return val

    def predict_invocations(self, counts: np.ndarray, stream=None) -> int:
        """Predicted invocation count for the next window.

        ``stream`` is a stream of the invocation predictor that has only
        ever seen ``counts`` (the policy passes its run stream).
        """
        p = self.invocation_predictor
        if p is not None and p.trained and counts.size >= p.window:
            return max(0, p.predict_next(counts, stream=stream))
        if counts.size == 0:
            return 0
        if counts.size == 1:
            return int(counts[-1])
        last, prev = int(counts[-1]), int(counts[-2])
        if last < 2:
            return last
        # Fallback: linear ramp extrapolation so a growing burst is met with
        # capacity for its *next* level, not its current one.
        return max(last, 2 * last - prev)

    def _burst_budgets(self, app: AppDAG) -> dict[str, float]:
        """Per-stage latency budgets for the burst (scale-up) regime.

        Instead of the steady plan's stage times — which leave no slack for
        batch/queue absorption — the SLA is re-divided proportionally to
        each stage's *fastest achievable* inference time, normalized so
        every path's budget sum stays within the (margin-tightened) SLA.
        This realizes §V-B2's "dynamically scales up to higher-end
        configurations as needed".

        Memoized per application: profiles, space and SLA are fixed for
        the policy's lifetime, so the simple-path walk and per-config
        minimum run once instead of on every install/scale call.
        """
        cached = self._budgets_cache.get(app.name)
        if cached is not None:
            return cached
        fastest = {
            fn: min(
                self.profiles[fn].inference_time(cfg)
                for cfg in self.space
                if self.profiles[fn].supports(cfg.backend)
            )
            for fn in app.function_names
        }
        target = app.sla * (1.0 - self.sla_margin)
        budgets: dict[str, float] = {}
        for path in app.simple_paths():
            total = sum(fastest[f] for f in path)
            for f in path:
                share = target * fastest[f] / total
                budgets[f] = min(budgets.get(f, math.inf), share)
        self._budgets_cache[app.name] = budgets
        return budgets

    def _prewarm_grace(self) -> float:
        """Idle grace for pre-warmed instances awaiting their arrival.

        Sized by prediction uncertainty: the low-quantile IT estimate makes
        warm-up early by roughly ``it_upper - it_lower``, so the instance
        must be allowed to wait that long (plus safety) before being
        reclaimed.
        """
        spread = max(0.0, self._current_it_upper - self._current_it)
        return max(WARM_GRACE, spread + 2.0 * self.prewarm_safety)

    # -- strategy management -------------------------------------------------
    def _it_bucket(self, it: float) -> int:
        return int(round(math.log(max(it, 1e-3), IT_REBUCKET_RATIO)))

    def _strategy_for(self, it: float) -> ExecutionStrategy:
        assert self._app is not None
        bucket = self._it_bucket(it)
        if bucket not in self._strategy_cache:
            # Optimize at the bucket's representative IT so nearby predictions
            # share one strategy (bounds optimizer invocations).
            rep_it = float(IT_REBUCKET_RATIO**bucket)
            self._strategy_cache[bucket] = self.engine.strategy(
                self._app,
                self.profiles,
                rep_it,
                sla=self._app.sla * (1.0 - self.sla_margin),
            )
        return self._strategy_cache[bucket]

    def _standing_batch(self, fn: str, strategy: ExecutionStrategy) -> int:
        """Batch limit for the standing fleet.

        Sized so a queued batch still fits the function's burst-budget
        share: small arrival clusters are then absorbed by the instances
        already warm, without waiting for the Auto-scaler loop.

        Memoized per (function, planned config): the budget share is fixed
        per function, so the bisection result only depends on the config
        the strategy assigns.
        """
        assert self._app is not None
        plan = strategy.plan(fn)
        key = (fn, plan.config)
        cached = self._standing_batch_cache.get(key)
        if cached is None:
            budget = self._burst_budgets(self._app)[fn]
            batch = self.engine.autoscaler.max_feasible_batch(
                self.profiles[fn], plan.config, budget
            )
            cached = self._standing_batch_cache[key] = max(1, min(batch, 8))
        return cached

    def _install_strategy(self, strategy: ExecutionStrategy, ctx: SimulationContext) -> None:
        assert self._app is not None
        self.strategy = strategy
        lat = {fn: strategy.plan(fn).inference_time for fn in self._app.function_names}
        # Start offset: when a stage begins relative to invocation arrival.
        finish: dict[str, float] = {}
        for fn in self._app.function_names:
            start = max(
                (finish[p] for p in self._app.predecessors(fn)), default=0.0
            )
            self._start_offsets[fn] = start
            finish[fn] = start + lat[fn]
        for fn in self._app.function_names:
            plan = strategy.plan(fn)
            # Risk-aware regime check: the plan's regime was chosen at the
            # bucket's representative IT; if the *current* gap estimate is
            # shorter than the function's initialization, a mispredicted
            # pre-warm cannot be recovered before the next arrival, so
            # keep-alive is the robust choice (the Case II boundary applied
            # online).
            prewarm_safe = plan.init_time + plan.inference_time < max(
                self._current_it, 1e-9
            )
            effective = (
                ColdStartPolicy.KEEP_ALIVE
                if plan.policy is ColdStartPolicy.KEEP_ALIVE or not prewarm_safe
                else ColdStartPolicy.PREWARM
            )
            self._effective_policy[fn] = effective
            if effective is ColdStartPolicy.KEEP_ALIVE:
                # Case II (§V-B1): keep the instance alive *until the next
                # invocation*, however long the realized gap is — the regime
                # itself flips to pre-warm only through re-optimization when
                # the predicted IT grows past T + I.
                why = (
                    "optimizer chose Case II"
                    if plan.policy is ColdStartPolicy.KEEP_ALIVE
                    else (
                        f"pre-warm unsafe: I+T="
                        f"{plan.init_time + plan.inference_time:.2f}s >= IT="
                        f"{self._current_it:.2f}s"
                    )
                )
                ctx.set_directive(
                    fn,
                    FunctionDirective(
                        config=plan.config,
                        keep_alive=math.inf,
                        batch=self._standing_batch(fn, strategy),
                        min_warm=1,
                        warm_grace=WARM_GRACE,
                    ),
                    reason=(
                        f"keep-alive regime ({why}); strategy IT="
                        f"{strategy.inter_arrival:.2f}s"
                    ),
                )
            else:
                ctx.set_directive(
                    fn,
                    FunctionDirective(
                        config=plan.config,
                        keep_alive=0.0,
                        batch=self._standing_batch(fn, strategy),
                        min_warm=0,
                        warm_grace=self._prewarm_grace(),
                    ),
                    reason=(
                        f"pre-warm regime: I+T="
                        f"{plan.init_time + plan.inference_time:.2f}s < IT="
                        f"{self._current_it:.2f}s; strategy IT="
                        f"{strategy.inter_arrival:.2f}s"
                    ),
                )

    # -- Policy callbacks -------------------------------------------------------
    def on_register(self, app: AppDAG, ctx: SimulationContext) -> None:
        """Compute the initial strategy and warm the initial fleet.

        Deploy-time warm-up mirrors the real platform: the Container Manager
        brings one instance per function up when the application is
        submitted, so the first invocation is not an all-cold traversal.
        """
        self._app = app
        self._current_it = self.default_it
        self._reset_run_state()
        self._install_strategy(self._strategy_for(self.default_it), ctx)
        assert self.strategy is not None
        for fn in app.function_names:
            ctx.schedule_warmup(fn, 0.0, config=self.strategy.plan(fn).config)

    def _init_lead(self, fn: str, plan, ctx: SimulationContext) -> float:
        """Initialization lead to budget before the predicted arrival.

        Swap-capable GPU models whose weights are host-resident
        (:meth:`SimulationContext.model_resident`) come up at swap-in cost
        rather than a full cold start, so the pre-warm can be scheduled
        that much later — shrinking the billed pre-warm idle window.
        Fixed profiles (no ``swap_time``) always take ``plan.init_time``,
        keeping the default regime's floats bit-identical.
        """
        swap = self.profiles[fn].swap_time(plan.config)
        if swap is not None and swap < plan.init_time and ctx.model_resident(fn):
            return swap
        return plan.init_time

    def on_arrival(self, invocation: Invocation, ctx: SimulationContext) -> None:
        """Schedule pre-warms for the *next* predicted invocation (§V-B1)."""
        assert self.strategy is not None
        self._last_arrival = ctx.now
        if self._inactive:
            # Traffic resumed after an idle stretch: restore the fleet.
            self._inactive = False
            self._install_strategy(self.strategy, ctx)
        counts = ctx.counts_history()
        it = self._predicted(counts, "it")
        self._current_it = it
        t_next = ctx.now + it
        for fn in ctx.app.function_names:
            plan = self.strategy.plan(fn)
            if self._effective_policy.get(fn) is not ColdStartPolicy.PREWARM:
                continue
            start = (
                t_next
                + self._start_offsets[fn]
                - self._init_lead(fn, plan, ctx)
                - self.prewarm_safety
            )
            ctx.schedule_warmup(fn, start, config=plan.config)

    def on_window(self, t: float, ctx: SimulationContext) -> None:
        """Re-optimize on IT drift; engage the Auto-scaler under bursts."""
        assert self.strategy is not None
        counts = ctx.counts_history()
        it = self._predicted(counts, "it")
        self._current_it = it
        self._current_it_upper = self._predicted(counts, "it_upper")

        # Burst context: burst-level counts seen within the holdover period.
        hold = int(BURST_HOLDOVER / ctx.window)
        recent_peak = (
            int(counts[-min(counts.size, hold):].max()) if counts.size else 0
        )
        burst_context = recent_peak >= 2

        # Re-optimize only when the prediction leaves a hysteresis band of
        # one bucket on either side of the installed strategy's IT —
        # flapping between adjacent strategies leaves a mixed-config fleet
        # whose stage latencies match neither plan.  During a burst the gap
        # estimate is polluted by intra-burst gaps, so the strategy is
        # frozen until the burst holdover passes.
        band = IT_REBUCKET_RATIO**1.5
        installed_it = self.strategy.inter_arrival
        if (
            not self._inactive
            and not burst_context
            and not (installed_it / band <= it <= installed_it * band)
        ):
            self._install_strategy(self._strategy_for(it), ctx)
        elif not self._inactive and not self._scaled_out:
            # Regime refresh: the pre-warm/keep-alive risk check depends on
            # the *current* IT estimate, which evolves between re-installs.
            for fn in ctx.app.function_names:
                plan = self.strategy.plan(fn)
                safe = plan.init_time + plan.inference_time < max(it, 1e-9)
                want = (
                    ColdStartPolicy.PREWARM
                    if plan.policy is ColdStartPolicy.PREWARM and safe
                    else ColdStartPolicy.KEEP_ALIVE
                )
                if want is not self._effective_policy.get(fn):
                    self._install_strategy(self.strategy, ctx)
                    break

        g = self._predicted(counts, "g")
        # Burst holdover: keep the scaled fleet sized for the recent peak —
        # ramps dip and rebound faster than instances can re-initialize.
        if burst_context:
            g = max(g, recent_peak)
        if g >= 1 and self.engine.needs_scaling(self.strategy, g, ctx.window):
            decisions = self.engine.scale(
                ctx.app,
                self.profiles,
                self.strategy,
                g,
                max(it, ctx.window),
                budgets=self._burst_budgets(ctx.app),
                max_init_time=self.burst_react_init,
            )
            for fn, d in decisions.items():
                plan = self.strategy.plan(fn)
                ctx.set_directive(
                    fn,
                    FunctionDirective(
                        config=d.config,
                        keep_alive=max(ctx.window * KEEP_ALIVE_MARGIN, it),
                        batch=d.batch,
                        min_warm=d.instances,
                        warm_grace=WARM_GRACE,
                    ),
                    reason=(
                        f"auto-scaler burst: g={g} predicted arrivals -> "
                        f"{d.instances}x {d.config.key}, batch={d.batch}"
                    ),
                )
            self._scaled_out = True
        elif self._scaled_out:
            # Burst over: fall back to the steady-state strategy.
            self._install_strategy(self.strategy, ctx)
            self._scaled_out = False

        if self._scaled_out or self._inactive:
            return
        idle_for = t - (self._last_arrival if self._last_arrival is not None else 0.0)
        if self._last_arrival is not None and idle_for > max(
            3.0 * self._current_it_upper, 30.0
        ):
            # Traffic ceased: release the whole fleet until arrivals resume.
            self._inactive = True
            for fn in ctx.app.function_names:
                d = ctx.directive(fn)
                ctx.set_directive(
                    fn,
                    FunctionDirective(
                        config=d.config, keep_alive=0.0, batch=1, min_warm=0,
                        warm_grace=0.0,
                    ),
                    reason=(
                        f"traffic idle {idle_for:.1f}s: release fleet until "
                        f"arrivals resume"
                    ),
                )
            return
        # Watchdog: if a pre-warm-regime function lost its scheduled warm-up
        # (prediction missed low after a burst, grace expired), re-warm in
        # time for the revised expected arrival.
        if self._last_arrival is None:
            return
        expected_next = self._last_arrival + it
        grace = self._prewarm_grace()
        for fn in ctx.app.function_names:
            plan = self.strategy.plan(fn)
            if self._effective_policy.get(fn) is not ColdStartPolicy.PREWARM:
                continue
            d = ctx.directive(fn)
            if abs(d.warm_grace - grace) > 0.5:
                ctx.set_directive(
                    fn,
                    FunctionDirective(
                        config=d.config,
                        keep_alive=d.keep_alive,
                        batch=d.batch,
                        min_warm=d.min_warm,
                        warm_grace=grace,
                    ),
                    reason=(
                        f"watchdog: warm grace {d.warm_grace:.1f}s -> "
                        f"{grace:.1f}s for revised IT"
                    ),
                )
            if ctx.live_count(fn) > 0 or ctx.queue_length(fn) > 0:
                continue
            due = (
                expected_next
                + self._start_offsets[fn]
                - plan.init_time
                - self.prewarm_safety
            )
            if t >= due - ctx.window:
                ctx.schedule_warmup(fn, t, config=plan.config)
