"""Tests for run reporting, trace analytics, online predictor updates and
the GPU-contention knob."""

import numpy as np
import pytest

from repro.dag import linear_pipeline
from repro.policies import AlwaysOnPolicy, OnDemandPolicy
from repro.predictor import InterArrivalPredictor, InvocationPredictor
from repro.simulator import Runtime
from repro.simulator.reporting import (
    format_cost_breakdown,
    format_function_table,
    format_latency_histogram,
    format_report,
)
from repro.workload import AzureLikeWorkload, Trace, constant_rate_process, gamma_renewal_process
from repro.workload.analysis import (
    burst_episodes,
    dominant_period,
    format_summary,
    gap_cv,
    summarize,
)


@pytest.fixture(scope="module")
def run_metrics():
    app = linear_pipeline(2, models=("IR", "DB"))
    trace = constant_rate_process(10.0, 120.0, offset=5.0)
    rt = Runtime()
    rt.add_app(app, trace, AlwaysOnPolicy(), seed=0)
    return rt.run()[app.name]


class TestReporting:
    def test_cost_breakdown_sums_to_total(self, run_metrics):
        text = format_cost_breakdown(run_metrics)
        assert f"${run_metrics.total_cost():.4f}" in text
        for key in ("init", "inference", "keepalive"):
            assert key in text

    def test_function_table_lists_all_functions(self, run_metrics):
        text = format_function_table(run_metrics)
        assert "f0-IR" in text and "f1-DB" in text

    def test_histogram_marks_sla(self, run_metrics):
        text = format_latency_histogram(run_metrics)
        assert "<- SLA" in text
        assert "#" in text

    def test_histogram_empty_metrics(self):
        from repro.simulator.metrics import RunMetrics

        empty = RunMetrics(app="x", policy="y", sla=1.0)
        assert "no completed" in format_latency_histogram(empty)

    def test_full_report(self, run_metrics):
        text = format_report(run_metrics)
        assert "run report" in text
        assert "violations" in text
        assert "(re)initializations" in text

    def test_report_mentions_failed_inits(self):
        app = linear_pipeline(1, models=("IR",))
        trace = constant_rate_process(10.0, 100.0, offset=5.0)
        rt = Runtime(init_failure_rate=0.5)
        rt.add_app(app, trace, OnDemandPolicy(), seed=1)
        m = rt.run()[app.name]
        assert "failed" in format_report(m)


class TestAnalysis:
    def test_gap_cv_regular_vs_poisson(self):
        regular = gamma_renewal_process(5.0, 0.05, 1000.0, rng=0)
        irregular = AzureLikeWorkload.preset("irregular", seed=1).generate(1000.0)
        assert gap_cv(regular) < 0.1
        assert gap_cv(irregular) > 0.5

    def test_gap_cv_degenerate(self):
        assert gap_cv(Trace([1.0], duration=5.0)) == 0.0

    def test_dominant_period_detects_harmonic(self):
        t = np.arange(0, 512.0, 8.0)  # one arrival every 8 s
        trace = Trace(t, duration=512.0)
        period = dominant_period(trace)
        assert period is not None
        assert period == pytest.approx(8.0, rel=0.15)

    def test_dominant_period_none_for_noise(self):
        trace = AzureLikeWorkload.preset("irregular", seed=3).generate(600.0)
        # Poisson-like traffic: either no peak or a weak incidental one;
        # the detector must not crash and must respect the threshold
        result = dominant_period(trace, min_strength=10.0)
        assert result is None

    def test_burst_episodes(self):
        counts = np.zeros(30, dtype=int)
        counts[5:8] = 4
        counts[20] = 3
        trace = Trace.from_counts(counts, window=1.0)
        episodes = burst_episodes(trace, threshold=2)
        assert len(episodes) == 2
        assert episodes[0].start == 5.0 and episodes[0].end == 8.0
        assert episodes[0].invocations == 12
        assert episodes[0].peak_rate == 4.0
        assert episodes[0].duration == 3.0

    def test_burst_episode_at_trace_end(self):
        counts = np.zeros(10, dtype=int)
        counts[8:] = 5
        episodes = burst_episodes(Trace.from_counts(counts), threshold=2)
        assert len(episodes) == 1
        assert episodes[0].end == 10.0

    def test_summarize_and_format(self):
        trace = AzureLikeWorkload.preset("bursty", seed=2).generate(900.0)
        summary = summarize(trace)
        assert summary.invocations == len(trace)
        assert summary.burst_count >= 1
        assert 0.0 <= summary.burst_share <= 1.0
        text = format_summary(summary)
        assert "dispersion" in text
        assert "bursts" in text


class TestOnlineUpdates:
    def test_invocation_partial_fit_improves(self):
        wl_a = AzureLikeWorkload.preset("steady", seed=10)
        wl_b = AzureLikeWorkload.preset("spiky", seed=11)
        pred = InvocationPredictor(epochs=2, seed=0)
        pred.fit(wl_a.generate(900.0).counts_per_window(1.0))
        shifted = wl_b.generate(900.0).counts_per_window(1.0)
        before_scale = pred._scale
        pred.partial_fit(shifted)
        assert pred._scale >= before_scale  # scale only grows
        assert pred.trained

    def test_invocation_partial_fit_on_untrained_fits(self):
        pred = InvocationPredictor(epochs=1, seed=0)
        counts = AzureLikeWorkload.preset("steady", seed=12).generate_counts(600.0)
        pred.partial_fit(counts)
        assert pred.trained

    def test_invocation_partial_fit_short_history_noop(self):
        pred = InvocationPredictor(epochs=1, window=30, seed=0)
        pred.fit(AzureLikeWorkload.preset("steady", seed=13).generate_counts(600.0))
        pred.partial_fit(np.zeros(5))  # silently ignored

    def test_interarrival_partial_fit(self):
        counts = gamma_renewal_process(5.0, 0.1, 1200.0, rng=5).counts_per_window(1.0)
        pred = InterArrivalPredictor(epochs=3, seed=0).fit(counts)
        more = gamma_renewal_process(5.0, 0.1, 600.0, rng=6).counts_per_window(1.0)
        pred.partial_fit(more)
        assert pred.trained

    def test_interarrival_partial_fit_sparse_noop(self):
        counts = gamma_renewal_process(5.0, 0.1, 1200.0, rng=7).counts_per_window(1.0)
        pred = InterArrivalPredictor(epochs=1, seed=0).fit(counts)
        pred.partial_fit(np.zeros(40))  # no gaps to learn from

