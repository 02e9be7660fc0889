"""Text reports over run metrics.

Formats a :class:`~repro.simulator.metrics.RunMetrics` the way the paper's
operators would read Grafana: a cost breakdown, a per-function usage table,
a latency histogram and the violation summary — all plain text, so the CLI,
examples and logs share one renderer.
"""

from __future__ import annotations

import numpy as np

from repro.simulator.metrics import RunMetrics

#: Glyph used for histogram bars.
_BAR = "#"


def format_cost_breakdown(metrics: RunMetrics) -> str:
    """Dollar totals split into initialization / inference / keep-alive."""
    breakdown = metrics.cost_breakdown()
    total = metrics.total_cost()
    lines = [f"total cost ${total:.4f}"]
    for key in ("init", "inference", "keepalive"):
        value = breakdown[key]
        share = value / total if total else 0.0
        lines.append(f"  {key:<10} ${value:.4f} ({share:.0%})")
    return "\n".join(lines)


def format_function_table(metrics: RunMetrics) -> str:
    """Per-function fleet summary: instances, billed time, cost, batches."""
    per_fn = metrics.billing.per_function
    lines = [
        f"{'function':<14} {'instances':>9} {'billed':>9} {'cost':>9} {'served':>7}"
    ]
    for fn in sorted(per_fn):
        row = per_fn[fn]
        lines.append(
            f"{fn:<14} {int(row['instances']):>9} {row['lifetime']:>8.1f}s "
            f"${row['cost']:>8.4f} {int(row['served']):>7}"
        )
    return "\n".join(lines)


def format_latency_quantiles(metrics: RunMetrics) -> str:
    """Latency quantile summary from the streaming sketch (sketch mode).

    Sketch-retention runs drop per-invocation records, so a histogram is
    unavailable; the sketch answers quantile queries instead, within its
    documented rank-error bound.
    """
    sketch = metrics.latency_sketch
    if sketch is None or len(sketch) == 0:
        return "(no completed invocations)"
    qs = (50, 90, 95, 99, 99.9)
    parts = [f"p{q:g} {sketch.quantile(q):.2f}s" for q in qs]
    return (
        f"latency quantiles (streaming sketch, n={len(sketch)}, "
        f"rank error <= {sketch.rank_error_bound:.2%}):\n  "
        + "  ".join(parts)
        + f"\n  min {sketch.minimum:.2f}s  max {sketch.maximum:.2f}s"
    )


def format_latency_histogram(
    metrics: RunMetrics, *, bins: int = 10, width: int = 40
) -> str:
    """ASCII histogram of E2E latencies with the SLA marked."""
    if metrics.retention == "sketch":
        return format_latency_quantiles(metrics)
    lat = metrics.latencies()
    if lat.size == 0:
        return "(no completed invocations)"
    edges = np.linspace(0.0, max(float(lat.max()), metrics.sla) * 1.01, bins + 1)
    counts, _ = np.histogram(lat, bins=edges)
    peak = max(int(counts.max()), 1)
    lines = []
    for k in range(bins):
        bar = _BAR * int(round(width * counts[k] / peak))
        marker = " <- SLA" if edges[k] <= metrics.sla < edges[k + 1] else ""
        lines.append(
            f"{edges[k]:>6.2f}-{edges[k + 1]:>5.2f}s |{bar:<{width}}| "
            f"{counts[k]:>4}{marker}"
        )
    return "\n".join(lines)


def format_report(metrics: RunMetrics) -> str:
    """The full report: header, cost, fleet table, histogram, violations.

    Works for both retention modes: sketch-retention runs render latency
    figures from the streaming accumulators (same layout, approximate
    percentiles) and a quantile summary instead of the histogram.
    """
    summary = metrics.summary()
    n_completed = metrics.n_completed
    header = (
        f"run report — app={metrics.app} policy={metrics.policy} "
        f"sla={metrics.sla}s duration={metrics.duration:.0f}s\n"
        f"invocations: {n_completed} completed, "
        f"{metrics.unfinished} unfinished, {metrics.timed_out} timed out\n"
        f"violations {metrics.violation_ratio():.1%}, "
        f"availability {metrics.availability():.1%}, "
        f"goodput {metrics.goodput():.1%}\n"
        f"latency: mean {summary['mean_latency']:.2f}s "
        f"p50 {summary['p50_latency']:.2f}s "
        f"p99 {summary['p99_latency']:.2f}s"
        if n_completed
        else f"run report — app={metrics.app} policy={metrics.policy} (no traffic)"
    )
    reinits = (
        f"(re)initializations: {metrics.initializations} "
        f"({metrics.reinit_fraction():.1%} of stage executions cold"
        + (
            f", {metrics.failed_initializations} failed)"
            if metrics.failed_initializations
            else ")"
        )
    )
    sections = [
        header,
        format_cost_breakdown(metrics),
        format_function_table(metrics),
        format_latency_histogram(metrics),
        reinits,
    ]
    if metrics.stage_retries or metrics.failed_executions or metrics.fallbacks:
        sections.append(
            f"faults absorbed: {metrics.stage_retries} stage retries, "
            f"{metrics.failed_executions} failed executions, "
            f"{metrics.fallbacks} fallbacks"
        )
    if metrics.shed or metrics.rejected:
        # Offered load from the metrics' own accounting (works equally on
        # live counters and on an aggregate()-reconstructed trace view).
        offered = metrics.offered
        shed_rate = (metrics.shed + metrics.rejected) / offered if offered else 0.0
        sections.append(
            f"overload absorbed: {metrics.shed} shed from bounded queues, "
            f"{metrics.rejected} rejected at admission "
            f"({shed_rate:.1%} of {offered} offered), "
            f"goodput under overload {metrics.goodput():.1%}"
        )
    return "\n\n".join(sections)
