"""Tests for the Azure dataset loading pipeline."""

import csv

import numpy as np
import pytest

from repro.workload.dataset import (
    MINUTES_PER_DAY,
    PAPER_SCALE_FACTOR,
    counts_to_trace,
    load_invocation_counts,
    load_scaled_trace,
    scale_down,
)
from repro.workload.trace import Trace


@pytest.fixture
def azure_csv(tmp_path):
    """A miniature CSV in the Azure invocation-trace layout."""
    path = tmp_path / "invocations.csv"
    header = ["HashOwner", "HashApp", "HashFunction", "Trigger"] + [
        str(i) for i in range(1, MINUTES_PER_DAY + 1)
    ]
    rng = np.random.default_rng(0)
    rows = []
    busy = rng.poisson(3.0, MINUTES_PER_DAY)
    quiet = np.zeros(MINUTES_PER_DAY, dtype=int)
    quiet[::240] = 1
    silent = np.zeros(MINUTES_PER_DAY, dtype=int)
    for name, counts in (("busyfn", busy), ("quietfn", quiet), ("deadfn", silent)):
        rows.append(["own", "app", name, "http"] + [str(c) for c in counts])
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path, {"busyfn": busy, "quietfn": quiet}


class TestLoad:
    def test_parses_rows(self, azure_csv):
        path, expected = azure_csv
        rows = load_invocation_counts(path)
        assert set(rows) == {"busyfn", "quietfn"}  # deadfn dropped
        np.testing.assert_array_equal(rows["busyfn"], expected["busyfn"])

    def test_threshold_filters(self, azure_csv):
        path, _ = azure_csv
        rows = load_invocation_counts(path, min_daily_invocations=100)
        assert set(rows) == {"busyfn"}

    def test_all_filtered_raises(self, azure_csv):
        path, _ = azure_csv
        with pytest.raises(ValueError, match="threshold"):
            load_invocation_counts(path, min_daily_invocations=10**9)

    def test_short_header_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="columns"):
            load_invocation_counts(path)

    def test_ragged_row_raises(self, tmp_path):
        path = tmp_path / "ragged.csv"
        header = ",".join(["h"] * (MINUTES_PER_DAY + 1))
        path.write_text(header + "\n1,2,3\n")
        with pytest.raises(ValueError, match="ragged"):
            load_invocation_counts(path)


class TestConversion:
    def test_counts_to_trace_totals(self):
        counts = np.array([2, 0, 3])
        trace = counts_to_trace(counts, interval=60.0, rng=0)
        assert len(trace) == 5
        np.testing.assert_array_equal(trace.counts_per_window(60.0), counts)

    def test_deterministic_placement_without_rng(self):
        trace = counts_to_trace(np.array([1, 1]), interval=60.0)
        np.testing.assert_allclose(trace.times, [0.0, 60.0])

    def test_scale_down_factor(self):
        trace = Trace([60.0, 120.0], duration=180.0)
        scaled = scale_down(trace)
        np.testing.assert_allclose(scaled.times, [2.0, 4.0])
        assert scaled.duration == pytest.approx(180.0 * PAPER_SCALE_FACTOR)

    def test_load_scaled_trace_pipeline(self, azure_csv):
        path, expected = azure_csv
        trace = load_scaled_trace(path)  # busiest function by default
        assert len(trace) == expected["busyfn"].sum()
        # a day compresses to 48 minutes of simulated time
        assert trace.duration == pytest.approx(
            MINUTES_PER_DAY * 60.0 * PAPER_SCALE_FACTOR
        )

    def test_load_scaled_trace_unknown_function(self, azure_csv):
        path, _ = azure_csv
        with pytest.raises(KeyError, match="not in"):
            load_scaled_trace(path, "missing")

    def test_scaled_trace_drives_simulator(self, azure_csv):
        """End-to-end: dataset pipeline output feeds the platform."""
        from repro.dag import linear_pipeline
        from repro.policies import AlwaysOnPolicy
        from repro.simulator import Runtime

        path, _ = azure_csv
        trace = load_scaled_trace(path, "quietfn").slice(0.0, 600.0)
        app = linear_pipeline(1, models=("IR",))
        rt = Runtime()
        rt.add_app(app, trace, AlwaysOnPolicy(), seed=0)
        m = rt.run()[app.name]
        assert len(m.invocations) == len(trace)
