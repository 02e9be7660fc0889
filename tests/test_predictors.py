"""Tests for the online predictors and baseline forecasters."""

import numpy as np
import pytest

from repro.predictor import (
    ArimaPredictor,
    FipPredictor,
    GbrtPredictor,
    InterArrivalPredictor,
    InvocationPredictor,
    SlidingWindowPredictor,
)
from repro.predictor.gbrt import RegressionTree
from repro.predictor.interarrival import gaps_from_counts
from repro.predictor.lstm import LSTMLayer, WindowStream
from repro.predictor.metrics import (
    mean_absolute_percentage_error,
    overestimation_rate,
    underestimation_magnitude,
    underestimation_rate,
)
from repro.workload import AzureLikeWorkload, gamma_renewal_process


@pytest.fixture(scope="module")
def periodic_counts():
    train = gamma_renewal_process(5.0, 0.15, 1800.0, rng=0, period_drift=0.3)
    test = gamma_renewal_process(5.0, 0.15, 1800.0, rng=1, period_drift=0.3)
    return train.counts_per_window(1.0), test.counts_per_window(1.0)


@pytest.fixture(scope="module")
def diurnal_counts():
    wl = AzureLikeWorkload.preset("diurnal", seed=1)
    return wl.generate(1200.0).counts_per_window(1.0), wl.generate(
        1200.0
    ).counts_per_window(1.0)


class TestInvocationPredictor:
    def test_bucket_mapping(self):
        p = InvocationPredictor(bucket_size=4, n_buckets=5, seed=0)
        assert p.bucket_of(0) == 0
        assert p.bucket_of(1) == 1
        assert p.bucket_of(4) == 1
        assert p.bucket_of(5) == 2
        assert p.bucket_of(1000) == 4  # clipped to top bucket
        with pytest.raises(ValueError):
            p.bucket_of(-1)

    def test_upper_bound(self):
        p = InvocationPredictor(bucket_size=4, n_buckets=5, seed=0)
        assert p.upper_bound(0) == 0
        assert p.upper_bound(3) == 12
        with pytest.raises(ValueError):
            p.upper_bound(5)

    def test_requires_fit_before_predict(self):
        p = InvocationPredictor(window=5, seed=0)
        with pytest.raises(RuntimeError):
            p.predict_next(np.zeros(5))

    def test_requires_enough_history(self, diurnal_counts):
        train, _ = diurnal_counts
        p = InvocationPredictor(window=10, epochs=1, seed=0).fit(train)
        with pytest.raises(ValueError):
            p.predict_next(np.zeros(3))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            InvocationPredictor(bucket_size=0)
        with pytest.raises(ValueError):
            InvocationPredictor(compensation=1.5)
        with pytest.raises(ValueError):
            InvocationPredictor(quantile=0.0)

    def test_low_underestimation_on_held_out(self, diurnal_counts):
        """§VII-C2: the classifier keeps under-estimation low (paper: 3 %)."""
        train, test = diurnal_counts
        p = InvocationPredictor(bucket_size=1, n_buckets=10, epochs=4, seed=0).fit(train)
        actual, pred = p.rolling_predict(test)
        assert underestimation_rate(actual, pred) < 0.10

    def test_compensation_inflates_prediction(self, diurnal_counts):
        train, _ = diurnal_counts
        p = InvocationPredictor(
            bucket_size=8, n_buckets=6, epochs=1, compensation=0.03, seed=0
        ).fit(train)
        history = train[-p.window :]
        bucket = p.predict_bucket(history)
        assert p.predict_next(history) >= p.upper_bound(bucket)

    def test_proba_is_distribution(self, diurnal_counts):
        train, _ = diurnal_counts
        p = InvocationPredictor(epochs=1, seed=0).fit(train)
        proba = p.predict_proba(train[-p.window :])
        assert proba.shape == (p.n_buckets,)
        assert proba.sum() == pytest.approx(1.0)
        assert (proba >= 0).all()

    def test_quantile_one_picks_top_reachable_bucket(self, diurnal_counts):
        train, _ = diurnal_counts
        p = InvocationPredictor(epochs=1, quantile=1.0, seed=0).fit(train)
        b_conservative = p.predict_bucket(train[-p.window :])
        p.quantile = 0.5
        b_median = p.predict_bucket(train[-p.window :])
        assert b_conservative >= b_median


class TestInterArrivalPredictor:
    def test_gaps_from_counts(self):
        gaps = gaps_from_counts(np.array([0, 2, 0, 0, 1, 3]), window=2.0)
        np.testing.assert_allclose(gaps, [6.0, 2.0])

    def test_gaps_too_few_nonzero(self):
        assert gaps_from_counts(np.array([0, 1, 0])).size == 0

    def test_fit_and_predict_positive(self, periodic_counts):
        train, _ = periodic_counts
        p = InterArrivalPredictor(epochs=5, seed=0).fit(train)
        gaps = gaps_from_counts(train)
        pred = p.predict_next(gaps[-p.gap_window :], train[-p.count_window :])
        assert pred >= p.window_seconds

    def test_reasonable_mape_on_periodic(self, periodic_counts):
        train, test = periodic_counts
        p = InterArrivalPredictor(epochs=20, seed=0).fit(train)
        actual, pred = p.evaluate(test)
        assert mean_absolute_percentage_error(actual, pred) < 45.0

    def test_overestimation_is_rare(self, periodic_counts):
        """§IV-B2: the asymmetric design keeps over-estimation rare."""
        train, test = periodic_counts
        p = InterArrivalPredictor(epochs=20, seed=0).fit(train)
        actual, pred = p.evaluate(test)
        assert overestimation_rate(actual, pred) < 0.30

    def test_single_input_variant(self, periodic_counts):
        train, _ = periodic_counts
        p = InterArrivalPredictor(dual_input=False, epochs=2, seed=0).fit(train)
        assert p.count_lstm is None
        gaps = gaps_from_counts(train)
        assert p.predict_next(gaps[-p.gap_window :], None) > 0

    def test_requires_fit(self):
        p = InterArrivalPredictor(seed=0)
        with pytest.raises(RuntimeError):
            p.predict_next(np.ones(12), np.ones(30))

    def test_requires_enough_history(self, periodic_counts):
        train, _ = periodic_counts
        p = InterArrivalPredictor(epochs=1, seed=0).fit(train)
        with pytest.raises(ValueError):
            p.predict_next(np.ones(2), train[-30:])

    def test_dataset_alignment(self):
        """The j-th target is the gap following the j-th gap window."""
        counts = np.zeros(100)
        counts[::10] = 1  # gaps of exactly 10s
        p = InterArrivalPredictor(gap_window=3, count_window=10, seed=0)
        gap_seqs, count_seqs, targets = p.build_dataset(counts)
        np.testing.assert_allclose(targets, 10.0)
        np.testing.assert_allclose(gap_seqs, 10.0)
        assert count_seqs.shape[1] == 10


class TestWindowStream:
    """The streamed LSTM state is the one-shot state, bit for bit."""

    @pytest.mark.parametrize("hidden,window", [(30, 30), (32, 12), (32, 30)])
    def test_hidden_state_bitwise_equal_to_last_hidden(self, hidden, window):
        rng = np.random.default_rng(hidden * window)
        layer = LSTMLayer(1, hidden, rng)
        series = rng.poisson(1.5, size=300).astype(float)
        series[60:140] = 0.0  # a long quiet stretch
        series[200:210] = 35.0  # a burst
        scale = 7.0
        stream = WindowStream(layer, window, scale, version=0)
        n, checked = window, 0
        while n <= series.size:
            got = stream.feed(series[:n])
            x = (series[n - window : n] / scale)[None, :, None]
            assert np.array_equal(got, layer.last_hidden(x))
            checked += 1
            n += 1 if n % 100 else window + 7  # now and then skip ahead
        assert checked >= 150

    def test_needs_a_full_window_and_an_append_only_series(self):
        layer = LSTMLayer(1, 8, np.random.default_rng(0))
        stream = WindowStream(layer, 5, 1.0, version=0)
        with pytest.raises(ValueError):
            stream.feed(np.ones(4))
        stream.feed(np.ones(9))
        with pytest.raises(ValueError):
            stream.feed(np.ones(8))

    def test_invocation_stream_is_stale_after_partial_fit(self, periodic_counts):
        train, _ = periodic_counts
        p = InvocationPredictor(bucket_size=1, epochs=1, seed=0).fit(train)
        stream = p.stream()
        p.predict_next(train, stream=stream)
        p.partial_fit(train[-200:])
        with pytest.raises(RuntimeError):
            p.predict_next(train, stream=stream)
        other = InvocationPredictor(bucket_size=1, epochs=1, seed=1).fit(train)
        with pytest.raises(RuntimeError):
            other.predict_next(train, stream=p.stream())

    def test_interarrival_stream_is_stale_after_partial_fit(self, periodic_counts):
        train, _ = periodic_counts
        p = InterArrivalPredictor(epochs=1, seed=0).fit(train)
        gaps = gaps_from_counts(train)
        stream = p.stream()
        p.predict_next(gaps, train, stream=stream)
        p.partial_fit(train[-400:])
        with pytest.raises(RuntimeError):
            p.predict_next(gaps, train, stream=stream)

    def test_stream_needs_a_trained_predictor(self):
        with pytest.raises(RuntimeError):
            InvocationPredictor(seed=0).stream()
        with pytest.raises(RuntimeError):
            InterArrivalPredictor(seed=0).stream()


class TestArima:
    def test_learns_ar1(self):
        rng = np.random.default_rng(0)
        s = np.zeros(800)
        for t in range(1, 800):
            s[t] = 0.8 * s[t - 1] + rng.normal(0, 0.1)
        model = ArimaPredictor(p=3).fit(s[:600])
        actual, pred = model.rolling_predict(s[600:])
        naive = np.abs(actual).mean()
        assert np.abs(actual - pred).mean() < naive

    def test_differencing_handles_trend(self):
        t = np.arange(300, dtype=float)
        s = 2.0 * t + 5.0
        model = ArimaPredictor(p=2, d=1).fit(s[:200])
        pred = model.predict_next(s[:250])
        assert pred == pytest.approx(s[250], rel=0.05)

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            ArimaPredictor().predict_next(np.ones(20))

    def test_short_series_raises(self):
        with pytest.raises(ValueError):
            ArimaPredictor(p=10).fit(np.ones(5))


class TestFip:
    def test_recovers_pure_harmonic(self):
        t = np.arange(512, dtype=float)
        s = 5.0 + 2.0 * np.cos(2 * np.pi * t / 32.0)
        model = FipPredictor(n_harmonics=3).fit(s)
        future = model.predict_at(t + 512)
        np.testing.assert_allclose(future, s, atol=0.3)

    def test_prediction_nonnegative(self):
        t = np.arange(256, dtype=float)
        s = np.maximum(0.0, np.sin(2 * np.pi * t / 16.0))
        model = FipPredictor().fit(s)
        assert (model.predict_at(np.arange(300.0)) >= 0).all()

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            FipPredictor().predict_next(np.ones(10))

    def test_rolling_predict_extrapolates(self):
        t = np.arange(256, dtype=float)
        s = 3.0 + np.cos(2 * np.pi * t / 16.0)
        model = FipPredictor(n_harmonics=2).fit(s)
        actual, pred = model.rolling_predict(s[:64])
        assert mean_absolute_percentage_error(actual, pred) < 10.0


class TestSlidingWindow:
    def test_stats(self):
        h = np.array([1.0, 2.0, 3.0])
        assert SlidingWindowPredictor(2, "mean").predict_next(h) == 2.5
        assert SlidingWindowPredictor(2, "max").predict_next(h) == 3.0
        assert SlidingWindowPredictor(2, "last").predict_next(h) == 3.0

    def test_bad_stat(self):
        with pytest.raises(ValueError):
            SlidingWindowPredictor(stat="median")

    def test_empty_history(self):
        with pytest.raises(ValueError):
            SlidingWindowPredictor().predict_next(np.array([]))

    def test_rolling_shapes(self):
        actual, pred = SlidingWindowPredictor(3).rolling_predict(np.arange(10.0))
        assert actual.shape == pred.shape == (9,)


class TestGbrt:
    def test_tree_fits_step_function(self):
        X = np.linspace(0, 1, 200)[:, None]
        y = (X[:, 0] > 0.5).astype(float)
        tree = RegressionTree(max_depth=2).fit(X, y)
        pred = tree.predict(X)
        assert np.abs(pred - y).mean() < 0.05

    def test_tree_validates_shapes(self):
        with pytest.raises(ValueError):
            RegressionTree().fit(np.zeros(5), np.zeros(5))

    def test_tree_requires_fit(self):
        with pytest.raises(RuntimeError):
            RegressionTree().predict(np.zeros((2, 2)))

    def test_boosting_beats_single_tree(self):
        rng = np.random.default_rng(0)
        t = np.arange(600, dtype=float)
        s = np.sin(2 * np.pi * t / 24.0) * 3 + 5 + rng.normal(0, 0.2, 600)
        model = GbrtPredictor(lags=12, n_estimators=40).fit(s[:400])
        actual, pred = model.rolling_predict(s[400:])
        assert np.abs(actual - pred).mean() < 1.0

    def test_predict_next_needs_lags(self):
        model = GbrtPredictor(lags=5)
        s = np.sin(np.arange(100.0))
        model.fit(s)
        with pytest.raises(ValueError):
            model.predict_next(np.ones(3))

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            GbrtPredictor().predict_next(np.ones(20))


class TestMetrics:
    def test_under_over_partition(self):
        a = np.array([1.0, 2.0, 3.0])
        p = np.array([0.5, 2.0, 4.0])
        assert underestimation_rate(a, p) == pytest.approx(1 / 3)
        assert overestimation_rate(a, p) == pytest.approx(1 / 3)

    def test_underestimation_magnitude(self):
        a = np.array([2.0, 4.0])
        p = np.array([1.0, 4.0])
        assert underestimation_magnitude(a, p) == pytest.approx(0.5)
        assert underestimation_magnitude(a, a) == 0.0

    def test_mape(self):
        assert mean_absolute_percentage_error([2.0], [3.0]) == pytest.approx(50.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            underestimation_rate(np.ones(2), np.ones(3))

    def test_empty(self):
        with pytest.raises(ValueError):
            overestimation_rate([], [])
