"""Property tests for the streaming metrics sketches.

Pins the documented contract of :mod:`repro.metrics.sketch`:

- while at most ``compression`` values have been seen, ``quantile`` is
  **bit-identical** to ``numpy.percentile`` (the exact regime);
- beyond that, every estimate sits within ``rank_error_bound``
  (= ``2 / compression``) of the true empirical rank — across
  adversarial distributions (bimodal, heavy tail, constant, tiny n)
  and input orders;
- ``merge`` is commutative bit-for-bit and associative within the
  rank-error bound, including many-shard merges (the multi-app
  aggregation path);
- :class:`StreamingStats` is exact and mergeable.

Hypothesis drives the exact-regime and commutativity properties; the
adversarial distributions use seeded numpy generators so failures
reproduce.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import QuantileSketch, StreamingStats

#: Quantile grid the rank-error properties are checked on — includes the
#: extremes and the tails where t-digest budgets are tightest.
Q_GRID = (0.0, 0.1, 1.0, 5.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 100.0)


def rank_error(data: np.ndarray, value: float, q: float) -> float:
    """Fractional rank error of ``value`` as an estimate of percentile ``q``.

    ``value`` covers the rank interval ``[lo, hi]`` in the sorted data
    (degenerate when ``value`` is interpolated rather than observed); the
    error is the distance from ``q/100`` to that interval.
    """
    data = np.sort(data)
    n = data.size
    lo = np.searchsorted(data, value, side="left") / n
    hi = np.searchsorted(data, value, side="right") / n
    target = q / 100.0
    if lo <= target <= hi:
        return 0.0
    return min(abs(target - lo), abs(target - hi))


def assert_within_bound(sketch: QuantileSketch, data: np.ndarray) -> None:
    bound = sketch.rank_error_bound
    for q in Q_GRID:
        err = rank_error(data, sketch.quantile(q), q)
        assert err <= bound + 1e-12, (
            f"p{q}: rank error {err:.5f} exceeds bound {bound:.5f} "
            f"(n={data.size}, compression={sketch.compression})"
        )


def fill(values, compression: int = 200) -> QuantileSketch:
    sketch = QuantileSketch(compression)
    for v in values:
        sketch.add(float(v))
    return sketch


#: Adversarial value distributions, all seeded (name -> n=5000 sample).
def _distributions() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(1234)
    n = 5000
    bimodal = np.concatenate(
        [rng.normal(0.0, 0.05, n // 2), rng.normal(100.0, 0.05, n - n // 2)]
    )
    return {
        "uniform": rng.random(n),
        "bimodal": bimodal,
        "heavy_tail": rng.pareto(1.1, n) + 1.0,
        "constant": np.full(n, 3.25),
        "lognormal": rng.lognormal(0.0, 2.0, n),
        "sorted": np.sort(rng.random(n)),
        "reversed": np.sort(rng.random(n))[::-1],
    }


DISTRIBUTIONS = _distributions()


class TestRankErrorBound:
    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    def test_streaming_within_bound(self, name):
        data = DISTRIBUTIONS[name]
        assert_within_bound(fill(data), data)

    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    def test_tight_compression_within_its_own_bound(self, name):
        # The bound scales with compression: a coarse sketch still honors
        # its (looser) documented bound.
        data = DISTRIBUTIONS[name]
        assert_within_bound(fill(data, compression=50), data)

    def test_shuffled_orders_within_bound(self):
        data = DISTRIBUTIONS["bimodal"]
        rng = np.random.default_rng(7)
        for _ in range(3):
            shuffled = rng.permutation(data)
            assert_within_bound(fill(shuffled), data)

    def test_min_max_exact(self):
        data = DISTRIBUTIONS["heavy_tail"]
        sketch = fill(data)
        assert sketch.minimum == data.min()
        assert sketch.maximum == data.max()
        assert sketch.quantile(0.0) == data.min()
        assert sketch.quantile(100.0) == data.max()

    def test_centroid_count_bounded(self):
        # Memory contract: centroids never exceed ~2 * compression.
        sketch = fill(DISTRIBUTIONS["lognormal"])
        sketch.flush()
        assert sketch._means.size <= 2 * sketch.compression


class TestExactRegime:
    @given(
        st.lists(
            st.floats(
                min_value=-1e9,
                max_value=1e9,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=50,
        ),
        st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_small_n_matches_numpy_bitwise(self, values, q):
        # n <= compression: bit-identical to numpy's linear interpolation,
        # including n < 10 and duplicate-heavy inputs.
        sketch = fill(values, compression=200)
        expected = float(np.percentile(np.asarray(values), q))
        got = sketch.quantile(q)
        assert got == expected or (math.isnan(got) and math.isnan(expected))

    def test_exact_regime_boundary(self):
        # Exactly `compression` values: still exact.  One more: sketch may
        # compress but stays within bound.
        rng = np.random.default_rng(5)
        data = rng.random(200)
        sketch = fill(data, compression=200)
        for q in Q_GRID:
            assert sketch.quantile(q) == float(np.percentile(data, q))
        sketch.add(0.5)
        full = np.append(data, 0.5)
        assert_within_bound(sketch, full)


class TestMerge:
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=0,
            max_size=400,
        ),
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=0,
            max_size=400,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_commutative_bitwise(self, a_vals, b_vals):
        ab = fill(a_vals, compression=50)
        ab.merge(fill(b_vals, compression=50))
        ba = fill(b_vals, compression=50)
        ba.merge(fill(a_vals, compression=50))
        assert ab.to_flat() == ba.to_flat()
        assert ab.count == ba.count == len(a_vals) + len(b_vals)

    def test_associative_within_bound(self):
        # Different merge trees over the same shards: every tree's
        # estimates obey the one documented bound.
        rng = np.random.default_rng(11)
        shards = [rng.lognormal(0.0, 1.5, 1500) for _ in range(4)]
        data = np.concatenate(shards)

        left = fill(shards[0])
        for s in shards[1:]:
            left.merge(fill(s))

        pair_a = fill(shards[0])
        pair_a.merge(fill(shards[1]))
        pair_b = fill(shards[2])
        pair_b.merge(fill(shards[3]))
        pair_a.merge(pair_b)

        for tree in (left, pair_a):
            assert tree.count == data.size
            assert_within_bound(tree, data)

    def test_eight_shard_merge_within_bound(self):
        # The multi-app aggregation shape: one sketch per app, merged.
        rng = np.random.default_rng(21)
        shards = [rng.pareto(1.3, 2000) + 0.01 for _ in range(8)]
        merged = QuantileSketch()
        for s in shards:
            merged.merge(fill(s))
        data = np.concatenate(shards)
        assert merged.count == data.size
        assert_within_bound(merged, data)

    def test_merge_empty_is_identity(self):
        sketch = fill(np.arange(500.0))
        before = sketch.to_flat()
        sketch.merge(QuantileSketch())
        assert sketch.to_flat() == before
        empty = QuantileSketch()
        empty.merge(fill([1.0, 2.0]))
        assert empty.quantile(50) == 1.5


class TestSnapshots:
    def test_flat_roundtrip_within_bound(self):
        data = DISTRIBUTIONS["lognormal"]
        sketch = fill(data)
        rebuilt = QuantileSketch.from_flat(sketch.to_flat())
        assert rebuilt.count == sketch.count
        assert_within_bound(rebuilt, data)

    def test_flat_roundtrip_empty(self):
        rebuilt = QuantileSketch.from_flat(())
        assert rebuilt.count == 0
        assert math.isnan(rebuilt.quantile(50))

    def test_from_flat_odd_length_raises(self):
        with pytest.raises(ValueError, match="even length"):
            QuantileSketch.from_flat((1.0, 2.0, 3.0))


class TestErrorPaths:
    def test_non_finite_add_raises(self):
        sketch = QuantileSketch()
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                sketch.add(bad)
        assert sketch.count == 0

    def test_quantile_out_of_range_raises(self):
        sketch = fill([1.0])
        for q in (-0.1, 100.1, 1000):
            with pytest.raises(ValueError, match="q must be"):
                sketch.quantile(q)

    def test_low_compression_raises(self):
        with pytest.raises(ValueError, match="compression"):
            QuantileSketch(19)

    def test_empty_sketch_conventions(self):
        sketch = QuantileSketch()
        assert math.isnan(sketch.quantile(50))
        assert sketch.minimum == math.inf
        assert sketch.maximum == -math.inf
        assert len(sketch) == 0


class TestStreamingStats:
    @given(
        st.lists(
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_exact(self, values):
        stats = StreamingStats()
        for v in values:
            stats.add(v)
        arr = np.asarray(values)
        assert stats.count == arr.size
        assert stats.minimum == arr.min()
        assert stats.maximum == arr.max()
        assert stats.total == pytest.approx(float(arr.sum()), rel=1e-12, abs=1e-9)

    def test_merge_matches_sequential(self):
        a, b, seq = StreamingStats(), StreamingStats(), StreamingStats()
        for v in (1.0, 2.0, 5.0):
            a.add(v)
            seq.add(v)
        for v in (-3.0, 0.5):
            b.add(v)
            seq.add(v)
        a.merge(b)
        assert (a.count, a.total, a.minimum, a.maximum) == (
            seq.count,
            seq.total,
            seq.minimum,
            seq.maximum,
        )
        assert a.mean == seq.mean

    def test_empty_mean_is_nan(self):
        assert math.isnan(StreamingStats().mean)
