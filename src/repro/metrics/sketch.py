"""Mergeable streaming sketches: quantiles and moments in O(1) memory.

The scale plane's core primitive.  A run with ``retention="sketch"``
folds every completed invocation's latency into a :class:`QuantileSketch`
and a :class:`StreamingStats` instead of retaining the
:class:`~repro.simulator.invocation.Invocation` record, so memory per
application is bounded by the sketch size — independent of how many
million arrivals the trace carries.

Design (t-digest style, Dunning & Ertl):

- values stream into a small insertion buffer; when it fills, the buffer
  is sorted and merge-compressed into a bounded list of *centroids*
  (weighted means), each limited to one unit of the ``k1`` scale function
  ``k(q) = (compression / 2pi) * asin(2q - 1)`` — tail centroids stay
  tiny (near-exact), the middle compresses, and the centroid count is
  hard-capped at about ``compression`` regardless of stream length;
- while the sketch has seen at most ``compression`` values it keeps them
  verbatim and :meth:`quantile` is **bit-identical** to
  ``numpy.percentile`` (linear interpolation) — small runs lose nothing;
- sketches :meth:`merge` by re-compressing the union of their centroids.
  Merging is *commutative* bit-for-bit (centroids are sorted before
  compression) and *associative within the rank-error bound* (different
  merge trees may compress differently, but every tree's estimates obey
  the same bound).

**Documented rank-error bound**: for any quantile ``q`` in [0, 100], the
value returned by :meth:`quantile` sits at a true (empirical) rank within
``rank_error_bound`` of ``q/100``, where ``rank_error_bound`` is
``2.0 / compression`` (1 % at the default ``compression=200``).  The
bound holds for merged sketches too; ``tests/test_sketch_properties.py``
pins it across adversarial distributions (bimodal, heavy-tail, constant,
tiny n) and merge orders.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["QuantileSketch", "StreamingStats"]


class StreamingStats:
    """Exact streaming count / sum / min / max (mergeable, O(1) memory)."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation in."""
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def merge(self, other: "StreamingStats") -> None:
        """Fold another accumulator in (exact, order-insensitive counts)."""
        self.count += other.count
        self.total += other.total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum

    def __eq__(self, other: object) -> bool:
        """Value equality: same count, running sum and extrema."""
        if not isinstance(other, StreamingStats):
            return NotImplemented
        return (self.count, self.total, self.minimum, self.maximum) == (
            other.count,
            other.total,
            other.minimum,
            other.maximum,
        )

    @property
    def mean(self) -> float:
        """Arithmetic mean (NaN for an empty accumulator)."""
        return self.total / self.count if self.count else float("nan")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StreamingStats(count={self.count}, mean={self.mean:.4g}, "
            f"min={self.minimum:.4g}, max={self.maximum:.4g})"
        )


class QuantileSketch:
    """Mergeable t-digest-style streaming quantile sketch.

    ``compression`` trades memory for accuracy: the sketch holds at most
    ~``2 * compression`` centroids and guarantees the documented
    fractional rank error :attr:`rank_error_bound` (= ``2/compression``).
    Until more than ``compression`` values have been seen the sketch is
    exact — :meth:`quantile` matches ``numpy.percentile`` bit for bit.
    """

    #: Insertion-buffer length between merge-compressions.
    _BUFFER = 512

    __slots__ = ("compression", "count", "_means", "_counts", "_buf", "_min", "_max")

    def __init__(self, compression: int = 200) -> None:
        if compression < 20:
            raise ValueError(f"compression must be >= 20, got {compression}")
        self.compression = int(compression)
        self.count = 0
        self._means = np.empty(0)
        self._counts = np.empty(0)
        self._buf: list[float] = []
        self._min = math.inf
        self._max = -math.inf

    # ------------------------------------------------------------- streaming
    @property
    def rank_error_bound(self) -> float:
        """Documented worst-case fractional rank error of :meth:`quantile`."""
        return 2.0 / self.compression

    def add(self, value: float) -> None:
        """Fold one observation in."""
        if not math.isfinite(value):
            raise ValueError(f"sketch values must be finite, got {value}")
        self.count += 1
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._buf.append(value)
        if len(self._buf) >= self._BUFFER and self.count > self.compression:
            self.flush()

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch in.

        Commutative bit-for-bit (the union of centroids is sorted before
        compression, so ``a.merge(b)`` and ``b.merge(a)`` hold identical
        state); associative within :attr:`rank_error_bound`.
        """
        if other.count == 0:
            return
        self.count += other.count
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max
        if self.count <= self.compression:
            # Both sides still exact: stay exact.
            self._buf.extend(other._all_values())
            return
        means, counts = other._centroid_state()
        own_means, own_counts = self._centroid_state()
        self._means = np.concatenate([own_means, means])
        self._counts = np.concatenate([own_counts, counts])
        self._buf = []
        self._compress()

    # ------------------------------------------------------------- internals
    def _all_values(self) -> np.ndarray:
        """Every retained value as singletons (exact-regime helper)."""
        parts = []
        if self._means.size:
            # Exact-regime sketches only ever hold singleton centroids.
            parts.append(np.repeat(self._means, self._counts.astype(int)))
        if self._buf:
            parts.append(np.asarray(self._buf))
        return np.concatenate(parts) if parts else np.empty(0)

    def _centroid_state(self) -> tuple[np.ndarray, np.ndarray]:
        """Current (means, counts) with the buffer folded in as singletons."""
        if self._buf:
            buf = np.asarray(self._buf)
            means = np.concatenate([self._means, buf])
            counts = np.concatenate([self._counts, np.ones(buf.size)])
            return means, counts
        return self._means.copy(), self._counts.copy()

    def flush(self) -> None:
        """Fold the insertion buffer into the centroid set.

        Queries flush on their own.  A shard worker flushes each finished
        unit's sketch once before shipping it, so the unit travels
        compressed and every barrier merge starts from centroids alone.
        """
        if not self._buf:
            return
        self._means, self._counts = self._centroid_state()
        self._buf = []
        self._compress()

    def _q_limit(self, q0: float) -> float:
        """Largest cumulative quantile one centroid starting at ``q0`` may span.

        One unit of the t-digest ``k1`` scale function
        ``k(q) = (compression / 2pi) * asin(2q - 1)``: centroids are thin
        at the tails (``dq ~ sqrt(q(1-q))``) and the total k-range is
        ``compression / 2``, hard-capping the centroid count.
        """
        scale = self.compression / (2.0 * math.pi)
        k = scale * math.asin(2.0 * q0 - 1.0) + 1.0
        if k >= scale * (math.pi / 2.0):
            return 1.0
        return 0.5 * (math.sin(k / scale) + 1.0)

    def _compress(self) -> None:
        """Merge-compress centroids under the t-digest ``k1`` size budget.

        Centroids are sorted by (mean, count) — making the result a pure
        function of the centroid *multiset*, hence commutative merges —
        then greedily merged left-to-right while the combined centroid
        spans at most one unit of the ``k1`` scale function.
        """
        order = np.lexsort((self._counts, self._means))
        means = self._means[order]
        counts = self._counts[order]
        n = float(counts.sum())
        out_means: list[float] = []
        out_counts: list[float] = []
        cum_before = 0.0  # mass strictly before the open centroid
        cur_mean = float(means[0])
        cur_count = float(counts[0])
        q_limit = self._q_limit(0.0)
        for i in range(1, means.size):
            c = float(counts[i])
            merged = cur_count + c
            if (cum_before + merged) / n <= q_limit:
                cur_mean += (float(means[i]) - cur_mean) * (c / merged)
                cur_count = merged
            else:
                out_means.append(cur_mean)
                out_counts.append(cur_count)
                cum_before += cur_count
                q_limit = self._q_limit(cum_before / n)
                cur_mean = float(means[i])
                cur_count = c
        out_means.append(cur_mean)
        out_counts.append(cur_count)
        self._means = np.asarray(out_means)
        self._counts = np.asarray(out_counts)

    # -------------------------------------------------------------- queries
    def quantile(self, q: float) -> float:
        """Estimate percentile ``q`` in [0, 100] (NaN on an empty sketch).

        Exact (``numpy.percentile``-identical) while at most
        ``compression`` values have been seen; afterwards accurate within
        :attr:`rank_error_bound` of the true empirical rank.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if self.count == 0:
            return float("nan")
        if self.count <= self.compression:
            return float(np.percentile(self._all_values(), q))
        self.flush()
        means, counts = self._means, self._counts
        if means.size == 1:
            return float(means[0])
        n = float(counts.sum())
        target = (q / 100.0) * n
        # Centroid i's mass is centred at cumulative midpoint cum_i - c_i/2.
        cum = np.cumsum(counts)
        mids = cum - counts / 2.0
        if target <= mids[0]:
            # Below the first midpoint: interpolate from the true minimum.
            span = mids[0]
            frac = target / span if span > 0 else 1.0
            return float(self._min + frac * (means[0] - self._min))
        if target >= mids[-1]:
            span = n - mids[-1]
            frac = (target - mids[-1]) / span if span > 0 else 0.0
            return float(means[-1] + frac * (self._max - means[-1]))
        j = int(np.searchsorted(mids, target, side="right"))
        left, right = mids[j - 1], mids[j]
        frac = (target - left) / (right - left) if right > left else 0.0
        return float(means[j - 1] + frac * (means[j] - means[j - 1]))

    @property
    def minimum(self) -> float:
        """Smallest observed value (``inf`` on an empty sketch)."""
        return self._min

    @property
    def maximum(self) -> float:
        """Largest observed value (``-inf`` on an empty sketch)."""
        return self._max

    def __len__(self) -> int:
        return self.count

    # ------------------------------------------------------------ snapshots
    def to_flat(self) -> tuple[float, ...]:
        """Flat ``(mean0, count0, mean1, count1, ...)`` centroid snapshot.

        The JSON-scalar form the telemetry plane embeds in
        :class:`~repro.telemetry.events.RunFinished`; round-trips through
        :meth:`from_flat` (the reconstructed sketch answers quantile
        queries within the same rank-error bound).
        """
        self.flush()
        means, counts = self._centroid_state()
        out: list[float] = []
        for m, c in zip(means, counts):
            out.append(float(m))
            out.append(float(c))
        return tuple(out)

    @classmethod
    def from_flat(
        cls, flat: tuple[float, ...] | list[float], compression: int = 200
    ) -> "QuantileSketch":
        """Rebuild a sketch from a :meth:`to_flat` snapshot."""
        if len(flat) % 2:
            raise ValueError(
                f"flat snapshot must have even length, got {len(flat)}"
            )
        sketch = cls(compression)
        means = np.asarray(flat[0::2], dtype=float)
        counts = np.asarray(flat[1::2], dtype=float)
        if means.size:
            order = np.lexsort((counts, means))
            sketch._means = means[order]
            sketch._counts = counts[order]
            sketch.count = int(round(float(counts.sum())))
            sketch._min = float(means.min())
            sketch._max = float(means.max())
        return sketch

    def __eq__(self, other: object) -> bool:
        """Value equality: same settings, extrema, centroids and buffer."""
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return (
            (self.compression, self.count, self._min, self._max, self._buf)
            == (other.compression, other.count, other._min, other._max, other._buf)
            and np.array_equal(self._means, other._means)
            and np.array_equal(self._counts, other._counts)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"QuantileSketch(n={self.count}, centroids={self._means.size}, "
            f"buffered={len(self._buf)}, compression={self.compression})"
        )
