"""Invocation trace container and windowing utilities.

A :class:`Trace` is an immutable, sorted array of invocation arrival times
(seconds).  Both the Online Predictor (which consumes per-window counts) and
the simulator (which consumes raw arrival events) read from this single
representation, mirroring how the Gateway feeds both consumers in the paper.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive


class Trace:
    """Sorted sequence of invocation arrival times for one application."""

    __slots__ = ("_times", "duration")

    def __init__(self, times: np.ndarray | list[float], duration: float | None = None):
        arr = np.asarray(times, dtype=float)
        if arr.ndim != 1:
            raise ValueError(f"times must be 1-D, got shape {arr.shape}")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("times contains non-finite values")
        if arr.size and arr.min() < 0:
            raise ValueError("times must be non-negative")
        arr = np.sort(arr)
        self._times = arr
        self._times.setflags(write=False)
        inferred = float(arr[-1]) if arr.size else 0.0
        self.duration = float(duration) if duration is not None else inferred
        if self.duration < inferred:
            raise ValueError(
                f"duration {self.duration} is shorter than the last arrival {inferred}"
            )

    # -- basics ------------------------------------------------------------
    def __len__(self) -> int:
        return int(self._times.size)

    def __iter__(self):
        return iter(self._times)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Trace) and np.array_equal(self._times, other._times)

    def __hash__(self) -> int:  # immutable container
        return hash((self._times.tobytes(), self.duration))

    @property
    def times(self) -> np.ndarray:
        """Read-only arrival-time array."""
        return self._times

    @property
    def rate(self) -> float:
        """Mean arrival rate (invocations per second)."""
        return len(self) / self.duration if self.duration > 0 else 0.0

    # -- windowing ----------------------------------------------------------
    def counts_per_window(self, window: float = 1.0) -> np.ndarray:
        """Invocation counts per fixed window (the Gateway's 1 s counting).

        Returns an integer array of length ``ceil(duration / window)``.
        """
        check_positive("window", window)
        n_windows = max(1, int(np.ceil(self.duration / window)))
        if not len(self):
            return np.zeros(n_windows, dtype=int)
        idx = np.minimum((self._times / window).astype(int), n_windows - 1)
        return np.bincount(idx, minlength=n_windows)

    def inter_arrival_times(self) -> np.ndarray:
        """Gaps between consecutive arrivals (empty for < 2 arrivals)."""
        if len(self) < 2:
            return np.empty(0)
        return np.diff(self._times)

    def window_inter_arrivals(self, window: float = 1.0) -> np.ndarray:
        """Gaps between consecutive *non-empty* windows, in seconds.

        This is the paper's notion of inter-arrival time IT: the interval
        between two consecutive non-zero invocation-count windows (§IV-B2).
        """
        counts = self.counts_per_window(window)
        nz = np.flatnonzero(counts)
        if nz.size < 2:
            return np.empty(0)
        return np.diff(nz).astype(float) * window

    def variance_to_mean_ratio(self, window: float = 1.0) -> float:
        """Index of dispersion of windowed counts (burstiness measure)."""
        counts = self.counts_per_window(window)
        mean = counts.mean()
        return float(counts.var() / mean) if mean > 0 else 0.0

    # -- transforms -----------------------------------------------------------
    def slice(self, start: float, end: float) -> "Trace":
        """Arrivals in ``[start, end)``, re-based so the slice starts at 0."""
        if end <= start:
            raise ValueError(f"empty slice [{start}, {end})")
        mask = (self._times >= start) & (self._times < end)
        return Trace(self._times[mask] - start, duration=end - start)

    def time_scaled(self, factor: float) -> "Trace":
        """Compress (factor < 1) or stretch arrival times by ``factor``.

        The paper scales Azure's one-minute intervals down to two seconds —
        a ``factor`` of ``2/60``.
        """
        check_positive("factor", factor)
        return Trace(self._times * factor, duration=self.duration * factor)

    def merged(self, other: "Trace") -> "Trace":
        """Union of two traces (e.g. co-running applications)."""
        return Trace(
            np.concatenate([self._times, other._times]),
            duration=max(self.duration, other.duration),
        )

    def shifted(self, offset: float) -> "Trace":
        """Trace delayed by ``offset`` seconds."""
        check_positive("offset", offset, strict=False)
        return Trace(self._times + offset, duration=self.duration + offset)

    @classmethod
    def from_counts(
        cls,
        counts: np.ndarray | list[int],
        window: float = 1.0,
        *,
        rng: np.random.Generator | None = None,
    ) -> "Trace":
        """Build a trace from per-window counts.

        Arrivals are spread uniformly at random inside each window when an
        ``rng`` is supplied, or placed at the window start otherwise.
        """
        counts_arr = np.asarray(counts, dtype=int)
        if counts_arr.ndim != 1:
            raise ValueError("counts must be 1-D")
        if (counts_arr < 0).any():
            raise ValueError("counts must be non-negative")
        times: list[np.ndarray] = []
        for i, c in enumerate(counts_arr):
            if c == 0:
                continue
            if rng is None:
                times.append(np.full(c, i * window))
            else:
                times.append(i * window + np.sort(rng.random(c)) * window)
        flat = np.concatenate(times) if times else np.empty(0)
        return cls(flat, duration=len(counts_arr) * window)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Trace(n={len(self)}, duration={self.duration:.1f}s, rate={self.rate:.3f}/s)"
