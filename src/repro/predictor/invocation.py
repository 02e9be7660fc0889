"""Invocation-number prediction via bucketized LSTM classification (§IV-B1).

To avoid under-estimation (and hence SLA violations), the paper predicts the
invocation count for the next one-second window with a *classifier* rather
than a regressor: the prediction space is divided into buckets whose size
equals the minimum batch size of the application's functions, and the upper
bound of the predicted bucket is returned, inflated by a 3 % compensation
for residual under-estimation (§VII-C2).
"""

from __future__ import annotations

import math

import numpy as np

from repro.predictor.lstm import (
    Adam,
    DenseLayer,
    LSTMLayer,
    WindowStream,
    make_windows,
    shuffled_batches,
    softmax,
    softmax_cross_entropy,
)
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive

#: Compensation added to the bucket upper bound (§VII-C2: "+3 %").
DEFAULT_COMPENSATION = 0.03


class InvocationPredictor:
    """LSTM bucket classifier over per-window invocation counts.

    Parameters mirror the paper: hidden size 30, input sequence length
    tailored per application (default 30 windows), bucket size equal to the
    application's minimum batch size.
    """

    def __init__(
        self,
        bucket_size: int = 1,
        n_buckets: int = 16,
        window: int = 30,
        hidden_size: int = 30,
        *,
        epochs: int = 6,
        batch_size: int = 64,
        lr: float = 1e-2,
        compensation: float = DEFAULT_COMPENSATION,
        quantile: float = 0.95,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        check_positive("bucket_size", bucket_size)
        check_positive("n_buckets", n_buckets)
        check_positive("window", window)
        check_positive("hidden_size", hidden_size)
        check_positive("epochs", epochs)
        if not 0.0 <= compensation < 1.0:
            raise ValueError(f"compensation must be in [0, 1), got {compensation}")
        if not 0.0 < quantile <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {quantile}")
        self.quantile = float(quantile)
        self.bucket_size = int(bucket_size)
        self.n_buckets = int(n_buckets)
        self.window = int(window)
        self.compensation = float(compensation)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        rng = ensure_rng(seed)
        self._rng = rng
        self.lstm = LSTMLayer(1, hidden_size, rng)
        self.head = DenseLayer(hidden_size, self.n_buckets, rng)
        params = {**self.lstm.parameters("lstm"), **self.head.parameters("head")}
        self.optimizer = Adam(params, lr=lr)
        self._scale = 1.0
        self.trained = False
        # Bumped by every training step; a stream made before it is stale.
        self._weights_version = 0

    # -- bucketing ------------------------------------------------------------
    def bucket_of(self, count: int) -> int:
        """Bucket index of an invocation count (0 = idle window)."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if count == 0:
            return 0
        return min(int(math.ceil(count / self.bucket_size)), self.n_buckets - 1)

    def upper_bound(self, bucket: int) -> int:
        """Upper bound of a bucket — the raw (uncompensated) prediction."""
        if not 0 <= bucket < self.n_buckets:
            raise ValueError(f"bucket {bucket} out of range")
        return bucket * self.bucket_size

    # -- training ------------------------------------------------------------
    def fit(self, counts: np.ndarray) -> "InvocationPredictor":
        """Train on a historical per-window count series."""
        counts = np.asarray(counts, dtype=float)
        X, y = make_windows(counts, self.window)
        labels = np.array([self.bucket_of(int(round(v))) for v in y])
        self._scale = max(1.0, float(counts.max()))
        Xn = (X / self._scale)[:, :, None]
        for idx in shuffled_batches(
            self._rng, Xn.shape[0], self.batch_size, self.epochs
        ):
            self._train_batch(Xn[idx], labels[idx])
        self.trained = True
        self._weights_version += 1
        return self

    def _train_batch(self, xb: np.ndarray, yb: np.ndarray) -> float:
        hs, cache = self.lstm.forward(xb)
        last = hs[:, -1, :]
        logits = self.head.forward(last)
        loss, dlogits = softmax_cross_entropy(logits, yb)
        head_grads, dlast = self.head.backward(last, dlogits)
        dhs = np.zeros_like(hs)
        dhs[:, -1, :] = dlast
        lstm_grads, _ = self.lstm.backward(dhs, cache)
        self.optimizer.step(
            {
                "lstm.Wx": lstm_grads["Wx"],
                "lstm.Wh": lstm_grads["Wh"],
                "lstm.b": lstm_grads["b"],
                "head.W": head_grads["W"],
                "head.b": head_grads["b"],
            }
        )
        return loss

    def partial_fit(self, counts: np.ndarray, epochs: int = 1) -> "InvocationPredictor":
        """Online update on freshly observed windows (§IV-B: the Online
        Predictor keeps training as the Gateway streams invocation counts).

        The normalization scale only ever grows, so earlier training stays
        consistent; pass the recent tail of the count series.
        """
        if not self.trained:
            return self.fit(counts)
        counts = np.asarray(counts, dtype=float)
        if counts.size <= self.window:
            return self  # not enough new history for a single example
        X, y = make_windows(counts, self.window)
        labels = np.array([self.bucket_of(int(round(v))) for v in y])
        self._scale = max(self._scale, float(counts.max()), 1.0)
        Xn = (X / self._scale)[:, :, None]
        for idx in shuffled_batches(
            self._rng, Xn.shape[0], self.batch_size, max(1, int(epochs))
        ):
            self._train_batch(Xn[idx], labels[idx])
        self._weights_version += 1
        return self

    # -- inference ------------------------------------------------------------
    def stream(self) -> WindowStream:
        """A window stream over one append-only count history.

        Pass it to every :meth:`predict_next` call on that history: each
        call then feeds only the windows it has not seen and takes one
        batched LSTM step per window instead of a ``window``-step forward.
        It is valid until the next ``fit``/``partial_fit``.
        """
        if not self.trained:
            raise RuntimeError("predictor must be fit() before streaming")
        return WindowStream(
            self.lstm, self.window, self._scale, self._weights_version
        )

    def predict_bucket(
        self, history: np.ndarray, *, stream: WindowStream | None = None
    ) -> int:
        """Bucket choice for the next window given recent counts.

        Uses *conservative* selection: the smallest bucket whose cumulative
        predicted probability reaches ``quantile``.  This is how the
        classification approach "determines the upper bound of the bucket"
        without under-estimating: only a ``1 - quantile`` tail of outcomes
        can exceed the chosen bucket.
        """
        probs = self.predict_proba(history, stream=stream)
        return self._select_bucket(probs[None, :])[0]

    def _select_bucket(self, probs: np.ndarray) -> np.ndarray:
        cdf = np.cumsum(probs, axis=1)
        return np.argmax(cdf >= self.quantile - 1e-12, axis=1)

    def predict_proba(
        self, history: np.ndarray, *, stream: WindowStream | None = None
    ) -> np.ndarray:
        """Bucket probability distribution for the next window.

        With ``stream`` (from :meth:`stream`, fed only this history) the
        LSTM state comes from the stream; the result is bitwise equal to
        the one-shot forward over the last ``window`` counts.
        """
        self._check_ready(history)
        if stream is None:
            x = np.asarray(history[-self.window :], dtype=float) / self._scale
            h = self.lstm.last_hidden(x[None, :, None])
        else:
            stream.check(self.lstm, self._weights_version)
            h = stream.feed(history)
        return softmax(self.head.forward(h))[0]

    def predict_next(
        self, history: np.ndarray, *, stream: WindowStream | None = None
    ) -> int:
        """Predicted invocation count: bucket upper bound plus compensation."""
        raw = self.upper_bound(self.predict_bucket(history, stream=stream))
        return int(round(raw * (1.0 + self.compensation)))

    def rolling_predict(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One-step-ahead predictions along a test series.

        Returns ``(actual, predicted)`` arrays of length
        ``len(counts) - window``; the model is *not* updated while rolling.
        """
        counts = np.asarray(counts, dtype=float)
        X, y = make_windows(counts, self.window)
        Xn = (X / self._scale)[:, :, None]
        hs, _ = self.lstm.forward(Xn)
        probs = softmax(self.head.forward(hs[:, -1, :]))
        buckets = self._select_bucket(probs)
        preds = np.round(
            buckets * self.bucket_size * (1.0 + self.compensation)
        ).astype(int)
        return y.astype(int), preds

    def _check_ready(self, history: np.ndarray) -> None:
        if not self.trained:
            raise RuntimeError("predictor must be fit() before prediction")
        if np.asarray(history).size < self.window:
            raise ValueError(
                f"history must contain >= {self.window} windows, got {np.asarray(history).size}"
            )
