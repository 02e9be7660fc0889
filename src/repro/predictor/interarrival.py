"""Inter-arrival time prediction with a dual-input LSTM regressor (§IV-B2).

The inter-arrival time IT — the gap between two consecutive non-empty
invocation windows — determines the pre-warming window size, so
*over*-estimating it delays warm-up and violates the SLA.  The paper's
predictor therefore (a) consumes two input streams, the inter-arrival-time
series and the invocation-count series, through two separate LSTM modules
whose final hidden states are merged, passed through an activation layer and
a linear layer; and (b) trains with a loss that punishes over-estimation.

``dual_input=False`` gives the paper's SMIless-S ablation: a single LSTM
over the inter-arrival series only, which over-estimates roughly an order of
magnitude more often (Fig. 12b).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.predictor.lstm import (
    Adam,
    DenseLayer,
    LSTMLayer,
    WindowStream,
    asymmetric_squared_error,
    shuffled_batches,
)
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive


def gaps_from_counts(counts: np.ndarray, window: float = 1.0) -> np.ndarray:
    """Inter-arrival times (seconds) between non-empty windows of a series."""
    counts = np.asarray(counts)
    nz = np.flatnonzero(counts)
    if nz.size < 2:
        return np.empty(0)
    return np.diff(nz).astype(float) * window


class InterArrivalStream(NamedTuple):
    """Window streams over one run's gap and count histories."""

    gaps: WindowStream
    counts: WindowStream | None  # None for the single-input ablation


class InterArrivalPredictor:
    """Dual-LSTM inter-arrival regressor (hidden size 128 in the paper)."""

    def __init__(
        self,
        gap_window: int = 12,
        count_window: int = 30,
        hidden_size: int = 32,
        *,
        dual_input: bool = True,
        epochs: int = 30,
        batch_size: int = 64,
        lr: float = 5e-3,
        over_weight: float = 25.0,
        window_seconds: float = 1.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        check_positive("gap_window", gap_window)
        check_positive("count_window", count_window)
        check_positive("hidden_size", hidden_size)
        check_positive("epochs", epochs)
        check_positive("over_weight", over_weight)
        self.gap_window = int(gap_window)
        self.count_window = int(count_window)
        self.dual_input = bool(dual_input)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.window_seconds = float(window_seconds)
        rng = ensure_rng(seed)
        self._rng = rng
        self.gap_lstm = LSTMLayer(1, hidden_size, rng)
        merged = hidden_size * (2 if dual_input else 1)
        self.count_lstm = LSTMLayer(1, hidden_size, rng) if dual_input else None
        self.head = DenseLayer(merged, 1, rng)
        params = {
            **self.gap_lstm.parameters("gap"),
            **self.head.parameters("head"),
        }
        if self.count_lstm is not None:
            params.update(self.count_lstm.parameters("cnt"))
        self.optimizer = Adam(params, lr=lr)
        self.over_weight = float(over_weight)
        self._gap_scale = 1.0
        self._count_scale = 1.0
        self.trained = False
        # Bumped by every training step; a stream made before it is stale.
        self._weights_version = 0

    # -- dataset construction ---------------------------------------------------
    def build_dataset(
        self, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Aligned (gap sequences, count sequences, next-gap targets).

        For each non-empty window ``t_j`` (with enough history), the gap
        input is the last ``gap_window`` inter-arrival times ending at
        ``t_j`` and the count input is the counts of the ``count_window``
        windows up to and including ``t_j``; the target is the gap from
        ``t_j`` to the next non-empty window.
        """
        counts = np.asarray(counts, dtype=float)
        nz = np.flatnonzero(counts)
        gaps = np.diff(nz).astype(float) * self.window_seconds
        gap_seqs, count_seqs, targets = [], [], []
        for j in range(self.gap_window, gaps.size):
            t_j = nz[j]  # gap j is nz[j] - nz[j-1]; target gap starts at nz[j]
            if t_j + 1 < self.count_window:
                continue
            gap_seqs.append(gaps[j - self.gap_window : j])
            count_seqs.append(counts[t_j + 1 - self.count_window : t_j + 1])
            targets.append(gaps[j])
        if not targets:
            raise ValueError(
                "not enough non-empty windows to build an inter-arrival dataset"
            )
        return np.array(gap_seqs), np.array(count_seqs), np.array(targets)

    # -- training ------------------------------------------------------------
    def fit(self, counts: np.ndarray) -> "InterArrivalPredictor":
        """Train on a historical per-window count series."""
        gap_seqs, count_seqs, targets = self.build_dataset(counts)
        self._gap_scale = max(1e-9, float(gap_seqs.mean()))
        self._count_scale = max(1.0, float(count_seqs.max()))
        G = (gap_seqs / self._gap_scale)[:, :, None]
        C = (count_seqs / self._count_scale)[:, :, None]
        y = targets / self._gap_scale
        for idx in shuffled_batches(
            self._rng, G.shape[0], self.batch_size, self.epochs
        ):
            self._train_batch(G[idx], C[idx], y[idx])
        self.trained = True
        self._weights_version += 1
        return self

    def _train_batch(self, gb: np.ndarray, cb: np.ndarray, yb: np.ndarray) -> float:
        gh, gcache = self.gap_lstm.forward(gb)
        g_last = gh[:, -1, :]
        if self.count_lstm is not None:
            ch, ccache = self.count_lstm.forward(cb)
            c_last = ch[:, -1, :]
            merged = np.concatenate([g_last, c_last], axis=1)
        else:
            merged = g_last
        act = np.tanh(merged)
        pred = self.head.forward(act)[:, 0]
        loss, dpred = asymmetric_squared_error(pred, yb, self.over_weight)
        head_grads, dact = self.head.backward(act, dpred[:, None])
        dmerged = dact * (1 - act**2)
        grads = {"head.W": head_grads["W"], "head.b": head_grads["b"]}
        H = g_last.shape[1]
        dgh = np.zeros_like(gh)
        dgh[:, -1, :] = dmerged[:, :H]
        g_grads, _ = self.gap_lstm.backward(dgh, gcache)
        grads.update({"gap.Wx": g_grads["Wx"], "gap.Wh": g_grads["Wh"], "gap.b": g_grads["b"]})
        if self.count_lstm is not None:
            dch = np.zeros_like(ch)
            dch[:, -1, :] = dmerged[:, H:]
            c_grads, _ = self.count_lstm.backward(dch, ccache)
            grads.update(
                {"cnt.Wx": c_grads["Wx"], "cnt.Wh": c_grads["Wh"], "cnt.b": c_grads["b"]}
            )
        self.optimizer.step(grads)
        return loss

    def partial_fit(
        self, counts: np.ndarray, epochs: int = 1
    ) -> "InterArrivalPredictor":
        """Online update on freshly observed windows (keeps scales fixed so
        earlier training remains consistent; pass the recent count tail)."""
        if not self.trained:
            return self.fit(counts)
        try:
            gap_seqs, count_seqs, targets = self.build_dataset(counts)
        except ValueError:
            return self  # not enough non-empty windows yet
        G = (gap_seqs / self._gap_scale)[:, :, None]
        C = (count_seqs / self._count_scale)[:, :, None]
        y = targets / self._gap_scale
        for idx in shuffled_batches(
            self._rng, G.shape[0], self.batch_size, max(1, int(epochs))
        ):
            self._train_batch(G[idx], C[idx], y[idx])
        self._weights_version += 1
        return self

    # -- inference ------------------------------------------------------------
    def stream(self) -> InterArrivalStream:
        """Window streams over one append-only gap/count history pair.

        Pass it to every :meth:`predict_next` call on those histories: the
        gap window then takes one batched LSTM step per new gap and the
        count window one per new count window, instead of a full forward
        per call.  It is valid until the next ``fit``/``partial_fit``.
        """
        if not self.trained:
            raise RuntimeError("predictor must be fit() before streaming")
        version = self._weights_version
        gaps = WindowStream(self.gap_lstm, self.gap_window, self._gap_scale, version)
        counts = None
        if self.count_lstm is not None:
            counts = WindowStream(
                self.count_lstm, self.count_window, self._count_scale, version
            )
        return InterArrivalStream(gaps, counts)

    def predict_next(
        self,
        gap_history: np.ndarray,
        count_history: np.ndarray | None,
        *,
        stream: InterArrivalStream | None = None,
    ) -> float:
        """Predicted next inter-arrival time in seconds (floored at one window).

        Only the last ``gap_window`` gaps and ``count_window`` counts are
        used.  With ``stream`` (from :meth:`stream`, fed only these
        histories) the LSTM states come from its windows; the result is
        bitwise equal to the one-shot forward.
        """
        if not self.trained:
            raise RuntimeError("predictor must be fit() before prediction")
        if len(gap_history) < self.gap_window:
            raise ValueError(
                f"need >= {self.gap_window} past gaps, got {len(gap_history)}"
            )
        if self.count_lstm is not None and len(count_history) < self.count_window:
            raise ValueError(
                f"need >= {self.count_window} past counts, got {len(count_history)}"
            )
        if stream is None:
            g = np.asarray(gap_history[-self.gap_window :], dtype=float)
            merged = self.gap_lstm.last_hidden((g / self._gap_scale)[None, :, None])
            if self.count_lstm is not None:
                c = np.asarray(count_history[-self.count_window :], dtype=float)
                hc = self.count_lstm.last_hidden((c / self._count_scale)[None, :, None])
                merged = np.concatenate([merged, hc], axis=1)
        else:
            stream.gaps.check(self.gap_lstm, self._weights_version)
            merged = stream.gaps.feed(gap_history)
            if self.count_lstm is not None:
                merged = np.concatenate(
                    [merged, stream.counts.feed(count_history)], axis=1
                )
        pred = float(self.head.forward(np.tanh(merged))[0, 0]) * self._gap_scale
        return max(self.window_seconds, pred)

    def evaluate(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(actual, predicted) next-gap pairs over a held-out count series."""
        gap_seqs, count_seqs, targets = self.build_dataset(counts)
        G = (gap_seqs / self._gap_scale)[:, :, None]
        gh, _ = self.gap_lstm.forward(G)
        merged = gh[:, -1, :]
        if self.count_lstm is not None:
            C = (count_seqs / self._count_scale)[:, :, None]
            ch, _ = self.count_lstm.forward(C)
            merged = np.concatenate([merged, ch[:, -1, :]], axis=1)
        preds = self.head.forward(np.tanh(merged))[:, 0] * self._gap_scale
        preds = np.maximum(self.window_seconds, preds)
        return targets, preds
