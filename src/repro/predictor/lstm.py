"""From-scratch LSTM on NumPy: batched forward, BPTT, Adam.

The paper trains its predictors with PyTorch LSTMs; this module provides the
same building blocks without a deep-learning dependency:

- :class:`LSTMLayer` — a single LSTM layer processing ``(B, T, I)`` batches,
  returning all hidden states and a cache for truncated BPTT;
- :class:`WindowStream` — the final hidden state of the last ``W``
  values of a growing series, one batched step per new value (online
  inference);
- :class:`DenseLayer` — an affine head;
- :class:`Adam` — the optimizer, with global-norm gradient clipping;
- loss helpers: softmax cross-entropy (classification) and an asymmetric
  squared error that penalizes over-prediction more than under-prediction
  (used by the inter-arrival regressor, where over-estimating the gap delays
  pre-warming and violates the SLA).

The implementation favors clarity over raw speed, but all per-timestep math
is vectorized over the batch so training the paper-scale models (hidden
sizes 30–128, sequences of ~3600 windows) takes seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np


def _xavier(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    scale = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-scale, scale, size=(rows, cols))


class LSTMLayer:
    """One LSTM layer with input size ``I`` and hidden size ``H``.

    Weights follow the standard gate layout ``[i, f, g, o]`` stacked along
    the first axis; the forget-gate bias starts at 1.0 for stable training.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        if input_size < 1 or hidden_size < 1:
            raise ValueError("input_size and hidden_size must be >= 1")
        self.input_size = input_size
        self.hidden_size = hidden_size
        H = hidden_size
        self.Wx = _xavier(4 * H, input_size, rng)
        self.Wh = _xavier(4 * H, H, rng)
        self.b = np.zeros(4 * H)
        self.b[H : 2 * H] = 1.0  # forget gate bias

    # -- parameter plumbing --------------------------------------------------
    def parameters(self, prefix: str) -> dict[str, np.ndarray]:
        """Named parameter dict (shared with the optimizer)."""
        return {f"{prefix}.Wx": self.Wx, f"{prefix}.Wh": self.Wh, f"{prefix}.b": self.b}

    # -- forward ----------------------------------------------------------------
    def forward(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        """Run the layer over a batch of sequences.

        ``x`` has shape ``(B, T, I)``; returns hidden states ``(B, T, H)``
        and the cache needed by :meth:`backward`.
        """
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ValueError(
                f"expected input (B, T, {self.input_size}), got {x.shape}"
            )
        B, T, _ = x.shape
        H = self.hidden_size
        h = np.zeros((B, H))
        c = np.zeros((B, H))
        hs = np.zeros((B, T, H))
        cache: dict = {
            "x": x,
            "gates": [],
            "tanh_cs": [],
            "hs_prev": [],
            "cs_prev": [],
        }
        WxT = self.Wx.T
        WhT = self.Wh.T
        b = self.b
        # Hoist the input projection out of the time loop when the inner
        # dimension is 1 (every element is a single multiply, so the batched
        # product is bitwise identical to the per-timestep one).
        xz = x @ WxT if self.input_size == 1 else None
        for t in range(T):
            zx = xz[:, t, :] if xz is not None else x[:, t, :] @ WxT
            z = zx + h @ WhT + b
            # One fused sigmoid over the i/f/o columns gathered contiguously
            # (elementwise, so gathering first and splitting afterwards is
            # bitwise identical to per-gate calls at half the ufunc count).
            s = _sigmoid(
                np.concatenate([z[:, : 2 * H], z[:, 3 * H :]], axis=1)
            )
            i = s[:, :H]
            f = s[:, H : 2 * H]
            o = s[:, 2 * H :]
            g = np.tanh(z[:, 2 * H : 3 * H])
            cache["hs_prev"].append(h)
            cache["cs_prev"].append(c)
            c = f * c + i * g
            tanh_c = np.tanh(c)
            h = o * tanh_c
            hs[:, t, :] = h
            cache["gates"].append((i, f, g, o))
            cache["tanh_cs"].append(tanh_c)
        return hs, cache

    def last_hidden(self, x: np.ndarray) -> np.ndarray:
        """Final hidden state ``(B, H)`` of each sequence, inference-only.

        Runs every sequence through :meth:`step` as one row of an
        ``(B, 1, H)`` stack, without the BPTT cache or the full
        ``(B, T, H)`` hidden tensor.  Each row's arithmetic is that of a
        ``B = 1`` :meth:`forward` (see :meth:`step`), so a
        :class:`WindowStream` over the same values matches it bit for bit.
        """
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ValueError(
                f"expected input (B, T, {self.input_size}), got {x.shape}"
            )
        B, T, _ = x.shape
        h = np.zeros((B, 1, self.hidden_size))
        c = np.zeros_like(h)
        WxT = self.Wx.T
        # With I == 1 every projected element is a single multiply, so one
        # product over whole sequences equals the per-step products.
        xz = x @ WxT if self.input_size == 1 else None
        for t in range(T):
            zx = xz[:, t : t + 1] if xz is not None else x[:, t : t + 1] @ WxT
            h, c = self.step(zx, h, c)
        return h[:, 0, :]

    def step(
        self, zx: np.ndarray, h: np.ndarray, c: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance a stack of ``R`` independent rows by one timestep.

        ``h`` and ``c`` are ``(R, 1, H)``; ``zx`` is the projected input,
        ``(R, 1, 4H)`` or broadcastable to it.  The recurrent product runs
        on the 3-D stack, where NumPy does one gemv per row: each row is
        then bitwise equal to a ``(1, H) @ Wh.T`` step, whatever ``R`` is.
        (A 2-D ``(R, H)`` product goes through gemm and is not.)
        """
        H = self.hidden_size
        z = zx + np.matmul(h, self.Wh.T) + self.b
        # One sigmoid over all of z, sliced into i/f/o afterwards: sigmoid
        # is elementwise, so the g columns it also covers change nothing.
        s = _sigmoid(z)
        g = np.tanh(z[..., 2 * H : 3 * H])
        c = s[..., H : 2 * H] * c + s[..., :H] * g
        h = s[..., 3 * H :] * np.tanh(c)
        return h, c

    def backward(
        self, dhs: np.ndarray, cache: dict
    ) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """Backprop-through-time.

        ``dhs`` is the loss gradient w.r.t. every hidden state (``(B, T, H)``;
        zero rows for timesteps without direct loss).  Returns gradients for
        this layer's parameters and the gradient w.r.t. the input sequence.
        """
        x = cache["x"]
        B, T, _ = x.shape
        H = self.hidden_size
        dWx = np.zeros_like(self.Wx)
        dWh = np.zeros_like(self.Wh)
        db = np.zeros_like(self.b)
        dx = np.zeros_like(x)
        dh_next = np.zeros((B, H))
        dc_next = np.zeros((B, H))
        for t in reversed(range(T)):
            i, f, g, o = cache["gates"][t]
            c_prev = cache["cs_prev"][t]
            h_prev = cache["hs_prev"][t]
            tanh_c = cache["tanh_cs"][t]
            dh = dhs[:, t, :] + dh_next
            do = dh * tanh_c
            dc = dh * o * (1 - tanh_c**2) + dc_next
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dc_next = dc * f
            dz = np.empty((B, 4 * H))
            np.multiply(di * i, 1 - i, out=dz[:, :H])
            np.multiply(df * f, 1 - f, out=dz[:, H : 2 * H])
            np.multiply(dg, 1 - g**2, out=dz[:, 2 * H : 3 * H])
            np.multiply(do * o, 1 - o, out=dz[:, 3 * H :])
            dWx += dz.T @ x[:, t, :]
            dWh += dz.T @ h_prev
            db += dz.sum(axis=0)
            dx[:, t, :] = dz @ self.Wx
            dh_next = dz @ self.Wh
        return {"Wx": dWx, "Wh": dWh, "b": db}, dx


class WindowStream:
    """Final hidden state of the last ``window`` values of a growing series.

    The streaming form of ``layer.last_hidden(series[-window:] / scale)``
    for an ``input_size == 1`` layer.  The ``window`` windows still open
    are the rows of one ``(window, 1, H)`` state.  Each new value zeroes
    the row whose window starts with it and advances every row by one
    batched :meth:`LSTMLayer.step`; the row that has then consumed
    ``window`` values is the answer.  No future input is needed, and each
    row does the one-shot arithmetic, so the result is bitwise equal to
    ``last_hidden`` on every window.

    ``version`` tags the owner's weights when the stream was made; owners
    refuse a stream whose tag no longer matches.
    """

    def __init__(
        self, layer: LSTMLayer, window: int, scale: float, version: int
    ) -> None:
        if layer.input_size != 1:
            raise ValueError("a window stream needs an input_size == 1 layer")
        self.layer = layer
        self.window = int(window)
        self.scale = scale
        self.version = version
        self.seen = 0
        self._h = np.zeros((self.window, 1, layer.hidden_size))
        self._c = np.zeros_like(self._h)

    def check(self, layer: LSTMLayer, version: int) -> None:
        """Raise unless this stream was made for ``layer`` at ``version``."""
        if self.layer is not layer or self.version != version:
            raise RuntimeError(
                "stream was made by another predictor or before the last "
                "fit/partial_fit"
            )

    def feed(self, series: np.ndarray) -> np.ndarray:
        """Consume the values of ``series`` not seen yet, oldest first.

        ``series`` must extend the series fed so far.  Returns the
        ``(1, H)`` final hidden state over its last ``window`` values.
        Values older than that lie outside every open window, so at most
        ``window`` steps are taken however long the unseen suffix is.
        """
        n = len(series)
        W = self.window
        if n < self.seen:
            raise ValueError(
                f"series shrank from {self.seen} to {n} values; a stream "
                f"follows one append-only series"
            )
        if n < W:
            raise ValueError(f"need >= {W} values, got {n}")
        start = max(self.seen, n - W)
        if n > start:
            x = np.asarray(series[start:n], dtype=float) / self.scale
            xz = (x[None, :, None] @ self.layer.Wx.T)[0]  # as in last_hidden
            h, c = self._h, self._c
            for t in range(n - start):
                row = (start + t) % W
                h[row] = 0.0
                c[row] = 0.0
                h, c = self.layer.step(xz[t], h, c)
            self._h, self._c = h, c
            self.seen = n
        # A copy: the next feed zeroes this row in place.
        return self._h[n % W].copy()


class DenseLayer:
    """Affine layer ``y = x @ W.T + b``."""

    def __init__(self, input_size: int, output_size: int, rng: np.random.Generator):
        self.W = _xavier(output_size, input_size, rng)
        self.b = np.zeros(output_size)

    def parameters(self, prefix: str) -> dict[str, np.ndarray]:
        """Named parameter dict (shared with the optimizer)."""
        return {f"{prefix}.W": self.W, f"{prefix}.b": self.b}

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Apply the affine map to a ``(B, I)`` batch."""
        return x @ self.W.T + self.b

    def backward(self, x: np.ndarray, dy: np.ndarray) -> tuple[dict, np.ndarray]:
        """Gradients for parameters and input given upstream ``dy``."""
        return {"W": dy.T @ x, "b": dy.sum(axis=0)}, dy @ self.W


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Numerically stable split, evaluated branchlessly: ``exp(-|z|)`` never
    # overflows and equals the stable branch's exponential on both sides
    # (``exp(-z)`` for ``z >= 0``, ``exp(z)`` otherwise), so each element
    # goes through bit-for-bit the same expression as the classic masked
    # two-branch form — without its gather/scatter cost, which dominates on
    # the small per-gate slices this sees.
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(z >= 0, 1.0, e)
    e += 1.0  # e becomes the shared denominator
    np.divide(out, e, out=out)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift stabilization."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy loss and gradient w.r.t. logits."""
    B = logits.shape[0]
    probs = softmax(logits)
    loss = float(-np.log(probs[np.arange(B), labels] + 1e-12).mean())
    grad = probs.copy()
    grad[np.arange(B), labels] -= 1.0
    return loss, grad / B


def asymmetric_squared_error(
    pred: np.ndarray, target: np.ndarray, over_weight: float = 8.0
) -> tuple[float, np.ndarray]:
    """Squared error that penalizes over-prediction ``over_weight`` times more.

    Over-estimating an inter-arrival time makes pre-warming start too late
    and violates the SLA, so the regressor is trained to err low (§IV-B2).
    """
    diff = pred - target
    w = np.where(diff > 0, over_weight, 1.0)
    loss = float((w * diff**2).mean())
    grad = 2.0 * w * diff / diff.size
    return loss, grad


@dataclass
class Adam:
    """Adam optimizer over a named parameter dict, with global-norm clipping."""

    params: dict[str, np.ndarray]
    lr: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 5.0
    _m: dict[str, np.ndarray] = field(default_factory=dict)
    _v: dict[str, np.ndarray] = field(default_factory=dict)
    _t: int = 0

    def __post_init__(self) -> None:
        for k, p in self.params.items():
            self._m[k] = np.zeros_like(p)
            self._v[k] = np.zeros_like(p)

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """Apply one update; ``grads`` keys must match the parameter dict."""
        total = np.sqrt(sum(float((g**2).sum()) for g in grads.values()))
        scale = min(1.0, self.clip_norm / (total + 1e-12))
        self._t += 1
        bias1 = 1 - self.beta1**self._t
        bias2 = 1 - self.beta2**self._t
        for k, g in grads.items():
            g = g * scale
            p = self.params[k]
            self._m[k] = self.beta1 * self._m[k] + (1 - self.beta1) * g
            self._v[k] = self.beta2 * self._v[k] + (1 - self.beta2) * g**2
            m_hat = self._m[k] / bias1
            v_hat = self._v[k] / bias2
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def make_windows(series: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Sliding windows for next-step prediction.

    Returns ``(X, y)`` where ``X[i]`` is ``series[i : i+length]`` and
    ``y[i] = series[i+length]``.
    """
    s = np.asarray(series, dtype=float)
    if s.ndim != 1:
        raise ValueError("series must be 1-D")
    if length < 1:
        raise ValueError("window length must be >= 1")
    if s.size <= length:
        raise ValueError(
            f"series of length {s.size} too short for window {length}"
        )
    n = s.size - length
    idx = np.arange(length)[None, :] + np.arange(n)[:, None]
    return s[idx], s[length:]


def shuffled_batches(
    rng: np.random.Generator, n: int, batch_size: int, epochs: int
) -> Iterator[np.ndarray]:
    """Index batches of shuffled mini-batch training over ``n`` examples.

    Each epoch draws one ``rng.permutation(n)`` and yields it in
    ``batch_size`` chunks, so a predictor's RNG advances exactly once per
    epoch whatever the batch count.
    """
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            yield order[start : start + batch_size]

