"""Layer primitives with manual forward and backward passes.

Activations from the first convolution up to ``FlattenLayer`` are
channels-last, (m, h, w, c), so batch normalization and ReLU always see the
unit axis last. ``FlattenLayer`` is the one place that knows the layout: it
hands the classifier features in (c, h, w) order.

Every layer follows the same protocol: ``forward(x, training)`` returns
``(out, cache)`` without mutating any state, ``backward(dout, cache)`` returns
``(dx, grads)`` where ``grads`` maps parameter names to arrays, and
``params()`` lists the trainable arrays. Batch normalization keeps its running
statistics out of ``forward``; the training loop applies them explicitly via
``update_running`` so that forward passes stay pure (finite differencing
depends on this).
"""

import numpy as np

from ..errors import DimensionError, PreconditionError

__all__ = [
    "DenseLayer",
    "ConvLayer",
    "BatchNormLayer",
    "ReluLayer",
    "FlattenLayer",
    "softmax_ce",
]


class DenseLayer:
    """Fully connected layer ``x @ W (+ bias)``; bias is omitted when feeding BN."""

    weight_name = "W"

    def __init__(self, weight, bias=None):
        self.W = np.asarray(weight, dtype=np.float64)
        if self.W.ndim != 2:
            raise DimensionError(f"dense weight must be 2-D, got {self.W.shape}")
        self.bias = None if bias is None else np.asarray(bias, dtype=np.float64)
        if self.bias is not None and self.bias.shape != (self.W.shape[1],):
            raise DimensionError(f"bias shape {self.bias.shape} != ({self.W.shape[1]},)")

    @property
    def n_in(self) -> int:
        return self.W.shape[0]

    @property
    def n_out(self) -> int:
        return self.W.shape[1]

    def weight_matrix(self) -> np.ndarray:
        return self.W

    def params(self) -> dict:
        out = {"W": self.W}
        if self.bias is not None:
            out["bias"] = self.bias
        return out

    def forward(self, x, training=False):
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise DimensionError(f"dense input shape {x.shape} incompatible with W {self.W.shape}")
        out = x @ self.W
        if self.bias is not None:
            out = out + self.bias
        return out, x

    def backward(self, dout, cache):
        x = cache
        grads = {"W": x.T @ dout}
        if self.bias is not None:
            grads["bias"] = dout.sum(axis=0)
        return dout @ self.W.T, grads


class ConvLayer:
    """2-D convolution over NHWC inputs, filters stored as (kh, kw, c_in, c_out).

    Input and output are channels-last, (m, h, w, c). The filter bank unrolled
    to a (kh*kw*c_in, c_out) matrix is the layer's weight matrix for
    partitioning purposes: each output channel is one column.
    """

    weight_name = "filters"

    def __init__(self, filters, stride=1, padding=0):
        self.filters = np.ascontiguousarray(filters, dtype=np.float64)
        if self.filters.ndim != 4:
            raise DimensionError(f"filters must be 4-D (kh, kw, c_in, c_out), got {self.filters.shape}")
        if stride < 1 or padding < 0:
            raise PreconditionError(f"stride must be >= 1 and padding >= 0, got {stride}, {padding}")
        self.stride = int(stride)
        self.padding = int(padding)

    def weight_matrix(self) -> np.ndarray:
        kh, kw, cin, cout = self.filters.shape
        return self.filters.reshape(kh * kw * cin, cout)

    def params(self) -> dict:
        return {"filters": self.filters}

    def forward(self, x, training=False):
        if x.ndim != 4 or x.shape[3] != self.filters.shape[2]:
            raise DimensionError(f"conv input shape {x.shape} incompatible with filters {self.filters.shape}")
        m, h, w, cin = x.shape
        kh, kw, _, cout = self.filters.shape
        pad, s = self.padding, self.stride
        ho = (h + 2 * pad - kh) // s + 1
        wo = (w + 2 * pad - kw) // s + 1
        if ho < 1 or wo < 1:
            raise DimensionError("convolution output would be empty")
        xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0))) if pad else x
        # (m, ho, wo, kh, kw, c_in) windows, one im2col row per output pixel
        windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw, cin), axis=(1, 2, 3))
        cols2 = windows[:, : s * ho : s, : s * wo : s, 0].reshape(m * ho * wo, kh * kw * cin)
        out = (cols2 @ self.weight_matrix()).reshape(m, ho, wo, cout)
        return out, (cols2, x.shape)

    def backward(self, dout, cache):
        cols2, (m, h, w, cin) = cache
        _, ho, wo, cout = dout.shape
        kh, kw = self.filters.shape[:2]
        dmat = dout.reshape(m * ho * wo, cout)
        dw = (cols2.T @ dmat).reshape(self.filters.shape)
        dcols = (dmat @ self.weight_matrix().T).reshape(m, ho, wo, kh, kw, cin)
        pad, s = self.padding, self.stride
        dxp = np.zeros((m, h + 2 * pad, w + 2 * pad, cin))
        for di in range(kh):
            for dj in range(kw):
                dxp[:, di : di + s * ho : s, dj : dj + s * wo : s] += dcols[:, :, :, di, dj]
        dx = dxp[:, pad : pad + h, pad : pad + w] if pad else dxp
        return dx, {"filters": dw}


class BatchNormLayer:
    """Batch normalization with per-unit trainable offset and (optionally frozen) scale.

    The unit axis is the last one: a 2-D (m, units) batch is normalized per
    column, and a channels-last (m, h, w, c) batch per channel, over its
    m*h*w rows. Train mode normalizes by the mini-batch mean and biased
    variance; eval mode uses running statistics maintained as an exponential
    moving average with the unbiased variance correction.
    """

    def __init__(self, units, momentum_stats=0.1, eps_bn=1e-5, scale_trainable=True):
        if not 0.0 < momentum_stats < 1.0:
            raise PreconditionError(f"momentum_stats must be in (0, 1), got {momentum_stats}")
        if eps_bn <= 0.0:
            raise PreconditionError(f"eps_bn must be positive, got {eps_bn}")
        self.units = int(units)
        self.offset = np.zeros(self.units)
        self.scale = np.ones(self.units)
        self.running_mean = np.zeros(self.units)
        self.running_var = np.ones(self.units)
        self.momentum_stats = float(momentum_stats)
        self.eps_bn = float(eps_bn)
        self.scale_trainable = bool(scale_trainable)

    def params(self) -> dict:
        out = {"offset": self.offset}
        if self.scale_trainable:
            out["scale"] = self.scale
        return out

    def forward(self, x, training=False):
        if x.ndim < 2 or x.shape[-1] != self.units:
            raise DimensionError(f"BN expects {self.units} units on the last axis, got input {x.shape}")
        x2 = x.reshape(-1, self.units)
        if training:
            if x2.shape[0] < 2:
                raise PreconditionError(
                    f"train-mode BN needs at least 2 rows per unit, got {x2.shape[0]}"
                )
            mean = x2.mean(axis=0)
            var = x2.var(axis=0)
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps_bn)
        xhat = (x2 - mean) * inv_std
        out = (self.scale * xhat + self.offset).reshape(x.shape)
        cache = (xhat, inv_std, mean, var, training)
        return out, cache

    def update_running(self, cache):
        """Fold the cached batch statistics into the running averages."""
        xhat, _, mean, var, training = cache
        if not training:
            return
        rows = xhat.shape[0]
        unbiased = var * rows / (rows - 1)
        w = self.momentum_stats
        self.running_mean = (1.0 - w) * self.running_mean + w * mean
        self.running_var = (1.0 - w) * self.running_var + w * unbiased

    def backward(self, dout, cache):
        xhat, inv_std, _, _, training = cache
        if not training:
            raise PreconditionError("BN backward requires a train-mode cache")
        dout2 = dout.reshape(xhat.shape)
        dbeta = dout2.sum(axis=0)
        dgamma = (dout2 * xhat).sum(axis=0)
        dxhat = dout2 * self.scale
        m = float(xhat.shape[0])
        dx2 = (inv_std / m) * (
            m * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0)
        )
        grads = {"offset": dbeta}
        if self.scale_trainable:
            grads["scale"] = dgamma
        return dx2.reshape(dout.shape), grads


class ReluLayer:
    """Elementwise max(x, 0)."""

    def params(self) -> dict:
        return {}

    def forward(self, x, training=False):
        return np.maximum(x, 0.0), x

    def backward(self, dout, cache):
        return dout * (cache > 0), {}


class FlattenLayer:
    """Channels-last (m, h, w, c) maps to (m, c*h*w) features in (c, h, w) order.

    This is the only layer that knows the layout: the classifier's rows, and
    so its checkpointed weights, follow the channel-major order.
    """

    def params(self) -> dict:
        return {}

    def forward(self, x, training=False):
        return x.transpose(0, 3, 1, 2).reshape(x.shape[0], -1), x.shape

    def backward(self, dout, cache):
        m, h, w, c = cache
        return dout.reshape(m, c, h, w).transpose(0, 2, 3, 1), {}


def softmax_ce(logits, labels):
    """Mean softmax cross-entropy and its gradient with respect to the logits."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.ndim != 1 or logits.shape[0] != labels.shape[0]:
        raise DimensionError(f"incompatible logits {logits.shape} and labels {labels.shape}")
    m = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = -float(log_probs[np.arange(m), labels].mean())
    dlogits = np.exp(log_probs)
    dlogits[np.arange(m), labels] -= 1.0
    return loss, dlogits / m
