"""Layer primitives with manual forward and backward passes.

Activations from the first convolution up to ``FlattenLayer`` are
channels-last, (m, h, w, c), so batch normalization and ReLU always see the
unit axis last. ``FlattenLayer`` is the one place that knows the layout: it
hands the classifier features in (c, h, w) order. Convolution is an im2col
product; its input gradient is a sum of products over groups of ``stride``
adjacent taps, each landing on whole rows of the padded gradient.

Every layer follows the same protocol: ``forward(x, training)`` returns
``(out, cache)`` without mutating any state, ``backward(dout, cache)`` returns
``(dx, grads)`` where ``grads`` maps parameter names to arrays, and
``params()`` lists the trainable arrays. ``backward(dout, cache,
input_grad=False)`` returns ``None`` for ``dx``: the network's first layer
needs only its parameter gradients. Batch normalization keeps its running
statistics out of ``forward``; the training loop applies them explicitly via
``update_running`` so that forward passes stay pure (finite differencing
depends on this).
"""

import math

import numpy as np

from ..errors import DimensionError, PreconditionError

__all__ = [
    "DenseLayer",
    "ConvLayer",
    "BatchNormLayer",
    "ReluLayer",
    "FlattenLayer",
    "softmax_ce",
    "BN_EPS",
    "BN_MOMENTUM",
]

BN_EPS = 1e-5  # default variance floor of batch normalization
BN_MOMENTUM = 0.1  # default weight of the batch statistics in the running averages


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

    def weight_matrix(self) -> np.ndarray:
        return self.W

    def params(self) -> dict:
        out = {"W": self.W}
        if self.bias is not None:
            out["bias"] = self.bias
        return out

    def forward(self, x, training=False):
        if x.ndim != 2 or x.shape[1] != self.W.shape[0]:
            raise DimensionError(f"dense input shape {x.shape} incompatible with W {self.W.shape}")
        out = x @ self.W
        if self.bias is not None:
            out = out + self.bias
        return out, x

    def backward(self, dout, cache, input_grad=True):
        x = cache
        grads = {"W": x.T @ dout}
        if self.bias is not None:
            grads["bias"] = dout.sum(axis=0)
        return (dout @ self.W.T if input_grad else None), grads


class ConvLayer:
    """2-D convolution over NHWC inputs, filters stored as (kh, kw, c_in, c_out).

    Input and output are channels-last, (m, h, w, c). The filter bank unrolled
    to a (kh*kw*c_in, c_out) matrix is the layer's weight matrix for
    partitioning purposes: each output channel is one column.

    Forward is one product of the im2col matrix, one (kh, kw, c_in) window
    per output pixel, with that matrix. With one input channel the windows'
    rows are only kw values long, so the matrix is built as its transpose,
    one copy per tap along whole output rows. The filter gradient is one
    product with the im2col matrix. The input gradient is the transposed
    convolution split by stride phase: each kernel row's taps are taken in
    groups of ``stride`` adjacent taps, and one group's product gives
    ``stride * c_in`` adjacent values of the padded input gradient per output
    pixel, so each accumulation runs over whole rows of the gradient rather
    than ``c_in``-wide pieces of them.
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
        if cin == 1:
            # One value per tap: build the transpose, one copy per tap along
            # whole output rows, instead of copying kw-wide window rows.
            colsT = np.empty((kh, kw, m, ho, wo))
            for di in range(kh):
                for dj in range(kw):
                    colsT[di, dj] = xp[:, di : di + s * ho : s, dj : dj + s * wo : s, 0]
            cols2 = colsT.reshape(kh * kw, m * ho * wo).T
        else:
            # (m, ho, wo, kh, kw, c_in) windows, one im2col row per output pixel
            windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw, cin), axis=(1, 2, 3))
            cols2 = windows[:, : s * ho : s, : s * wo : s, 0].reshape(m * ho * wo, kh * kw * cin)
        out = (cols2 @ self.weight_matrix()).reshape(m, ho, wo, cout)
        return out, (cols2, x.shape)

    def backward(self, dout, cache, input_grad=True):
        cols2, (m, h, w, cin) = cache
        _, ho, wo, cout = dout.shape
        kh, kw = self.filters.shape[:2]
        dmat = dout.reshape(m * ho * wo, cout)
        dw = (cols2.T @ dmat).reshape(self.filters.shape)
        if not input_grad:
            return None, {"filters": dw}
        pad, s = self.padding, self.stride
        groups = -(-kw // s)  # groups of s adjacent taps per kernel row
        # Padded input columns in groups of s: tap g*s + r of output column j
        # lands on group g + j, phase r, so one group's product covers s*cin
        # adjacent values and each += runs over whole wo*s*cin-wide rows
        # (the last group may hold fewer taps).
        width = max(-(-(w + 2 * pad) // s), groups + wo - 1)
        dxp = np.zeros((m, h + 2 * pad, width, s * cin))
        for di in range(kh):
            for g in range(groups):
                taps = self.filters[di, g * s : (g + 1) * s]
                n = taps.shape[0] * cin
                prod = dmat @ taps.reshape(n, cout).T
                dxp[:, di : di + s * ho : s, g : g + wo, :n] += prod.reshape(m, ho, wo, n)
        dx = dxp.reshape(m, h + 2 * pad, width * s, cin)[:, pad : pad + h, pad : pad + w]
        return dx, {"filters": dw}


# Batch statistics are per-unit reductions over rows. With only 8 or 16 units
# a row is too short for numpy's inner loops, so BN works on a wide view of the
# (rows, units) batch, (rows / k, k * units), whose rows are about this long.
_WIDE_ROW = 256


def _fold_factor(rows, units):
    """k for the wide view: the largest divisor of ``rows`` with k * units <= 256.

    Wide batches (128 units or more) keep k = 1. k depends on (rows, units)
    only, so an (m, h, w, c) batch and its (m*h*w, c) reshape share one view.
    """
    if 2 * units >= _WIDE_ROW:
        return 1
    return max((k for k in range(1, min(_WIDE_ROW // units, rows) + 1) if rows % k == 0), default=1)


def _tile(v, k):
    """A per-unit vector laid out along a wide row."""
    return v if k == 1 else np.tile(v, k)


def _fold(s, k):
    """Per-unit totals of a wide row of sums."""
    return s if k == 1 else s.reshape(k, -1).sum(axis=0)


class BatchNormLayer:
    """Batch normalization with per-unit trainable offset and (optionally frozen) scale.

    The unit axis is the last one: a 2-D (m, units) batch is normalized per
    column, and a channels-last (m, h, w, c) batch per channel, over its
    m*h*w rows. Train mode normalizes by the mini-batch mean and biased
    variance; eval mode uses running statistics maintained as an exponential
    moving average with the unbiased variance correction. With those fixed,
    eval mode is one affine map per unit, ``x * a + b``, and its cache is
    ``None``: ``backward`` refuses it and ``update_running`` ignores it.

    The arithmetic runs on the wide view described at ``_fold_factor``; the
    train-mode cache holds ``xhat`` in that wide shape. The batch variance
    and the scale gradient are each one ``einsum`` pass over it, with no
    product temporary.
    """

    def __init__(self, units, momentum_stats=BN_MOMENTUM, eps_bn=BN_EPS, scale_trainable=True):
        if not 0.0 < momentum_stats < 1.0:
            raise PreconditionError(f"bn_momentum must be in (0, 1), got {momentum_stats}")
        if not 0.0 < eps_bn < math.inf:
            raise PreconditionError(f"bn_eps must be positive and finite, got {eps_bn}")
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
        rows = x.size // self.units
        if training and rows < 2:
            raise PreconditionError(f"train-mode BN needs at least 2 rows per unit, got {rows}")
        k = _fold_factor(rows, self.units)
        xw = x.reshape(rows // k, k * self.units)
        if not training:
            a = self.scale / np.sqrt(self.running_var + self.eps_bn)
            out = xw * _tile(a, k)
            out += _tile(self.offset - self.running_mean * a, k)
            return out.reshape(x.shape), None
        mean = _fold(xw.sum(axis=0), k) / rows
        xhat = xw - _tile(mean, k)
        var = _fold(np.einsum("ij,ij->j", xhat, xhat), k) / rows
        inv_std = 1.0 / np.sqrt(var + self.eps_bn)
        xhat *= _tile(inv_std, k)
        out = xhat * _tile(self.scale, k)
        out += _tile(self.offset, k)
        return out.reshape(x.shape), (xhat, inv_std, mean, var)

    def update_running(self, cache):
        """Fold the cached batch statistics into the running averages (eval caches are ignored).

        In place, with the bytes of ``(1 - w) * running + w * batch``; both
        batch terms exist before the first write, so none is allocated between writes.
        """
        if cache is None:
            return
        xhat, _, mean, var = cache
        rows = xhat.size // self.units
        w = self.momentum_stats
        batch_mean = w * mean
        batch_var = var * rows / (rows - 1)
        batch_var *= w
        self.running_mean *= 1.0 - w
        self.running_mean += batch_mean
        self.running_var *= 1.0 - w
        self.running_var += batch_var

    def backward(self, dout, cache, input_grad=True):
        if cache is None:
            raise PreconditionError("BN backward requires a train-mode cache")
        xhat, inv_std, _, _ = cache
        k = xhat.shape[1] // self.units
        rows = xhat.size // self.units
        doutw = dout.reshape(xhat.shape)
        dbeta = _fold(doutw.sum(axis=0), k)
        dgamma = _fold(np.einsum("ij,ij->j", doutw, xhat), k)
        grads = {"offset": dbeta}
        if self.scale_trainable:
            grads["scale"] = dgamma
        if not input_grad:
            return None, grads
        # dxhat = scale * dout, so sum(dxhat) = scale * dbeta and
        # sum(dxhat * xhat) = scale * dgamma:
        # dx = scale * inv_std * (dout - dbeta / rows - xhat * dgamma / rows)
        dx = xhat * _tile(-dgamma / rows, k)
        dx += doutw
        dx -= _tile(dbeta / rows, k)
        dx *= _tile(self.scale * inv_std, k)
        return dx.reshape(dout.shape), grads


class ReluLayer:
    """Elementwise max(x, 0)."""

    def params(self) -> dict:
        return {}

    def forward(self, x, training=False):
        return np.maximum(x, 0.0), x

    def backward(self, dout, cache, input_grad=True):
        return (dout * (cache > 0) if input_grad else None), {}


class FlattenLayer:
    """Channels-last (m, h, w, c) maps to (m, c*h*w) features in (c, h, w) order.

    This is the only layer that knows the layout: the classifier's rows, and
    so its checkpointed weights, follow the channel-major order.
    """

    def params(self) -> dict:
        return {}

    def forward(self, x, training=False):
        return x.transpose(0, 3, 1, 2).reshape(x.shape[0], -1), x.shape

    def backward(self, dout, cache, input_grad=True):
        m, h, w, c = cache
        return (dout.reshape(m, c, h, w).transpose(0, 2, 3, 1) if input_grad else None), {}


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
