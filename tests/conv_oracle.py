"""Test oracle: the convolution as a row-major im2col product and a per-tap scatter.

This is :class:`ConvLayer` before its input gradient moved to grouped-tap
products and its single-channel im2col to a tap-major build. ``forward``
copies one (kh, kw, c_in) window per output pixel into a row of the im2col
matrix. ``backward`` takes every tap's contribution from one
``(rows, c_out) @ (c_out, kh*kw*c_in)`` product, and ``kh*kw`` strided
``+=`` scatter them into the zero-padded input gradient. Both read the
layer's filters, stride and padding, and the caches are the layer's, so the
program's layer and the oracle can be driven side by side.
"""

import numpy as np


def forward(conv, x):
    """``(out, cache)`` of a conv forward pass; the cache is ``(cols2, x.shape)``."""
    m, h, w, cin = x.shape
    kh, kw, _, cout = conv.filters.shape
    pad, s = conv.padding, conv.stride
    ho = (h + 2 * pad - kh) // s + 1
    wo = (w + 2 * pad - kw) // s + 1
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0))) if pad else x
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw, cin), axis=(1, 2, 3))
    cols2 = windows[:, : s * ho : s, : s * wo : s, 0].reshape(m * ho * wo, kh * kw * cin)
    out = (cols2 @ conv.weight_matrix()).reshape(m, ho, wo, cout)
    return out, (cols2, x.shape)


def backward(conv, dout, cache, input_grad=True):
    """``(dx, {"filters": dw})`` of a conv layer; ``dx`` is ``None`` without ``input_grad``."""
    cols2, (m, h, w, cin) = cache
    _, ho, wo, cout = dout.shape
    kh, kw = conv.filters.shape[:2]
    dmat = dout.reshape(m * ho * wo, cout)
    dw = (cols2.T @ dmat).reshape(conv.filters.shape)
    if not input_grad:
        return None, {"filters": dw}
    dcols = (dmat @ conv.weight_matrix().T).reshape(m, ho, wo, kh, kw, cin)
    pad, s = conv.padding, conv.stride
    dxp = np.zeros((m, h + 2 * pad, w + 2 * pad, cin))
    for di in range(kh):
        for dj in range(kw):
            dxp[:, di : di + s * ho : s, dj : dj + s * wo : s] += dcols[:, :, :, di, dj]
    dx = dxp[:, pad : pad + h, pad : pad + w] if pad else dxp
    return dx, {"filters": dw}
