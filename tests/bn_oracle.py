"""Test oracle: batch normalization computed directly on the (rows, units) batch.

This is the layer's arithmetic before it moved to a wide view of the batch:
every per-unit reduction runs over axis 0 of the (rows, units) reshape, and
backward forms ``dxhat`` explicitly. The functions read a
:class:`BatchNormLayer`'s parameters and settings, and ``update_running``
writes its running statistics, so the program's layer and the oracle can be
driven side by side from equal copies.
"""

import numpy as np


def forward(bn, x, training):
    """``(out, cache)`` of a BN forward pass; cache is ``(xhat, inv_std, mean, var, training)``."""
    x2 = x.reshape(-1, bn.units)
    if training:
        mean = x2.mean(axis=0)
        var = x2.var(axis=0)
    else:
        mean = bn.running_mean
        var = bn.running_var
    inv_std = 1.0 / np.sqrt(var + bn.eps_bn)
    xhat = (x2 - mean) * inv_std
    out = (bn.scale * xhat + bn.offset).reshape(x.shape)
    return out, (xhat, inv_std, mean, var, training)


def update_running(bn, cache):
    """Fold a train-mode cache's batch statistics into ``bn``'s running averages."""
    xhat, _, mean, var, training = cache
    if not training:
        return
    rows = xhat.shape[0]
    unbiased = var * rows / (rows - 1)
    w = bn.momentum_stats
    bn.running_mean = (1.0 - w) * bn.running_mean + w * mean
    bn.running_var = (1.0 - w) * bn.running_var + w * unbiased


def backward(bn, dout, cache):
    """``(dx, {"offset": dbeta, "scale": dgamma})`` from a train-mode cache."""
    xhat, inv_std, _, _, _ = cache
    dout2 = dout.reshape(xhat.shape)
    dbeta = dout2.sum(axis=0)
    dgamma = (dout2 * xhat).sum(axis=0)
    dxhat = dout2 * bn.scale
    m = float(xhat.shape[0])
    dx2 = (inv_std / m) * (m * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
    return dx2.reshape(dout.shape), {"offset": dbeta, "scale": dgamma}
