"""Test oracle: the per-column train step that the bundled Grassmann update replaced.

Every BN-fed column is stepped on its own, with the scalar formulas of
SGD-G and Adam-G written out again in plain numpy, so the oracle shares no
Grassmann code with the program. Orthogonality gradient, Euclidean updates
and BN statistics go through the same program calls as
``Trainer.train_step``. Per-point state is ``{"tau", "v", "t"}``, keyed by
``(layer, column)``.
"""

import math

import numpy as np

from grassopt import optim
from grassopt.manifold import DEGENERATE_STEP
from grassopt.regularizer import LayerColumns, ortho_grad


def _exp(y, h):
    nh = float(np.linalg.norm(h))
    if nh < DEGENERATE_STEP:
        return y
    out = y * math.cos(nh) + h * (math.sin(nh) / nh)
    return out / np.linalg.norm(out)


def _translate_self(y, h):
    nh = float(np.linalg.norm(h))
    if nh < DEGENERATE_STEP:
        return h
    return h * math.cos(nh) - y * (nh * math.sin(nh))


def _translate(y, delta, h):
    nh = float(np.linalg.norm(h))
    if nh < DEGENERATE_STEP:
        return delta
    u = h / nh
    coef = float(u @ delta)
    return delta - (u * (1.0 - math.cos(nh)) + y * math.sin(nh)) * coef


def _clipped_projection(y, g, nu):
    h = g - float(y @ g) * y
    nh = float(np.linalg.norm(h))
    return h if nh <= nu else h * (nu / nh)


def sgdg_column(y, g, state, lr, hyper):
    h_hat = _clipped_projection(y, g, hyper.nu)
    d = hyper.gamma * state["tau"] - lr * h_hat
    return _exp(y, d), {"tau": _translate_self(y, d), "v": 0.0, "t": 0}


def adamg_column(y, g, state, lr, hyper):
    t = state["t"] + 1
    eta_t = lr * np.sqrt(1.0 - hyper.beta2**t) / (1.0 - hyper.beta1**t)
    h_hat = _clipped_projection(y, g, hyper.nu)
    m = hyper.beta1 * state["tau"] + (1.0 - hyper.beta1) * h_hat
    v = hyper.beta2 * state["v"] + (1.0 - hyper.beta2) * float(h_hat @ h_hat)
    d = -eta_t / np.sqrt(v + hyper.epsilon) * m
    return _exp(y, d), {"tau": _translate(y, m, d), "v": v, "t": t}


class ColumnOracle:
    """Drives a :class:`Trainer`'s network, partition and Euclidean velocities column by column."""

    def __init__(self, trainer):
        self.trainer = trainer
        self.points = {}
        for k in trainer.partition.grassmann_layers:
            n, p = trainer.net.layers[k].weight_matrix().shape
            self.points.update({(k, j): {"tau": np.zeros(n), "v": 0.0, "t": 0} for j in range(p)})

    def train_step(self, bx, by, lr_g, lr_e):
        tr = self.trainer
        net = tr.net
        _, grads, caches = net.loss_and_grads(bx, by, training=True)
        if tr.alpha > 0:
            for k in tr.partition.grassmann_layers:
                lc = LayerColumns(net.layers[k].weight_matrix(), tr.alpha)
                gname = net.layers[k].weight_name
                grads[k][gname] = grads[k][gname] + ortho_grad(lc).reshape(grads[k][gname].shape)
        for (k, j), point in self.points.items():
            wm = net.layers[k].weight_matrix()
            g = grads[k][net.layers[k].weight_name].reshape(wm.shape)
            y = wm[:, j].copy()
            if tr.optimizer == "sgd-g":
                y_new, self.points[k, j] = sgdg_column(y, g[:, j], point, lr_g, tr.sgdg_hyper)
            else:
                y_new, self.points[k, j] = adamg_column(y, g[:, j], point, lr_g, tr.adamg_hyper)
            wm[:, j] = y_new
        for ref, velocity in zip(tr.partition.euclidean, tr.velocities):
            arr = tr._param(ref)
            arr[...], velocity[...] = optim.euclidean_sgd_step(
                arr, grads[ref.layer_index][ref.name], velocity, lr_e, tr.euclid_hyper,
                apply_weight_decay=tr.decay_groups[ref.group],
            )
        net.apply_running_updates(caches)
