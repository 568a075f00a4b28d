"""Test oracle: the per-column train step that the bundled Grassmann update replaced.

Every BN-fed column is stepped on its own, with the scalar formulas of
SGD-G and Adam-G written out again in plain numpy, so the oracle shares no
Grassmann code with the program. Orthogonality gradient, Euclidean updates
and BN statistics go through the same program calls as
``Trainer.train_step``. Per-point state is ``{"tau", "v", "t"}``.
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
    """Drives a :class:`Trainer`'s network, partition and Euclidean states column by column."""

    def __init__(self, trainer):
        self.trainer = trainer
        self.points = [
            {"tau": np.zeros(ref.dim), "v": 0.0, "t": 0} for ref in trainer.partition.points
        ]

    def train_step(self, bx, by, lr_g, lr_e):
        tr = self.trainer
        net = tr.net
        _, grads, caches = net.loss_and_grads(bx, by, training=True)
        if tr.alpha > 0:
            for k in tr.partition.grassmann_layers:
                lc = LayerColumns(net.layers[k].weight_matrix(), tr.alpha)
                gname = tr._weight_name(k)
                grads[k][gname] = grads[k][gname] + ortho_grad(lc).reshape(grads[k][gname].shape)
        for i, ref in enumerate(tr.partition.points):
            wm = net.layers[ref.layer_index].weight_matrix()
            g = grads[ref.layer_index][tr._weight_name(ref.layer_index)].reshape(wm.shape)
            y = wm[:, ref.column].copy()
            if tr.optimizer == "sgd-g":
                y_new, self.points[i] = sgdg_column(y, g[:, ref.column], self.points[i], lr_g, tr.sgdg_hyper)
            else:
                y_new, self.points[i] = adamg_column(y, g[:, ref.column], self.points[i], lr_g, tr.adamg_hyper)
            wm[:, ref.column] = y_new
        for i, ref in enumerate(tr.partition.euclidean):
            arr = tr._param(ref)
            new, tr.euclid_states[i] = optim.euclidean_sgd_step(
                arr, grads[ref.layer_index][ref.name], tr.euclid_states[i], lr_e,
                apply_weight_decay=tr.decay_groups[ref.group],
            )
            arr[...] = new
        net.apply_running_updates(caches)
