"""Test oracle: the Grassmann updates before they worked in the gradient's buffer.

These are ``sgdg_update`` and ``adamg_update`` with the projection, clip and
geodesic kernels they called, as they were written before the update moved to
the gradient's own buffer and to row blocks. Every elementwise step writes a
fresh whole array here, and nothing is modified in place. The program must
match these bytes exactly: it keeps the same operations in the same order, and
only the buffers they are written to change.
"""

import numpy as np

from grassopt import manifold
from grassopt.errors import DimensionError, NumericalError, PreconditionError
from grassopt.manifold import DEGENERATE_STEP


def _col_inner(a, b):
    return np.einsum("i...,i...->...", a, b)


def _col_norm(a):
    return np.sqrt(_col_inner(a, a))


def _project(y, g):
    h = y * -_col_inner(y, g)
    h += g
    return h


def _clip(h, nu, norms):
    return h * (nu / np.maximum(norms, nu)), norms


def _geodesic(y, d, delta=None, norms=None):
    nd = _col_norm(d) if norms is None else norms
    still = nd < DEGENERATE_STEP
    safe = np.where(still, 1.0, nd)
    cos, sin = np.cos(nd), np.sin(nd)

    scratch = d * (sin / safe)
    y_new = y * cos
    y_new += scratch
    y_new /= _col_norm(y_new)

    if delta is None:
        moved = d * cos
        moved -= np.multiply(y, nd * sin, out=scratch)
    else:
        bend = d / safe
        coef = _col_inner(bend, delta)
        bend *= 1.0 - cos
        bend += np.multiply(y, sin, out=scratch)
        bend *= coef
        moved = delta - bend
    if np.any(still):
        np.copyto(y_new, y, where=still)
        np.copyto(moved, d if delta is None else delta, where=still)
    return y_new, moved


def _check_inputs(y, g, tau, lr, base):
    g = np.asarray(g, dtype=np.float64)
    if g.shape != y.shape or tau.shape != y.shape:
        raise DimensionError(f"gradient {g.shape} and momentum {tau.shape} must match the point {y.shape}")
    if not np.isfinite(g).all():
        raise NumericalError(f"non-finite gradient for a point of shape {y.shape}")
    if lr < 0.0:
        raise PreconditionError(f"learning rate must be nonnegative, got {lr}")
    if not np.array_equal(base, y):
        raise PreconditionError("momentum state belongs to a different point")
    manifold.require_unit(y, "point")
    return g


def _projected_clipped(y, g, nu):
    h = _project(y, g)
    try:
        h_norm = manifold.require_tangent(y, h, "projected gradient")
    except PreconditionError:
        raise NumericalError(f"projected gradient lost tangency to rounding, point shape {y.shape}") from None
    return _clip(h, nu, h_norm)


def sgdg_update(y, g, tau, lr, hyper, base):
    """``(y', tau', |h|)`` of one SGD-G step."""
    g = _check_inputs(y, g, tau, lr, base)
    h_hat, h_norm = _projected_clipped(y, g, hyper.nu)
    h_hat *= lr
    d = hyper.gamma * tau
    d -= h_hat
    del h_hat
    d_norm = manifold.require_tangent(y, d, "step")
    y_new, tau_new = _geodesic(y, d, norms=d_norm)
    manifold.require_unit(y_new, "new point")
    manifold.require_tangent(y_new, tau_new, "transported momentum")
    return y_new, tau_new, h_norm


def adamg_update(y, g, tau, v, t, lr, hyper, base):
    """``(y', tau', v', |h|)`` of one Adam-G step; the step count becomes ``t + 1``."""
    g = _check_inputs(y, g, tau, lr, base)
    t = t + 1
    eta_t = lr * np.sqrt(1.0 - hyper.beta2**t) / (1.0 - hyper.beta1**t)
    h_hat, h_norm = _projected_clipped(y, g, hyper.nu)
    v_new = hyper.beta2 * v + (1.0 - hyper.beta2) * np.minimum(h_norm, hyper.nu) ** 2
    h_hat *= 1.0 - hyper.beta1
    m = hyper.beta1 * tau
    m += h_hat
    del h_hat
    manifold.require_tangent(y, m, "momentum")
    d = (-eta_t / np.sqrt(v_new + hyper.epsilon)) * m
    d_norm = manifold.require_tangent(y, d, "step")
    y_new, tau_new = _geodesic(y, d, m, norms=d_norm)
    manifold.require_unit(y_new, "new point")
    manifold.require_tangent(y_new, tau_new, "transported momentum")
    return y_new, tau_new, v_new, h_norm
