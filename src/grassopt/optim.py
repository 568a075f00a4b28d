"""Optimizers: SGD with momentum and Adam on G(1, n), the Euclidean baseline, schedules.

The Grassmann updates are purely functional: they take a point, an ambient
gradient, and the previous state, and return the new point and state. Momenta
live in the tangent space of the current point and are moved by parallel
translation at every step. ``sgdg_update``/``adamg_update`` act on arrays of
shape (n,) or (n, p): a single point is an ``(n,)`` unit vector, and one call
steps every column of an n-by-p weight matrix.
"""

import bisect
from dataclasses import dataclass

import numpy as np

from . import manifold
from .errors import DimensionError, NumericalError, PreconditionError

__all__ = [
    "OPTIMIZERS",
    "GRASSMANN_OPTIMIZERS",
    "default_eta_g",
    "SgdGHyper",
    "AdamGHyper",
    "EuclideanHyper",
    "LrSchedule",
    "sgdg_update",
    "adamg_update",
    "euclidean_sgd_step",
    "schedule_lr",
]


@dataclass(frozen=True)
class SgdGHyper:
    """Hyperparameters of SGD with momentum on G(1, n)."""

    eta: float = 0.2
    gamma: float = 0.9
    nu: float = 0.1

    def __post_init__(self):
        if self.eta <= 0.0:
            raise PreconditionError(f"eta must be positive, got {self.eta}")
        if not 0.0 <= self.gamma < 1.0:
            raise PreconditionError(f"gamma must be in [0, 1), got {self.gamma}")
        if self.nu <= 0.0:
            raise PreconditionError(f"nu must be positive, got {self.nu}")


@dataclass(frozen=True)
class AdamGHyper:
    """Hyperparameters of Adam on G(1, n); one adaptive rate per weight vector."""

    eta: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.99
    nu: float = 0.1
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.eta <= 0.0:
            raise PreconditionError(f"eta must be positive, got {self.eta}")
        for name, b in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0.0 <= b < 1.0:
                raise PreconditionError(f"{name} must be in [0, 1), got {b}")
        if self.nu <= 0.0:
            raise PreconditionError(f"nu must be positive, got {self.nu}")


GRASSMANN_OPTIMIZERS = ("sgd-g", "adam-g")
OPTIMIZERS = ("sgd",) + GRASSMANN_OPTIMIZERS


def default_eta_g(optimizer: str) -> float:
    """The Grassmann rate used when none is given: SGD-G's default, else Adam-G's."""
    return SgdGHyper.eta if optimizer == "sgd-g" else AdamGHyper.eta


@dataclass(frozen=True)
class EuclideanHyper:
    """Hyperparameters of the SGD-with-Nesterov-momentum baseline."""

    eta: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0005
    nesterov: bool = True

    def __post_init__(self):
        if self.eta <= 0.0:
            raise PreconditionError(f"eta must be positive, got {self.eta}")
        if not 0.0 <= self.momentum < 1.0:
            raise PreconditionError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0.0:
            raise PreconditionError(f"weight_decay must be nonnegative, got {self.weight_decay}")


@dataclass(frozen=True)
class LrSchedule:
    """Piecewise-constant decay: the rate is multiplied by ``factor`` at each milestone."""

    initial: float
    milestones: tuple[int, ...] = ()
    factor: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "milestones", tuple(self.milestones))
        if self.initial <= 0.0:
            raise PreconditionError(f"initial rate must be positive, got {self.initial}")
        if not 0.0 < self.factor <= 1.0:
            raise PreconditionError(f"factor must be in (0, 1], got {self.factor}")
        if any(b <= a for a, b in zip(self.milestones, self.milestones[1:])):
            raise PreconditionError(f"milestones must be strictly increasing, got {self.milestones}")


def schedule_lr(schedule: LrSchedule, epoch: int) -> float:
    """Rate at ``epoch``: initial * factor^(number of milestones <= epoch)."""
    if epoch < 0:
        raise PreconditionError(f"epoch must be nonnegative, got {epoch}")
    k = bisect.bisect_right(schedule.milestones, epoch)
    return schedule.initial * schedule.factor**k


def _check_update_inputs(y, g, tau, lr, base):
    """Shared preconditions of the Grassmann updates; returns ``g`` as a float array."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape != y.shape or tau.shape != y.shape:
        raise DimensionError(
            f"gradient {g.shape} and momentum {tau.shape} must match the point {y.shape}"
        )
    if not np.isfinite(g).all():
        raise NumericalError(f"non-finite gradient for a point of shape {y.shape}")
    if lr < 0.0:
        raise PreconditionError(f"learning rate must be nonnegative, got {lr}")
    if not np.array_equal(base, y):
        raise PreconditionError("momentum state belongs to a different point")
    manifold.require_unit(y, "point")
    return g


def _projected_clipped(y, g, nu):
    h = manifold.project_columns(y, g)
    try:
        h_norm = manifold.require_tangent(y, h, "projected gradient")
    except PreconditionError:  # y is unit and g finite: cancellation in g - (y^T g) y, g nearly parallel to y
        raise NumericalError(f"projected gradient lost tangency to rounding, point shape {y.shape}") from None
    return manifold.clip_columns(h, nu, h_norm)


def sgdg_update(y, g, tau, lr: float, hyper: SgdGHyper, base):
    """One SGD-with-momentum step on G(1, n), column by column.

    ``y``, ``g`` and ``tau`` are all ``(n,)`` or all ``(n, p)``; the p unit
    columns of an n-by-p ``y`` are one point on G(1, n)^p and move together.
    Project the ambient gradient, clip its norm at ``nu``, blend with the
    momentum, move by the exponential map, and translate the step itself to
    the new point::

        h  = g - (y^T g) y
        h' = norm_clip(h, nu)
        d  = gamma * tau - lr * h'
        y' = exp_y(d),  tau' = pt_y(d)

    ``base`` is the array the momentum was last left tangent at; it must
    equal ``y``, or the state belongs to a different point. Nothing is modified in place. Returns
    ``(y', tau', |h|)``, the last being the unclipped gradient norms.
    """
    g = _check_update_inputs(y, g, tau, lr, base)
    h_hat, h_norm = _projected_clipped(y, g, hyper.nu)
    h_hat *= lr
    d = hyper.gamma * tau
    d -= h_hat
    del h_hat
    d_norm = manifold.require_tangent(y, d, "step")
    y_new, tau_new = manifold.geodesic_columns(y, d, norms=d_norm)
    manifold.require_unit(y_new, "new point")
    manifold.require_tangent(y_new, tau_new, "transported momentum")
    return y_new, tau_new, h_norm


def adamg_update(y, g, tau, v, t: int, lr: float, hyper: AdamGHyper, base):
    """One Adam step on G(1, n) with a single adaptive rate per column.

    Shapes and ``base`` are as in :func:`sgdg_update`; ``v`` holds one second
    moment per column and ``t`` is the number of steps taken so far. The
    second moment is the EMA of the clipped gradient's squared norm, so the
    update direction is never distorted coordinate-wise::

        eta_t = lr * sqrt(1 - beta2^t) / (1 - beta1^t)
        h'    = norm_clip(project(g), nu)
        m     = beta1 * tau + (1 - beta1) * h'
        v     = beta2 * v + (1 - beta2) * |h'|^2
        d     = -eta_t * m / sqrt(v + eps)
        y'    = exp_y(d),  tau' = pt_y(m; d)

    Returns ``(y', tau', v', |h|)``; the step count becomes ``t + 1``.
    """
    g = _check_update_inputs(y, g, tau, lr, base)
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
    y_new, tau_new = manifold.geodesic_columns(y, d, m, norms=d_norm)
    manifold.require_unit(y_new, "new point")
    manifold.require_tangent(y_new, tau_new, "transported momentum")
    return y_new, tau_new, v_new, h_norm


def _check_euclidean_inputs(w, g, velocity):
    """Preconditions of the Euclidean step; returns ``g`` as a float array.

    The step writes ``w`` and ``velocity`` in place, so both must be writable
    float64 arrays; it may add the decay term into ``g``, so ``g`` must be
    writable too; and none of the three may overlap another.
    """
    for name, a in (("parameter", w), ("velocity", velocity)):
        if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.writeable):
            raise PreconditionError(f"{name} must be a writable float64 array")
    g = np.asarray(g, dtype=np.float64)
    if not g.flags.writeable:
        raise PreconditionError("gradient must be writable")
    if w.shape != g.shape:
        raise PreconditionError(f"parameter shape {w.shape} != gradient shape {g.shape}")
    if velocity.shape != w.shape:
        raise PreconditionError(f"velocity shape {velocity.shape} != parameter shape {w.shape}")
    if np.may_share_memory(w, velocity) or np.may_share_memory(g, w) or np.may_share_memory(g, velocity):
        raise PreconditionError("parameter, gradient and velocity must not share memory")
    if not np.isfinite(g).all():
        raise NumericalError("non-finite gradient for a Euclidean parameter")
    return g


def euclidean_sgd_step(
    w: np.ndarray,
    g: np.ndarray,
    velocity: np.ndarray,
    lr: float,
    hyper: EuclideanHyper,
    apply_weight_decay: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """One SGD step with (optionally Nesterov) momentum on a Euclidean parameter, in place.

    The L2 term ``weight_decay * w`` is folded into the gradient before the
    momentum update::

        g' = g + weight_decay * w
        v' = momentum * v + g'
        w' = w - lr * (g' + momentum * v')   (Nesterov; else w - lr * v')

    Arrays of any shape are accepted; the velocity mirrors the parameter's
    shape. ``w`` and ``velocity`` are written in place, and ``g`` receives the
    decay term when it applies; every input is checked before anything is
    written. Returns ``(w, velocity)``, the objects it was given.
    """
    g = _check_euclidean_inputs(w, g, velocity)
    return _apply_euclidean_step(w, g, velocity, lr, hyper, apply_weight_decay)


def _apply_euclidean_step(w, g, velocity, lr, hyper, apply_weight_decay):
    """The writes of :func:`euclidean_sgd_step`, on inputs that passed ``_check_euclidean_inputs``."""
    tmp = np.empty_like(w)
    if apply_weight_decay and hyper.weight_decay != 0.0:
        np.multiply(w, hyper.weight_decay, out=tmp)
        g += tmp
    velocity *= hyper.momentum
    velocity += g
    if hyper.nesterov:
        np.multiply(velocity, hyper.momentum, out=tmp)
        tmp += g
        tmp *= lr
    else:
        np.multiply(velocity, lr, out=tmp)
    w -= tmp
    return w, velocity
