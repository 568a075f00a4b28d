"""Optimizers: SGD with momentum and Adam on G(1, n), the Euclidean baseline, schedules.

The Grassmann steps take a point, an ambient gradient, which becomes the new
momentum, and the previous state, and return the new point and state. Momenta
live in the tangent space of the current point and are moved by parallel
translation at every step. ``sgdg_step``/``adamg_step`` act on arrays of
shape (n,) or (n, p): a single point is an ``(n,)`` unit vector, and one call
steps every column of an n-by-p weight matrix. A rate belongs to its
:class:`LrSchedule`, which checks it, and reaches a step as ``lr``; the
hyperparameter objects hold and check only the algorithms' constants.

Each invariant of a Grassmann step is established in one place and checked
once per step, where input from outside the step can break it. What the
manifold kernels build from checked inputs (a unit new point, a tangent
transported momentum, a tangent blend of tangent vectors) is not checked
again at run time: the tests check the kernels, and ``grassopt check`` runs
their property suite::

    invariant        established by            broken by outside input      its one check
    ---------------  ------------------------  ---------------------------  ----------------------------
    g writable and   the backward: a fresh     a caller's y, g, tau or v    _check_update_inputs:
    unshared; shapes array per step; Trainer                                PreconditionError (y, tau, g),
    conform          construction                                           DimensionError (shapes)
    unit points y    Trainer construction,     a write to the weights,      require_unit(y)
                     load_checkpoint; the      a caller's y
                     geodesic renormalizes
    tangent          zeros at construction,    a caller's tau               tangency of d (SGD-G) or m
    momenta tau      load_checkpoint; the                                   (Adam-G) in require_tangent: each
                     transport                                              blends tau with tangent h
    finite           nothing: it is input      a diverging run, a caller's  np.isfinite(g), then the
    gradients g                                g, a column norm whose       norms of require_tangent(y, h):
                                               square overflows             NumericalError
    state of these   the commit: base = y'     a write to the weights       array_equal(base, y)
    weights                                    between steps, a state
                                               of another point
    finite steps d   finite g, tau, v and lr;  an lr or a tau large enough  norms of d, from require_tangent
                     the clip bounds |h'|      to overflow                  (y, d) under SGD-G: NumericalError
    finite lr >= 0,  the schedules             a caller's lr, v or t        _check_lr in _check_update_inputs
    finite v >= 0,   (LrSchedule); v starts                                 (lr), adamg_step (v, t):
    t >= 0           at 0, load_checkpoint                                  PreconditionError
    Euclidean lr:    the schedules             a caller's lr                the same _check_lr, in
    finite, >= 0     (LrSchedule)                                           euclidean_sgd_step: PreconditionError
    Euclidean group: the trainer's fresh       a caller's group that        euclidean_sgd_step, by owning
    no shared buffer arrays                    repeats or shares an array   buffer: PreconditionError

The tangency half of ``require_tangent(y, h)`` refuses a projection that
rounding left off the tangent space, a gradient nearly parallel to its column.
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

from . import manifold
from .errors import DimensionError, NumericalError, PreconditionError

__all__ = [
    "OPTIMIZERS",
    "ETA_E",
    "default_eta_g",
    "SgdGHyper",
    "AdamGHyper",
    "EuclideanHyper",
    "LrSchedule",
    "sgdg_step",
    "adamg_step",
    "euclidean_sgd_step",
    "schedule_lr",
]


@dataclass(frozen=True)
class SgdGHyper:
    """Hyperparameters of SGD with momentum on G(1, n)."""

    gamma: float = 0.9
    nu: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise PreconditionError(f"gamma must be in [0, 1), got {self.gamma}")
        if not 0.0 < self.nu < math.inf:
            raise PreconditionError(f"nu must be positive and finite, got {self.nu}")


@dataclass(frozen=True)
class AdamGHyper:
    """Hyperparameters of Adam on G(1, n); one adaptive rate per weight vector."""

    beta1: float = 0.9
    beta2: float = 0.99
    nu: float = 0.1
    epsilon: float = 1e-8

    def __post_init__(self):
        for name, b in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0.0 <= b < 1.0:
                raise PreconditionError(f"{name} must be in [0, 1), got {b}")
        if not 0.0 < self.nu < math.inf:
            raise PreconditionError(f"nu must be positive and finite, got {self.nu}")
        if not 0.0 < self.epsilon < math.inf:
            raise PreconditionError(f"epsilon must be positive and finite, got {self.epsilon}")


OPTIMIZERS = ("sgd", "sgd-g", "adam-g")
ETA_E = 0.01  # default rate of the Euclidean parameters


def default_eta_g(optimizer: str) -> float:
    """The Grassmann rate used when none is given: 0.2 for SGD-G, else Adam-G's 0.05."""
    return 0.2 if optimizer == "sgd-g" else 0.05


@dataclass(frozen=True)
class EuclideanHyper:
    """Hyperparameters of the SGD-with-Nesterov-momentum baseline."""

    momentum: float = 0.9
    weight_decay: float = 0.0005
    nesterov: bool = True

    def __post_init__(self):
        if not 0.0 <= self.momentum < 1.0:
            raise PreconditionError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise PreconditionError(f"weight_decay must be nonnegative and finite, got {self.weight_decay}")


@dataclass(frozen=True)
class LrSchedule:
    """Piecewise-constant decay: the rate is multiplied by ``factor`` at each milestone."""

    initial: float
    milestones: tuple[int, ...] = ()
    factor: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "milestones", tuple(self.milestones))
        if not 0.0 < self.initial < math.inf:
            rule = "finite" if self.initial == math.inf else "positive"
            raise PreconditionError(f"initial rate must be {rule}, got {self.initial}")
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


def _check_lr(lr):
    """The one check of a step's rate, made once per step call before any write."""
    if not 0.0 <= lr < math.inf:
        raise PreconditionError(f"learning rate must be nonnegative and finite, got {lr}")


def _check_update_inputs(y, g, tau, lr, base, v=None):
    """Shared preconditions of the Grassmann steps, checked before any arithmetic."""
    for name, a in (("point y", y), ("momentum tau", tau)):
        if not isinstance(a, np.ndarray):
            raise PreconditionError(f"{name} must be a numpy array, got {type(a).__name__}")
    if not (isinstance(g, np.ndarray) and g.dtype == np.float64 and g.flags.writeable):
        raise PreconditionError("gradient must be a writable float64 array")
    if any(np.may_share_memory(g, a) for a in (y, tau, base, v)):
        raise PreconditionError("gradient must not share memory with the point or its state")
    if g.shape != y.shape or tau.shape != y.shape:
        raise DimensionError(
            f"gradient {g.shape} and momentum {tau.shape} must match the point {y.shape}"
        )
    if v is not None and np.shape(v) != y.shape[1:]:
        raise DimensionError(f"second moments {np.shape(v)} must hold one per column of the point {y.shape}")
    if not np.isfinite(g).all():
        raise NumericalError(f"non-finite gradient for a point of shape {y.shape}")
    _check_lr(lr)
    if not np.array_equal(base, y):
        raise PreconditionError("momentum state belongs to a different point")
    manifold.require_unit(y, "point")


def _projected_clipped(y, g, nu):
    """``(norm_clip(project(g), nu), |project(g)|)``; the projection is written over ``g``."""
    h = manifold.project_columns(y, g, overwrite=True)
    try:
        h_norm = manifold.require_tangent(y, h, "projected gradient")
    except PreconditionError:  # y is unit and g finite: cancellation in g - (y^T g) y, g nearly parallel to y
        raise NumericalError(f"projected gradient lost tangency to rounding, point shape {y.shape}") from None
    return manifold.clip_columns(h, nu, h_norm, overwrite=True)


def sgdg_step(y, g, tau, lr: float, hyper: SgdGHyper, base):
    """One SGD-with-momentum step on G(1, n), column by column, in the buffer of ``g``.

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
    equal ``y``, or the state belongs to a different point. ``g`` must be a
    writable float64 array that shares no memory with the other arguments.
    It is the one input written: it holds ``h``, then ``d``, and is returned
    as ``tau'``. A refused step may have written it too; pass a copy to keep
    it. Returns ``(y', tau', |h|)``, the last being the unclipped gradient norms.
    """
    _check_update_inputs(y, g, tau, lr, base)
    d, h_norm = _projected_clipped(y, g, hyper.nu)
    for rows, scratch in manifold._row_blocks(d.shape):
        d_blk = d[rows]
        d_blk *= lr
        np.subtract(np.multiply(tau[rows], hyper.gamma, out=scratch), d_blk, out=d_blk)
    d_norm = manifold.require_tangent(y, d, "step")
    y_new, tau_new = manifold.geodesic_columns(y, d, norms=d_norm, overwrite=True)
    return y_new, tau_new, h_norm


def adamg_step(y, g, tau, v, t: int, lr: float, hyper: AdamGHyper, base):
    """One Adam step on G(1, n) with a single adaptive rate per column, in the buffer of ``g``.

    Shapes, ``base`` and ``g`` are as in :func:`sgdg_step`, but ``g`` holds
    ``h``, then the first moment ``m``, before it becomes ``tau'``. ``v``, of
    shape ``y.shape[1:]``, holds one second moment per column, finite and
    nonnegative, and ``t`` is the number of steps taken so far. The second
    moment is the EMA of the clipped gradient's squared norm, so the update
    direction is never distorted coordinate-wise::

        eta_t = lr * sqrt(1 - beta2^t) / (1 - beta1^t)
        h'    = norm_clip(project(g), nu)
        m     = beta1 * tau + (1 - beta1) * h'
        v     = beta2 * v + (1 - beta2) * |h'|^2
        d     = -eta_t * m / sqrt(v + eps)
        y'    = exp_y(d),  tau' = pt_y(m; d)

    Returns ``(y', tau', v', |h|)``; the step count becomes ``t + 1``.
    """
    _check_update_inputs(y, g, tau, lr, base, v)
    if not np.all((v >= 0.0) & (v < math.inf)):  # NaN fails both comparisons
        raise PreconditionError("second moments must be nonnegative and finite")
    if t < 0:
        raise PreconditionError(f"step count must be nonnegative, got {t}")
    t = t + 1
    eta_t = lr * np.sqrt(1.0 - hyper.beta2**t) / (1.0 - hyper.beta1**t)
    m, h_norm = _projected_clipped(y, g, hyper.nu)
    v_new = hyper.beta2 * v + (1.0 - hyper.beta2) * np.minimum(h_norm, hyper.nu) ** 2
    for rows, scratch in manifold._row_blocks(m.shape):
        m_blk = m[rows]
        m_blk *= 1.0 - hyper.beta1
        np.add(np.multiply(tau[rows], hyper.beta1, out=scratch), m_blk, out=m_blk)
    # m, not d, carries tau's tangency: a zero or tiny lr shrinks d, and tau's error in it, below the tolerance.
    manifold.require_tangent(y, m, "momentum")
    d = (-eta_t / np.sqrt(v_new + hyper.epsilon)) * m
    d_norm = manifold._col_norm(d)
    if not np.isfinite(d_norm).all():
        raise NumericalError(f"step has a column norm that is not finite, point shape {y.shape}")
    y_new, tau_new = manifold.geodesic_columns(y, d, m, norms=d_norm, overwrite=True)
    return y_new, tau_new, v_new, h_norm


def _check_euclidean_inputs(w, g, velocity):
    """Preconditions of one parameter of the Euclidean step; returns ``g`` as a float array.

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


def euclidean_sgd_step(params, grads, velocities, lr: float, hyper: EuclideanHyper, decay) -> None:
    """One SGD step with (optionally Nesterov) momentum on a group of Euclidean parameters, in place.

    ``params``, ``grads``, ``velocities`` and ``decay`` are sequences of one length.
    Each parameter ``w``, with gradient ``g`` and velocity ``v`` of its shape, takes
    the L2 term before the momentum update when its ``decay`` flag is true::

        g' = g + weight_decay * w   (decay false: g' = g)
        v' = momentum * v + g'
        w' = w - lr * (g' + momentum * v')   (Nesterov; else w - lr * v')

    ``w`` and ``v`` are written in place and ``g`` receives the decay term, so no two arrays of
    the group may share a buffer. The rate, every parameter and the buffers are checked before
    any write, so the whole group steps or none of it.
    """
    lengths = [len(a) for a in (params, grads, velocities, decay)]
    if len(set(lengths)) > 1:
        raise PreconditionError(f"params, grads, velocities and decay must have one length, got {lengths}")
    _check_lr(lr)
    grads = [_check_euclidean_inputs(w, g, velocity) for w, g, velocity in zip(params, grads, velocities)]
    arrays = [*params, *grads, *velocities]
    if len({id(a if a.base is None else a.base) for a in arrays}) < len(arrays):  # the owning buffers
        raise PreconditionError("no two arrays of a Euclidean group may share a buffer")
    for w, g, velocity, decays in zip(params, grads, velocities, decay):
        l2 = hyper.weight_decay if decays else 0.0
        for rows, tmp in manifold._row_blocks(w.shape):
            w_blk, g_blk, v_blk = w[rows], g[rows], velocity[rows]
            if l2 != 0.0:
                g_blk += np.multiply(w_blk, l2, out=tmp)
            v_blk *= hyper.momentum
            v_blk += g_blk
            if hyper.nesterov:
                np.multiply(v_blk, hyper.momentum, out=tmp)
                tmp += g_blk
                tmp *= lr
            else:
                np.multiply(v_blk, lr, out=tmp)
            w_blk -= tmp
