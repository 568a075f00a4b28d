"""The training loop: partitioned updates of Grassmann points and Euclidean parameters.

One train step runs forward/backward once, adds the orthogonality penalty's
gradient to the ambient gradients of partitioned matrices, steps every
Grassmann layer with the trainer's one Grassmann optimizer, SGD-G or Adam-G,
and steps the remaining parameters with the Euclidean baseline. A Grassmann
layer's p unit columns are one point on G(1, n)^p: each such weight matrix
moves in one vectorised update, with its optimizer state held per layer in
the optimizer's own state type, which carries its update. The baseline
optimizer ("sgd") skips the partition and treats every parameter as Euclidean.

A step applies completely or not at all. Every Grassmann update is computed
and checked first, writing only its own gradient. One call of
``optim.euclidean_sgd_step`` then checks every Euclidean parameter before it
writes any, so a refusal leaves the trainer as it was. The commit that follows
cannot fail: it copies each new Grassmann point into the network's weights and
takes the new layer states. The BN statistics are written last.

The step owns the gradients that the backward returns, and the updates work in
them: a Grassmann update turns its layer's gradient into the new momentum, and
a Euclidean step adds its decay term into its gradient.
"""

import math
from dataclasses import dataclass

import numpy as np

from .. import optim
from ..errors import PreconditionError
from ..manifold import angle_columns, require_unit
from ..optim import OPTIMIZERS
from ..regularizer import ortho_grad, ortho_loss
from .network import EuclideanRef, Network, Partition, partition_parameters

__all__ = ["StepStats", "EpochStats", "LayerState", "AdamGState", "GRASSMANN", "Trainer", "ORTHO_ALPHA"]

ORTHO_ALPHA = 0.1  # default strength of the orthogonality penalty


@dataclass
class LayerState:
    """SGD-G state of one BN-fed weight matrix (n-by-p, p points): momenta ``tau``
    tangent at ``base``; a step refuses to run unless the layer's weights still equal it."""

    layer_index: int
    base: np.ndarray
    tau: np.ndarray

    @staticmethod
    def init(layer_index: int, wm: np.ndarray) -> "LayerState":
        require_unit(wm, f"columns of layer {layer_index}")
        return LayerState(layer_index, wm.copy(), np.zeros_like(wm))

    def step(self, wm, g, lr, hyper):
        """The state after one update of ``wm``; its gradient ``g`` becomes the new momentum."""
        y, tau, _ = optim.sgdg_step(wm, g, self.tau, lr, hyper, self.base)
        return LayerState(self.layer_index, y, tau)


@dataclass
class AdamGState(LayerState):
    """Adam-G state: per-column second moments ``v`` and the step count ``t`` besides."""

    v: np.ndarray
    t: int

    @staticmethod
    def init(layer_index: int, wm: np.ndarray) -> "AdamGState":
        s = LayerState.init(layer_index, wm)
        return AdamGState(layer_index, s.base, s.tau, np.zeros(wm.shape[1]), 0)

    def step(self, wm, g, lr, hyper):
        y, tau, v, _ = optim.adamg_step(wm, g, self.tau, self.v, self.t, lr, hyper, self.base)
        return AdamGState(self.layer_index, y, tau, v, self.t + 1)


# optimizer -> (Grassmann hyperparameter type, layer-state type); the sgd baseline has neither
GRASSMANN = {"sgd": (None, None), "sgd-g": (optim.SgdGHyper, LayerState),
             "adam-g": (optim.AdamGHyper, AdamGState)}


@dataclass
class StepStats:
    loss: float
    mean_angle: float
    max_angle: float


@dataclass
class EpochStats:
    steps: int = 0
    angle_sum: float = 0.0
    max_angle: float = 0.0

    def add(self, s: StepStats) -> None:
        self.steps += 1
        self.angle_sum += s.mean_angle
        self.max_angle = max(self.max_angle, s.max_angle)

    @property
    def mean_angle(self) -> float:
        return self.angle_sum / self.steps if self.steps else 0.0


class Trainer:
    """Owns the optimizer states for one network and applies train steps.

    ``euclid`` holds the Euclidean baseline's hyperparameters, and ``grassmann``
    those of the Grassmann optimizer that ``optimizer`` names: an ``SgdGHyper``
    for ``sgd-g``, an ``AdamGHyper`` for ``adam-g`` (omitted: the default one),
    none for ``sgd``. ``alpha`` is the orthogonality penalty's strength, finite
    and at least 0. ``bn_weight_decay=None`` resolves to the per-optimizer default: the
    Euclidean baseline decays BN offsets/scales, the Grassmann optimizers do not.
    """

    def __init__(
        self,
        net: Network,
        optimizer: str,
        *,
        rng: np.random.Generator | None = None,
        euclid: optim.EuclideanHyper = optim.EuclideanHyper(),
        grassmann: optim.SgdGHyper | optim.AdamGHyper | None = None,
        alpha: float = ORTHO_ALPHA,
        bn_weight_decay: bool | None = None,
    ):
        if optimizer not in OPTIMIZERS:
            raise PreconditionError(f"unknown optimizer {optimizer!r}, expected one of {OPTIMIZERS}")
        hyper_type, state_type = GRASSMANN[optimizer]
        if grassmann is None and hyper_type is not None:
            grassmann = hyper_type()  # the optimizer's defaults
        if not isinstance(grassmann, hyper_type or type(None)):
            wanted = f"a {hyper_type.__name__}" if hyper_type else "no Grassmann hyper"
            raise PreconditionError(f"optimizer {optimizer!r} takes {wanted}, got {grassmann!r}")
        if not 0.0 <= alpha < math.inf:
            raise PreconditionError(f"alpha must be nonnegative and finite, got {alpha}")
        self.net = net
        self.optimizer = optimizer
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.euclid_hyper = euclid
        self.grassmann_hyper = grassmann
        self.alpha = float(alpha)
        if bn_weight_decay is None:
            bn_weight_decay = optimizer == "sgd"
        self.decay_groups = {"weight": True, "bias": True, "bn": bool(bn_weight_decay)}

        full = partition_parameters(net)
        self.ortho_layers = full.grassmann_layers  # the sgd baseline reports their penalty too
        if state_type is None:
            # Baseline: every parameter is Euclidean, including BN-feeding matrices.
            extra = tuple(
                EuclideanRef(k, net.layers[k].weight_name, "weight") for k in full.grassmann_layers
            )
            self.partition = Partition(full.euclidean + extra, ())
        else:
            self.partition = full

        self.layer_states = [
            state_type.init(k, net.layers[k].weight_matrix()) for k in self.partition.grassmann_layers
        ]
        self.velocities = [np.zeros_like(self._param(ref)) for ref in self.partition.euclidean]

    def _param(self, ref) -> np.ndarray:
        return self.net.layers[ref.layer_index].params()[ref.name]

    def ortho_total(self) -> float:
        """Summed orthogonality penalty over partition-eligible matrices.

        Columns are normalized first so the quantity is defined for the
        baseline as well (where norms drift away from one). With ``alpha`` 0
        the sum is taken at strength 1, so it still measures orthogonality.
        """
        strength = self.alpha if self.alpha > 0 else 1.0
        total = 0.0
        for k in self.ortho_layers:
            wm = self.net.layers[k].weight_matrix()
            total += ortho_loss(wm / np.linalg.norm(wm, axis=0), strength)
        return total

    def _loss_and_grads(self, bx, by):
        """Forward/backward once, with the penalty's gradient added into each Grassmann layer's."""
        loss, grads, caches = self.net.loss_and_grads(bx, by)
        if self.alpha > 0:
            for k in self.partition.grassmann_layers:  # none for the sgd baseline
                # Unit columns are the update's precondition, checked there once per step.
                layer = self.net.layers[k]
                g = grads[k][layer.weight_name]  # a fresh array of the backward's: add in place
                g += ortho_grad(layer.weight_matrix(), self.alpha).reshape(g.shape)
        return loss, grads, caches

    def objective(self, bx, by):
        """The objective a step descends on one batch: ``(loss, penalty, grads, caches)``.

        ``loss`` is the cross-entropy and ``penalty`` the orthogonality penalty
        of the Grassmann layers; ``grads`` holds the ambient gradients of their
        sum, and ``caches`` the forward caches a step commits BN statistics from.
        """
        loss, grads, caches = self._loss_and_grads(bx, by)
        layers = self.partition.grassmann_layers
        penalty = sum(ortho_loss(self.net.layers[k].weight_matrix(), self.alpha) for k in layers)
        return loss, float(penalty), grads, caches

    def train_step(self, bx, by, lr_g: float, lr_e: float) -> StepStats:
        net = self.net
        loss, grads, caches = self._loss_and_grads(bx, by)

        # Compute (and check) every Grassmann update first; each writes only its own gradient.
        grassmann = []
        angles = []
        for state in self.layer_states:
            layer = net.layers[state.layer_index]
            wm = layer.weight_matrix()
            # The backward's gradient is a fresh array that nothing else reads: the
            # update consumes it, and it comes back as the new momentum.
            new = state.step(wm, grads[state.layer_index][layer.weight_name].reshape(wm.shape),
                             lr_g, self.grassmann_hyper)
            angles.append(angle_columns(wm, new.base))
            grassmann.append((wm, new))

        # All or nothing: the step checks every Euclidean parameter before it writes any.
        refs = self.partition.euclidean
        optim.euclidean_sgd_step(
            [self._param(ref) for ref in refs], [grads[ref.layer_index][ref.name] for ref in refs],
            self.velocities, lr_e, self.euclid_hyper, [self.decay_groups[ref.group] for ref in refs],
        )

        # The new states hold the fresh result arrays as they are; only the network's
        # weights, which its layers hold, are written in place.
        for wm, new in grassmann:
            wm[...] = new.base
        self.layer_states = [new for _, new in grassmann]
        net.apply_running_updates(caches)

        angles_arr = np.concatenate(angles) if angles else np.zeros(1)
        return StepStats(
            loss=loss,
            mean_angle=float(angles_arr.mean()),
            max_angle=float(angles_arr.max()),
        )

    def train_epoch(self, x, labels, batch_size: int, lr_g: float, lr_e: float) -> EpochStats:
        """One shuffled pass over the training split; partial batches below 2 are dropped."""
        if batch_size < 2:
            raise PreconditionError(f"batch_size must be >= 2, got {batch_size}")
        stats = EpochStats()
        perm = self.rng.permutation(x.shape[0])
        for start in range(0, x.shape[0], batch_size):
            idx = perm[start : start + batch_size]
            if idx.shape[0] < 2:
                continue
            stats.add(self.train_step(x[idx], labels[idx], lr_g, lr_e))
        return stats
