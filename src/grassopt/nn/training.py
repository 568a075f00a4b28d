"""The training loop: partitioned updates of Grassmann points and Euclidean parameters.

One train step runs forward/backward once, adds the orthogonality penalty's
gradient to the ambient gradients of partitioned matrices, steps every
Grassmann layer with SGD-G or Adam-G, and steps the remaining parameters with
the Euclidean baseline. A Grassmann layer's p unit columns are one point on
G(1, n)^p: each such weight matrix moves in one vectorised update, with its
optimizer state held per layer. The baseline optimizer ("sgd") skips the
partition and treats every parameter as Euclidean.

A step applies completely or not at all: every Grassmann update is computed
and checked, and every Euclidean parameter's inputs are checked, before any
parameter, optimizer state or BN statistic is written. The commit then copies
each new Grassmann point into the network's weights, hands the fresh result
arrays to the layer's optimizer state, and applies the Euclidean steps, which
write their parameters and velocities in place on the inputs already checked.

The step owns the gradients that the backward returns, and the updates work in
them: a Grassmann update turns its layer's gradient into the new momentum, and
a Euclidean step adds its decay term into its gradient.
"""

from dataclasses import dataclass

import numpy as np

from .. import optim
from ..errors import PreconditionError
from ..manifold import angle_columns, require_unit
from ..optim import OPTIMIZERS
from ..regularizer import ortho_grad, ortho_loss
from .network import EuclideanRef, Network, Partition, partition_parameters

__all__ = ["StepStats", "EpochStats", "LayerState", "Trainer", "ORTHO_ALPHA"]

ORTHO_ALPHA = 0.1  # default strength of the orthogonality penalty


@dataclass
class LayerState:
    """Grassmann optimizer state of one BN-fed weight matrix (n-by-p, p points).

    ``base`` is the matrix the momenta were left tangent at; a step refuses
    to run unless the layer's weights still equal it. ``v`` and ``t`` are
    Adam-G's per-column second moments and shared step count; SGD-G leaves
    them at zero.
    """

    layer_index: int
    base: np.ndarray
    tau: np.ndarray
    v: np.ndarray
    t: int = 0

    @staticmethod
    def init(layer_index: int, wm: np.ndarray) -> "LayerState":
        require_unit(wm, f"columns of layer {layer_index}")
        return LayerState(layer_index, wm.copy(), np.zeros_like(wm), np.zeros(wm.shape[1]))


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

    ``euclid``, ``sgdg`` and ``adamg`` are the hyperparameters of the
    Euclidean baseline and of the two Grassmann optimizers; only the one
    that ``optimizer`` names moves the Grassmann layers. ``alpha`` is the
    orthogonality penalty's strength, at least 0. ``bn_weight_decay=None`` resolves to
    the per-optimizer default: the Euclidean baseline decays BN
    offsets/scales, the Grassmann optimizers do not.
    """

    def __init__(
        self,
        net: Network,
        optimizer: str,
        *,
        rng: np.random.Generator | None = None,
        euclid: optim.EuclideanHyper = optim.EuclideanHyper(),
        sgdg: optim.SgdGHyper = optim.SgdGHyper(),
        adamg: optim.AdamGHyper = optim.AdamGHyper(),
        alpha: float = ORTHO_ALPHA,
        bn_weight_decay: bool | None = None,
    ):
        if optimizer not in OPTIMIZERS:
            raise PreconditionError(f"unknown optimizer {optimizer!r}, expected one of {OPTIMIZERS}")
        if alpha < 0:
            raise PreconditionError(f"alpha must be nonnegative, got {alpha}")
        self.net = net
        self.optimizer = optimizer
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.euclid_hyper = euclid
        self.sgdg_hyper = sgdg
        self.adamg_hyper = adamg
        self.alpha = float(alpha)
        if bn_weight_decay is None:
            bn_weight_decay = optimizer == "sgd"
        self.decay_groups = {"weight": True, "bias": True, "bn": bool(bn_weight_decay)}

        full = partition_parameters(net)
        self.ortho_layers = full.grassmann_layers  # the sgd baseline reports their penalty too
        if optimizer == "sgd":
            # Baseline: every parameter is Euclidean, including BN-feeding matrices.
            extra = tuple(
                EuclideanRef(k, net.layers[k].weight_name, "weight") for k in full.grassmann_layers
            )
            self.partition = Partition(full.euclidean + extra, ())
        else:
            self.partition = full

        self.layer_states = [
            LayerState.init(k, net.layers[k].weight_matrix()) for k in self.partition.grassmann_layers
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

    def objective(self, bx, by):
        """The objective a step descends on one batch: ``(loss, penalty, grads, caches)``.

        ``loss`` is the cross-entropy and ``penalty`` the orthogonality penalty
        of the Grassmann layers; ``grads`` holds the ambient gradients of their
        sum, and ``caches`` the forward caches a step commits BN statistics from.
        """
        net = self.net
        loss, grads, caches = net.loss_and_grads(bx, by, training=True)
        penalty = 0.0
        if self.alpha > 0:
            for k in self.partition.grassmann_layers:  # none for the sgd baseline
                # Unit columns are the update's precondition, checked there once per step.
                wm = net.layers[k].weight_matrix()
                gram = wm.T @ wm
                penalty += ortho_loss(wm, self.alpha, gram)
                gname = net.layers[k].weight_name
                # The backward's gradient is a fresh array: add the penalty's in place.
                grads[k][gname] += ortho_grad(wm, self.alpha, gram).reshape(grads[k][gname].shape)
        return loss, penalty, grads, caches

    def train_step(self, bx, by, lr_g: float, lr_e: float) -> StepStats:
        net = self.net
        loss, _, grads, caches = self.objective(bx, by)

        # Compute (and check) every update first; write only once all succeeded.
        grassmann = []
        angles = []
        for state in self.layer_states:
            k = state.layer_index
            wm = net.layers[k].weight_matrix()
            # The backward's gradient is a fresh array that nothing else reads: the
            # update consumes it, and it comes back as the new momentum.
            g = grads[k][net.layers[k].weight_name].reshape(wm.shape)
            if self.optimizer == "sgd-g":
                y_new, tau_new, _ = optim._sgdg_step(wm, g, state.tau, lr_g, self.sgdg_hyper, state.base)
                v_new, t_new = state.v, state.t
            else:
                y_new, tau_new, v_new, _ = optim._adamg_step(
                    wm, g, state.tau, state.v, state.t, lr_g, self.adamg_hyper, state.base
                )
                t_new = state.t + 1
            angles.append(angle_columns(wm, y_new))
            grassmann.append((state, wm, y_new, tau_new, v_new, t_new))

        # The Euclidean step writes in place, so only its inputs are checked here, once.
        euclid = []
        for ref, velocity in zip(self.partition.euclidean, self.velocities):
            w = self._param(ref)
            g = optim._check_euclidean_inputs(w, grads[ref.layer_index][ref.name], velocity)
            euclid.append((ref, w, g, velocity))

        # The results are fresh arrays, so the state takes them as they are; only the
        # network's weights, which its layers hold, are written in place.
        for state, wm, y_new, tau_new, v_new, t_new in grassmann:
            wm[...] = y_new
            state.base, state.tau, state.v, state.t = y_new, tau_new, v_new, t_new
        for ref, w, g, velocity in euclid:
            optim._apply_euclidean_step(w, g, velocity, lr_e, self.euclid_hyper, self.decay_groups[ref.group])
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
