"""The training loop: partitioned updates of Grassmann points and Euclidean parameters.

One train step runs forward/backward once, adds the orthogonality penalty's
gradient to the ambient gradients of partitioned matrices, steps every
Grassmann layer with SGD-G or Adam-G, and steps the remaining parameters with
the Euclidean baseline. A Grassmann layer's p unit columns are one point on
G(1, n)^p: each such weight matrix moves in one vectorised update, with its
optimizer state held per layer. The baseline optimizer ("sgd") skips the
partition and treats every parameter as Euclidean.

A step applies completely or not at all: every update is computed and
checked before any parameter, optimizer state or BN statistic is written.
"""

from dataclasses import dataclass

import numpy as np

from .. import optim
from ..errors import PreconditionError
from ..manifold import angle_columns, require_unit
from ..optim import GRASSMANN_OPTIMIZERS, OPTIMIZERS
from ..regularizer import LayerColumns, ortho_grad, ortho_loss
from .network import EuclideanRef, Network, Partition, partition_parameters

__all__ = [
    "StepStats", "EpochStats", "LayerState", "Trainer", "ORTHO_ALPHA", "GRASSMANN_OPTIMIZERS", "OPTIMIZERS",
]

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
    ortho_loss: float
    mean_angle: float
    max_angle: float
    max_sgdg_contribution: float
    max_grad_norm: float


@dataclass
class EpochStats:
    steps: int = 0
    loss_sum: float = 0.0
    angle_sum: float = 0.0
    max_angle: float = 0.0
    max_sgdg_contribution: float = 0.0
    max_grad_norm: float = 0.0

    def add(self, s: StepStats) -> None:
        self.steps += 1
        self.loss_sum += s.loss
        self.angle_sum += s.mean_angle
        self.max_angle = max(self.max_angle, s.max_angle)
        self.max_sgdg_contribution = max(self.max_sgdg_contribution, s.max_sgdg_contribution)
        self.max_grad_norm = max(self.max_grad_norm, s.max_grad_norm)

    @property
    def mean_angle(self) -> float:
        return self.angle_sum / self.steps if self.steps else 0.0

    @property
    def mean_loss(self) -> float:
        return self.loss_sum / self.steps if self.steps else 0.0


class Trainer:
    """Owns the optimizer states for one network and applies train steps.

    ``euclid``, ``sgdg`` and ``adamg`` are the hyperparameters of the
    Euclidean baseline and of the two Grassmann optimizers; only the one
    that ``optimizer`` names moves the Grassmann layers. ``alpha`` is the
    orthogonality penalty's strength. ``bn_weight_decay=None`` resolves to
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
        baseline as well (where norms drift away from one).
        """
        total = 0.0
        for k in self.ortho_layers:
            wm = self.net.layers[k].weight_matrix()
            cols = wm / np.linalg.norm(wm, axis=0)
            total += ortho_loss(LayerColumns(cols, self.alpha if self.alpha > 0 else 1.0))
        return total

    def train_step(self, bx, by, lr_g: float, lr_e: float) -> StepStats:
        net = self.net
        loss, grads, caches = net.loss_and_grads(bx, by, training=True)

        ortho_total = 0.0
        if self.optimizer in GRASSMANN_OPTIMIZERS and self.alpha > 0:
            for k in self.partition.grassmann_layers:
                lc = LayerColumns(net.layers[k].weight_matrix(), self.alpha)
                gram = lc.Y.T @ lc.Y
                ortho_total += ortho_loss(lc, gram)
                gname = net.layers[k].weight_name
                # The backward's gradient is a fresh array: add the penalty's in place.
                grads[k][gname] += ortho_grad(lc, gram).reshape(grads[k][gname].shape)

        # Compute (and check) every update first; write only once all succeeded.
        grassmann = []
        angles = []
        max_contrib = 0.0
        max_grad = 0.0
        for state in self.layer_states:
            k = state.layer_index
            wm = net.layers[k].weight_matrix()
            g = grads[k][net.layers[k].weight_name].reshape(wm.shape)
            if self.optimizer == "sgd-g":
                y_new, tau_new, h_norm = optim.sgdg_update(
                    wm, g, state.tau, lr_g, self.sgdg_hyper, base=state.base
                )
                v_new, t_new = state.v, state.t
                # contribution of this gradient to total rotation: lr*|clip(h)|/(1-gamma)
                clipped = min(float(h_norm.max()), self.sgdg_hyper.nu)
                max_contrib = max(max_contrib, lr_g * clipped / (1.0 - self.sgdg_hyper.gamma))
            else:
                y_new, tau_new, v_new, _ = optim.adamg_update(
                    wm, g, state.tau, state.v, state.t, lr_g, self.adamg_hyper, base=state.base
                )
                t_new = state.t + 1
            max_grad = max(max_grad, float(np.sqrt(np.einsum("ij,ij->j", g, g).max())))
            angles.append(angle_columns(wm, y_new))
            grassmann.append((state, wm, y_new, tau_new, v_new, t_new))

        euclid = []
        for i, ref in enumerate(self.partition.euclidean):
            arr = self._param(ref)
            g = grads[ref.layer_index][ref.name]
            max_grad = max(max_grad, float(np.linalg.norm(g.ravel())))
            new, v_new = optim.euclidean_sgd_step(
                arr, g, self.velocities[i], lr_e, self.euclid_hyper, self.decay_groups[ref.group]
            )
            euclid.append((arr, new, v_new))

        # Copied into the existing buffers, so long-lived arrays are not reallocated every step.
        for state, wm, y_new, tau_new, v_new, t_new in grassmann:
            wm[...] = y_new
            state.base[...] = y_new
            state.tau[...] = tau_new
            state.v, state.t = v_new, t_new
        for i, (arr, new, v_new) in enumerate(euclid):
            arr[...] = new
            self.velocities[i] = v_new
        net.apply_running_updates(caches)

        angles_arr = np.concatenate(angles) if angles else np.zeros(1)
        return StepStats(
            loss=loss,
            ortho_loss=ortho_total,
            mean_angle=float(angles_arr.mean()),
            max_angle=float(angles_arr.max()),
            max_sgdg_contribution=max_contrib,
            max_grad_norm=max_grad,
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
