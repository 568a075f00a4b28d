"""Networks as ordered layer lists, and the Grassmann/Euclidean parameter partition.

A weight matrix is partitioned onto Grassmann manifolds exactly when it feeds
a batch-normalization layer and is under-complete (more inputs than outputs);
each of its p columns is then one point on G(1, n), and the whole matrix one
point on G(1, n)^p. Everything else (biases, BN offsets/scales, over-complete
or BN-free matrices) stays Euclidean.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import NumericalError, PreconditionError
from .layers import (
    BN_EPS,
    BN_MOMENTUM,
    BatchNormLayer,
    ConvLayer,
    DenseLayer,
    FlattenLayer,
    ReluLayer,
    softmax_ce,
)

__all__ = [
    "Network",
    "EuclideanRef",
    "Partition",
    "partition_parameters",
    "build_mlp",
    "build_convnet",
    "build_network",
]


@dataclass(frozen=True)
class EuclideanRef:
    """One Euclidean parameter array, tagged with its weight-decay group."""

    layer_index: int
    name: str
    group: str  # "weight" | "bias" | "bn"


@dataclass(frozen=True)
class Partition:
    """The Euclidean parameters, and the BN-fed layers whose weight columns are Grassmann points.

    A layer in ``grassmann_layers`` is held whole: the p columns of its
    n-by-p weight matrix are p points on G(1, n), stepped and stored per layer.
    """

    euclidean: tuple[EuclideanRef, ...]
    grassmann_layers: tuple[int, ...]


class Network:
    """An ordered stack of layers ending in logits for softmax cross-entropy."""

    def __init__(self, layers, meta=None):
        self.layers = list(layers)
        self.meta = dict(meta or {})

    def forward(self, x, training=False):
        """Run all layers; returns (logits, caches). Pure: no state is touched."""
        caches = []
        out = x
        for layer in self.layers:
            out, cache = layer.forward(out, training=training)
            caches.append(cache)
        return out, caches

    def backward(self, dlogits, caches):
        """Backpropagate from the logits gradient; returns per-layer grad dicts.

        The first layer's input gradient is not computed: nothing uses it.
        """
        grads = [None] * len(self.layers)
        dx = dlogits
        for k in range(len(self.layers) - 1, -1, -1):
            dx, grads[k] = self.layers[k].backward(dx, caches[k], input_grad=k > 0)
        return grads

    def loss_and_grads(self, x, labels, training=True):
        """Forward, softmax-CE loss, and full backward in one call."""
        logits, caches = self.forward(x, training=training)
        loss, dlogits = softmax_ce(logits, labels)
        if not np.isfinite(loss):
            raise NumericalError("non-finite training loss")
        grads = self.backward(dlogits, caches)
        return loss, grads, caches

    def apply_running_updates(self, caches):
        for layer, cache in zip(self.layers, caches):
            if isinstance(layer, BatchNormLayer):
                layer.update_running(cache)

    def evaluate(self, x, labels, batch_size=64):
        """Eval-mode mean loss and accuracy over a full split, 64 rows at a time by default.

        Each batch is streamed through the layers keeping only the current
        activation: a layer's cache is dropped as soon as it returns, so peak
        memory follows the batch, not the split. Only the logits are kept, and
        the loss is taken over all of them at once. An empty split gives
        (0.0, 0.0); ``batch_size`` below 1 raises ``PreconditionError``.
        """
        if batch_size < 1:
            raise PreconditionError(f"evaluation batch size must be >= 1, got {batch_size}")
        if x.shape[0] == 0:
            return 0.0, 0.0
        batches = []
        for start in range(0, x.shape[0], batch_size):
            out = x[start : start + batch_size]
            for layer in self.layers:
                out = layer.forward(out, training=False)[0]
            batches.append(out)
        logits = np.concatenate(batches)
        loss, _ = softmax_ce(logits, labels)
        return loss, int((logits.argmax(axis=1) == labels).sum()) / x.shape[0]


def partition_parameters(net: Network) -> Partition:
    """Assign every trainable array to the Grassmann or Euclidean side.

    The under-complete rule: a Dense/Conv weight matrix whose unrolled form is
    n-by-p with n > p and whose immediate successor is a BN layer is a
    Grassmann layer, its p columns being points on G(1, n); everything else
    is Euclidean.
    """
    euclid: list[EuclideanRef] = []
    gmats: list[int] = []
    layers = net.layers
    for k, layer in enumerate(layers):
        if isinstance(layer, (DenseLayer, ConvLayer)):
            wm = layer.weight_matrix()
            feeds_bn = k + 1 < len(layers) and isinstance(layers[k + 1], BatchNormLayer)
            if feeds_bn and wm.shape[0] > wm.shape[1]:
                gmats.append(k)
            else:
                euclid.append(EuclideanRef(k, layer.weight_name, "weight"))
            if isinstance(layer, DenseLayer) and layer.bias is not None:
                euclid.append(EuclideanRef(k, "bias", "bias"))
        elif isinstance(layer, BatchNormLayer):
            euclid.append(EuclideanRef(k, "offset", "bn"))
            if layer.scale_trainable:
                euclid.append(EuclideanRef(k, "scale", "bn"))
    return Partition(tuple(euclid), tuple(gmats))


def _fan_in_init(n_in, n_out, rng):
    return rng.standard_normal((n_in, n_out)) / np.sqrt(n_in)


def _unit_columns(matrix, rng):
    for j in range(matrix.shape[1]):
        col = rng.standard_normal(matrix.shape[0])
        matrix[:, j] = col / np.linalg.norm(col)


def _init_grassmann_columns(net: Network, rng) -> None:
    """Re-initialize every Grassmann-partitioned column as a random unit vector."""
    part = partition_parameters(net)
    for k in part.grassmann_layers:
        _unit_columns(net.layers[k].weight_matrix(), rng)


def build_mlp(
    in_dim,
    hidden,
    classes,
    rng,
    freeze_bn_scale=False,
    bn_eps=BN_EPS,
    bn_momentum=BN_MOMENTUM,
):
    """Dense-BN-ReLU stack with a biased linear classifier on top.

    Hidden layers carry no bias (BN's offset takes that role); the classifier
    keeps its bias and never feeds BN.
    """
    layers = []
    d = int(in_dim)
    for h in hidden:
        layers.append(DenseLayer(_fan_in_init(d, h, rng)))
        layers.append(
            BatchNormLayer(h, momentum_stats=bn_momentum, eps_bn=bn_eps,
                           scale_trainable=not freeze_bn_scale)
        )
        layers.append(ReluLayer())
        d = h
    layers.append(DenseLayer(_fan_in_init(d, classes, rng), bias=np.zeros(classes)))
    meta = {
        "kind": "mlp",
        "in_dim": int(in_dim),
        "hidden": [int(h) for h in hidden],
        "classes": int(classes),
        "freeze_bn_scale": bool(freeze_bn_scale),
        "bn_eps": float(bn_eps),
        "bn_momentum": float(bn_momentum),
    }
    net = Network(layers, meta)
    _init_grassmann_columns(net, rng)
    return net


def build_convnet(
    input_shape,
    classes,
    rng,
    channels,
    freeze_bn_scale=False,
    bn_eps=BN_EPS,
    bn_momentum=BN_MOMENTUM,
):
    """Two conv-BN-ReLU blocks (second one stride 2) and a linear classifier.

    ``input_shape`` is (c, h, w); the network's input batches are
    channels-last, (m, h, w, c).
    """
    c, h, w = (int(v) for v in input_shape)
    c1, c2 = (int(v) for v in channels)
    layers = [
        ConvLayer(rng.standard_normal((3, 3, c, c1)) / np.sqrt(9 * c), stride=1, padding=1),
        BatchNormLayer(c1, momentum_stats=bn_momentum, eps_bn=bn_eps,
                       scale_trainable=not freeze_bn_scale),
        ReluLayer(),
        ConvLayer(rng.standard_normal((3, 3, c1, c2)) / np.sqrt(9 * c1), stride=2, padding=1),
        BatchNormLayer(c2, momentum_stats=bn_momentum, eps_bn=bn_eps,
                       scale_trainable=not freeze_bn_scale),
        ReluLayer(),
        FlattenLayer(),
    ]
    h2 = (h + 2 - 3) // 2 + 1
    w2 = (w + 2 - 3) // 2 + 1
    flat = c2 * h2 * w2
    layers.append(DenseLayer(_fan_in_init(flat, classes, rng), bias=np.zeros(classes)))
    meta = {
        "kind": "conv",
        "input_shape": [c, h, w],
        "channels": [c1, c2],
        "classes": int(classes),
        "freeze_bn_scale": bool(freeze_bn_scale),
        "bn_eps": float(bn_eps),
        "bn_momentum": float(bn_momentum),
    }
    net = Network(layers, meta)
    _init_grassmann_columns(net, rng)
    return net


def build_network(meta, rng):
    """Rebuild a network from its meta descriptor (fresh random parameters)."""
    rest = dict(meta)
    return {"mlp": build_mlp, "conv": build_convnet}[rest.pop("kind")](rng=rng, **rest)
