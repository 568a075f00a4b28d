"""Feed-forward networks with batch normalization and the Grassmann parameter partition."""

from .checkpoint import load_checkpoint, save_checkpoint
from .layers import BatchNormLayer, ConvLayer, DenseLayer, FlattenLayer, ReluLayer, softmax_ce
from .network import (
    EuclideanRef,
    Network,
    Partition,
    build_convnet,
    build_mlp,
    build_network,
    partition_parameters,
)
from .training import GRASSMANN_OPTIMIZERS, OPTIMIZERS, EpochStats, LayerState, StepStats, Trainer

__all__ = [
    "BatchNormLayer",
    "ConvLayer",
    "DenseLayer",
    "FlattenLayer",
    "ReluLayer",
    "softmax_ce",
    "Network",
    "Partition",
    "EuclideanRef",
    "partition_parameters",
    "build_mlp",
    "build_convnet",
    "build_network",
    "Trainer",
    "LayerState",
    "StepStats",
    "EpochStats",
    "OPTIMIZERS",
    "GRASSMANN_OPTIMIZERS",
    "save_checkpoint",
    "load_checkpoint",
]
