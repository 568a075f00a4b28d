"""Riemannian optimization on G(1, n) for scale-invariant weights under batch normalization."""

from .optim import (
    AdamGHyper,
    EuclideanSgdState,
    LrSchedule,
    SgdGHyper,
    adamg_update,
    euclidean_sgd_step,
    schedule_lr,
    sgdg_update,
)
from .regularizer import LayerColumns, complexity_loss, descent_check, ortho_grad, ortho_loss

__version__ = "0.1.0"

__all__ = [
    "SgdGHyper",
    "AdamGHyper",
    "EuclideanSgdState",
    "LrSchedule",
    "sgdg_update",
    "adamg_update",
    "euclidean_sgd_step",
    "schedule_lr",
    "LayerColumns",
    "ortho_loss",
    "ortho_grad",
    "complexity_loss",
    "descent_check",
    "__version__",
]
