"""Riemannian optimization on G(1, n) for scale-invariant weights under batch normalization."""

from .optim import (
    AdamGHyper,
    EuclideanHyper,
    LrSchedule,
    SgdGHyper,
    adamg_step,
    euclidean_sgd_step,
    schedule_lr,
    sgdg_step,
)
from .regularizer import complexity_loss, descent_check, ortho_grad, ortho_loss

__version__ = "0.1.0"

__all__ = [
    "SgdGHyper",
    "AdamGHyper",
    "EuclideanHyper",
    "LrSchedule",
    "sgdg_step",
    "adamg_step",
    "euclidean_sgd_step",
    "schedule_lr",
    "ortho_loss",
    "ortho_grad",
    "complexity_loss",
    "descent_check",
    "__version__",
]
