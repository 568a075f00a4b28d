"""Riemannian optimization on G(1, n) for scale-invariant weights under batch normalization."""

from .manifold import (
    GrassmannPoint,
    TangentVector,
    exp_map,
    geodesic_angle,
    norm_clip,
    parallel_translate,
    parallel_translate_self,
    project_tangent,
    tangent_inner,
)
from .optim import (
    AdamGState,
    EuclideanSgdState,
    LrSchedule,
    SgdGState,
    adamg_step,
    adamg_update,
    euclidean_sgd_step,
    schedule_lr,
    sgdg_step,
    sgdg_update,
)
from .regularizer import LayerColumns, complexity_loss, descent_check, ortho_grad, ortho_loss

__version__ = "0.1.0"

__all__ = [
    "GrassmannPoint",
    "TangentVector",
    "project_tangent",
    "exp_map",
    "parallel_translate",
    "parallel_translate_self",
    "norm_clip",
    "tangent_inner",
    "geodesic_angle",
    "SgdGState",
    "AdamGState",
    "EuclideanSgdState",
    "LrSchedule",
    "sgdg_step",
    "adamg_step",
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
