"""Orthogonality regularization for layers whose columns live on G(1, n).

``ortho_loss``/``ortho_grad`` implement the surrogate penalty
``(alpha/2) ||Y^T Y - I||_F^2`` that the training path minimizes.
``complexity_loss`` is its test oracle: the KL complexity of the layer's
factor-analyzer distribution against an isotropic prior, which shares the
surrogate's minimum (orthonormal columns) and for which the negative surrogate
gradient is a descent direction. ``descent_check`` verifies that property
numerically.
"""

from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import PreconditionError

__all__ = [
    "LayerColumns",
    "ortho_loss",
    "ortho_grad",
    "complexity_loss",
    "descent_check",
]

_UNIT_COL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class LayerColumns:
    """An under-complete bundle of unit-norm columns with regularization strength.

    ``Y`` is n-by-p with n > p and every column unit-norm. ``sigma`` is the
    residual scale of the factor-analyzer oracle; it only affects
    ``complexity_loss`` and friends, never the training penalty.
    """

    Y: np.ndarray
    alpha: float
    sigma: float = 1e-3

    def __post_init__(self):
        y = np.asarray(self.Y, dtype=np.float64)
        object.__setattr__(self, "Y", y)
        if y.ndim != 2:
            raise PreconditionError(f"Y must be 2-D, got shape {y.shape}")
        n, p = y.shape
        if n <= p:
            raise PreconditionError(f"layer must be under-complete (n > p), got n={n}, p={p}")
        if self.alpha <= 0.0:
            raise PreconditionError(f"alpha must be positive, got {self.alpha}")
        if self.sigma <= 0.0:
            raise PreconditionError(f"sigma must be positive, got {self.sigma}")
        if p > 0:
            col_norms = np.linalg.norm(y, axis=0)
            worst = float(np.max(np.abs(col_norms - 1.0)))
            if not np.isfinite(worst) or worst > _UNIT_COL_TOL:
                raise PreconditionError(
                    f"columns must be unit norm within {_UNIT_COL_TOL}, worst deviation {worst}"
                )

    @property
    def n(self) -> int:
        return self.Y.shape[0]

    @property
    def p(self) -> int:
        return self.Y.shape[1]


def ortho_loss(layer: LayerColumns, gram: np.ndarray | None = None) -> float:
    """Penalty ``(alpha/2) ||Y^T Y - I||_F^2``; zero iff the columns are orthonormal.

    ``gram`` may pass in ``Y^T Y`` when the caller has it already.
    """
    if gram is None:
        gram = layer.Y.T @ layer.Y
    off = gram - np.eye(layer.p)
    return 0.5 * layer.alpha * float(np.sum(off * off))


def ortho_grad(layer: LayerColumns, gram: np.ndarray | None = None) -> np.ndarray:
    """Euclidean gradient of :func:`ortho_loss`: ``2 alpha Y (Y^T Y - I)``.

    For unit-norm columns, column j equals ``2 alpha X_j X_j^T y_j`` where
    ``X_j`` drops column j, so each column's gradient points away from the
    span of the others. ``gram`` is as in :func:`ortho_loss`.
    """
    if gram is None:
        gram = layer.Y.T @ layer.Y
    return 2.0 * layer.alpha * (layer.Y @ (gram - np.eye(layer.p)))


def _complexity_from_matrix(y: np.ndarray, alpha: float, sigma: float) -> float:
    """``(alpha/2) tr((sigma^2 I_n + Y Y^T)^{-1})`` via the reduced p-by-p solve.

    Computed as ``(n-p)/sigma^2 + tr((sigma^2 I_p + Y^T Y)^{-1})``: the small
    Gram system is well conditioned where the n-by-n system has condition
    ~1/sigma^2, and the constant term cancels exactly in finite differences.
    """
    n, p = y.shape
    if p == 0:
        return 0.5 * alpha * n / sigma**2
    small = sigma**2 * np.eye(p) + y.T @ y
    inv_small = numerics.solve_spd(small, np.eye(p))
    return 0.5 * alpha * ((n - p) / sigma**2 + float(np.trace(inv_small)))


def complexity_loss(layer: LayerColumns) -> float:
    """Variable part of the factor-analyzer KL complexity of the layer.

    Equals ``(alpha/2) tr((sigma^2 I + Y Y^T)^{-1})``, minimized exactly when
    the columns of Y are mutually orthogonal.
    """
    return _complexity_from_matrix(layer.Y, layer.alpha, layer.sigma)


def descent_check(layer: LayerColumns, column: int, fd_step: float = 1e-6) -> float:
    """Inner product of the complexity gradient (finite differences) with the
    surrogate gradient, both taken with respect to one column.

    Nonnegative (>= -1e-8 numerically) for full-rank unit-column Y, and zero
    when the column is orthogonal to all others, so the negative surrogate
    gradient descends the complexity loss.
    """
    n, p = layer.n, layer.p
    if not 0 <= column < p:
        raise PreconditionError(f"column {column} out of range for p={p}")
    if np.linalg.matrix_rank(layer.Y) < p:
        raise PreconditionError("Y must be full rank")
    fd = np.zeros(n)
    for i in range(n):
        y_plus = layer.Y.copy()
        y_plus[i, column] += fd_step
        y_minus = layer.Y.copy()
        y_minus[i, column] -= fd_step
        f_plus = _complexity_from_matrix(y_plus, layer.alpha, layer.sigma)
        f_minus = _complexity_from_matrix(y_minus, layer.alpha, layer.sigma)
        fd[i] = (f_plus - f_minus) / (2.0 * fd_step)
    g2 = ortho_grad(layer)[:, column]
    return float(fd @ g2)
