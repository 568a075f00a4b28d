"""Orthogonality regularization for layers whose columns live on G(1, n).

``ortho_loss``/``ortho_grad`` implement the surrogate penalty
``(alpha/2) ||Y^T Y - I||_F^2`` that the training path minimizes.
``complexity_loss`` is its test oracle: the KL complexity of the layer's
factor-analyzer distribution against an isotropic prior, which shares the
surrogate's minimum (orthonormal columns) and for which the negative surrogate
gradient is a descent direction. ``descent_check`` verifies that property
numerically.

All four are array kernels on an n-by-p matrix ``y`` whose columns are the
layer's unit weight vectors. Like the ``manifold`` kernels, the penalty
kernels check nothing; the two oracle entry points check what they rely on.
"""

import numpy as np

from . import manifold
from .errors import NumericalError, PreconditionError

__all__ = [
    "ortho_loss",
    "ortho_grad",
    "complexity_loss",
    "descent_check",
]


def ortho_loss(y: np.ndarray, alpha: float, gram: np.ndarray | None = None) -> float:
    """Penalty ``(alpha/2) ||Y^T Y - I||_F^2``; zero iff the columns are orthonormal.

    ``gram`` may pass in ``Y^T Y`` when the caller has it already.
    """
    if gram is None:
        gram = y.T @ y
    off = gram - np.eye(y.shape[1])
    return 0.5 * alpha * float(np.sum(off * off))


def ortho_grad(y: np.ndarray, alpha: float, gram: np.ndarray | None = None) -> np.ndarray:
    """Euclidean gradient of :func:`ortho_loss`: ``2 alpha Y (Y^T Y - I)``.

    For unit-norm columns, column j equals ``2 alpha X_j X_j^T y_j`` where
    ``X_j`` drops column j, so each column's gradient points away from the
    span of the others. ``gram`` is as in :func:`ortho_loss`.
    """
    if gram is None:
        gram = y.T @ y
    return 2.0 * alpha * (y @ (gram - np.eye(y.shape[1])))


def _require_layer(y, alpha: float, sigma: float) -> np.ndarray:
    """``y`` as float64 once it is an under-complete 2-D matrix of unit columns,
    with ``alpha`` and ``sigma`` positive."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2:
        raise PreconditionError(f"Y must be 2-D, got shape {y.shape}")
    n, p = y.shape
    if n <= p:
        raise PreconditionError(f"layer must be under-complete (n > p), got n={n}, p={p}")
    if alpha <= 0.0:
        raise PreconditionError(f"alpha must be positive, got {alpha}")
    if sigma <= 0.0:
        raise PreconditionError(f"sigma must be positive, got {sigma}")
    if p > 0:
        manifold.require_unit(y, "columns")
    return y


def _complexity_from_matrix(y: np.ndarray, alpha: float, sigma: float) -> float:
    """``(alpha/2) tr((sigma^2 I_n + Y Y^T)^{-1})`` via the reduced p-by-p solve.

    Computed as ``(n-p)/sigma^2 + tr((sigma^2 I_p + Y^T Y)^{-1})``: the small
    Gram system is well conditioned where the n-by-n system has condition
    ~1/sigma^2, and the constant term cancels exactly in finite differences.
    """
    n, p = y.shape
    if p == 0:
        return 0.5 * alpha * n / sigma**2
    small = y.T @ y
    small[np.diag_indices(p)] += sigma**2
    try:  # small = L L^T: solve L z = I, then L^T x = z
        lower = np.linalg.cholesky(small)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"complexity: Cholesky factorization failed ({exc})") from exc
    inv_small = np.linalg.solve(lower.T, np.linalg.solve(lower, np.eye(p)))
    return 0.5 * alpha * ((n - p) / sigma**2 + float(np.trace(inv_small)))


def complexity_loss(y, alpha: float, sigma: float = 1e-3) -> float:
    """Variable part of the factor-analyzer KL complexity of the layer ``y``.

    Equals ``(alpha/2) tr((sigma^2 I + Y Y^T)^{-1})``, minimized exactly when
    the columns of Y are mutually orthogonal. ``sigma`` is the residual scale
    of the factor analyzer.
    """
    return _complexity_from_matrix(_require_layer(y, alpha, sigma), alpha, sigma)


def descent_check(y, alpha: float, column: int, sigma: float = 1e-3, fd_step: float = 1e-6) -> float:
    """Inner product of the complexity gradient (finite differences) with the
    surrogate gradient, both taken with respect to one column of ``y``.

    Nonnegative (>= -1e-8 numerically) for full-rank unit-column Y, and zero
    when the column is orthogonal to all others, so the negative surrogate
    gradient descends the complexity loss.
    """
    y = _require_layer(y, alpha, sigma)
    n, p = y.shape
    if not 0 <= column < p:
        raise PreconditionError(f"column {column} out of range for p={p}")
    if np.linalg.matrix_rank(y) < p:
        raise PreconditionError("Y must be full rank")
    fd = np.zeros(n)
    for i in range(n):
        y_plus = y.copy()
        y_plus[i, column] += fd_step
        y_minus = y.copy()
        y_minus[i, column] -= fd_step
        f_plus = _complexity_from_matrix(y_plus, alpha, sigma)
        f_minus = _complexity_from_matrix(y_minus, alpha, sigma)
        fd[i] = (f_plus - f_minus) / (2.0 * fd_step)
    g2 = ortho_grad(y, alpha)[:, column]
    return float(fd @ g2)
