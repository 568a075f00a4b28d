"""Finite-difference oracles for Euclidean and Riemannian gradients.

These are the project's independent checks: central differences for flat
parameters, and directional derivatives along geodesics for points on G(1, n),
given as unit ``(n,)`` arrays. Nothing here shares code with the analytic
backward passes it validates.
"""

import numpy as np

from . import manifold
from .errors import DimensionError, NumericalError

__all__ = ["rel_error", "fd_gradient", "riemannian_fd_check"]


def rel_error(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|, 1e-8)."""
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def fd_gradient(f, x, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=np.float64)
    if eps <= 0.0:
        raise NumericalError(f"eps must be positive, got {eps}")
    grad = np.zeros_like(x)
    for i in range(x.shape[0]):
        xp = x.copy()
        xp[i] += eps
        xm = x.copy()
        xm[i] -= eps
        fp, fm = f(xp), f(xm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericalError(f"non-finite function value while perturbing coordinate {i}")
        grad[i] = (fp - fm) / (2.0 * eps)
    return grad


def riemannian_fd_check(
    f,
    grad,
    y: np.ndarray,
    trials: int = 20,
    step: float = 1e-6,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Relative errors of a claimed gradient of ``f`` on G(1, n) against geodesic differences.

    For each of ``trials`` random unit tangent directions ``v`` at the unit
    vector ``y``, the directional derivative
    ``(f(exp_y(t v)) - f(exp_y(-t v))) / 2t`` must match ``<h, v>``, where
    ``h = g - (y^T g) y`` is the tangent part of ``g = grad(y)``. Returns the
    :func:`rel_error` of each direction, one entry per direction drawn (a
    draw that projects to a degenerate direction is skipped).

    Parameters
    ----------
    f : callable
        Maps a unit ``(n,)`` array to a scalar.
    grad : callable
        Maps a unit ``(n,)`` array to the claimed ambient gradient vector.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise DimensionError(f"point must be an (n,) vector, got shape {y.shape}")
    manifold.require_unit(y)
    rng = rng if rng is not None else np.random.default_rng(0)
    projected = manifold.project_columns(y, np.asarray(grad(y), dtype=np.float64))
    errors = []
    for _ in range(trials):
        v = manifold.project_columns(y, rng.standard_normal(y.shape[0]))
        nv = float(np.linalg.norm(v))
        if nv < manifold.DEGENERATE_STEP:
            continue
        v /= nv
        f_plus = f(manifold.geodesic_columns(y, step * v)[0])
        f_minus = f(manifold.geodesic_columns(y, -step * v)[0])
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericalError("non-finite function value during geodesic perturbation")
        numeric = (f_plus - f_minus) / (2.0 * step)
        errors.append(rel_error(float(projected @ v), numeric))
    return np.array(errors)
