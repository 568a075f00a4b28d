"""Geometry of G(1, n): tangent projection, geodesics, parallel translation, clipping.

A point is represented by a unit vector ``y`` (sign-ambiguous: ``y`` and ``-y``
name the same subspace). Tangent vectors at ``y`` are vectors orthogonal to it.

The geometry is written once, as array kernels that act column by column on
an ``(n,)`` vector or an ``(n, p)`` array. An n-by-p array of unit columns is
one point on the product manifold G(1, n)^p, so a whole BN-fed weight matrix
moves in one call, and a single point is just an ``(n,)`` array. The kernels
do not check that points are unit or vectors tangent; callers that rely on
it say so with :func:`require_unit` and :func:`require_tangent`.
"""

import numpy as np

from .errors import DimensionError, NumericalError, PreconditionError

__all__ = [
    "DEGENERATE_STEP",
    "UNIT_TOL",
    "require_unit",
    "require_tangent",
    "project_columns",
    "clip_columns",
    "geodesic_columns",
    "angle_columns",
]

# Below this step norm the geodesic formulas (which divide by |h|) reduce to
# the identity; the singularity at h = 0 is removable.
DEGENERATE_STEP = 1e-12

UNIT_TOL = 1e-9
_TANGENCY_TOL = 1e-9


def _col_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products of matching columns: 0-d for vectors, shape (p,) for n-by-p arrays."""
    return np.einsum("i...,i...->...", a, b)


def _col_norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_col_inner(a, a))


def require_unit(y: np.ndarray, what: str = "point") -> None:
    """Raise :class:`PreconditionError` unless every column of ``y`` is unit norm within ``UNIT_TOL``.

    A point of G(1, n) needs n >= 2, so ``y`` must have at least two rows
    (:class:`DimensionError` otherwise).
    """
    if np.ndim(y) == 0 or np.shape(y)[0] < 2:
        raise DimensionError(f"{what} must have dimension n >= 2 per column, got shape {np.shape(y)}")
    dev = np.abs(_col_norm(y) - 1.0)
    if not np.all(dev <= UNIT_TOL):  # also catches NaN
        raise PreconditionError(
            f"{what} must be unit norm within {UNIT_TOL}, worst |norm - 1| = {np.max(dev)}"
        )


def require_tangent(y: np.ndarray, v: np.ndarray, what: str = "vector") -> np.ndarray:
    """Raise :class:`PreconditionError` unless each column of ``v`` is orthogonal to that of ``y``.

    The tolerance scales with the column norm: ``|y_j . v_j| <= 1e-9 (1 + |v_j|)``.
    A column whose norm is not finite, or above about 1.3e154 so that its square
    overflows, raises :class:`NumericalError` instead; the tolerance is never infinite.
    Returns the column norms ``|v_j|``, which :func:`clip_columns` and
    :func:`geodesic_columns` accept instead of computing them again.
    """
    nv = _col_norm(v)
    if not np.isfinite(nv).all():
        raise NumericalError(f"{what} has a column norm that is not finite")
    if not np.all(np.abs(_col_inner(y, v)) <= _TANGENCY_TOL * (1.0 + nv)):
        raise PreconditionError(f"{what} is not tangent at its base point")
    return nv


def project_columns(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``h = g - (y^T g) y`` per column: the Riemannian gradient of a Euclidean gradient ``g``."""
    h = y * -_col_inner(y, g)
    h += g
    return h


def clip_columns(
    h: np.ndarray, nu: float, norms: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Cap each column norm at ``nu``; returns (clipped copy, norms before clipping).

    Columns at or below ``nu`` are copied unchanged. ``norms``, if given, must
    be the column norms of ``h`` (as :func:`require_tangent` returns them).
    """
    if nu <= 0.0:
        raise PreconditionError(f"clip threshold must be positive, got {nu}")
    nh = _col_norm(h) if norms is None else norms
    return h * (nu / np.maximum(nh, nu)), nh


def geodesic_columns(
    y: np.ndarray, d: np.ndarray, delta: np.ndarray | None = None, norms: np.ndarray | None = None
):
    """Follow the geodesic from ``y`` with velocity ``d`` for unit time, column by column.

    Returns ``(exp_y(d), pt_y(delta; d))``. With ``u = d/|d|``::

        exp_y(d)        = y cos|d| + u sin|d|        (renormalized against drift)
        pt_y(delta; d)  = delta - (u (1 - cos|d|) + y sin|d|) (u^T delta)
        pt_y(d; d)      = d cos|d| - y |d| sin|d|    (``delta=None``)

    The transported vector is tangent at the new point and keeps its norm.
    Columns with ``|d| < DEGENERATE_STEP`` keep ``y`` and ``delta`` unchanged.
    ``norms``, if given, must be the column norms ``|d|``.
    """
    nd = _col_norm(d) if norms is None else norms
    still = nd < DEGENERATE_STEP
    safe = np.where(still, 1.0, nd)
    cos, sin = np.cos(nd), np.sin(nd)

    scratch = d * (sin / safe)
    y_new = y * cos
    y_new += scratch
    y_new /= _col_norm(y_new)

    if delta is None:
        moved = d * cos
        moved -= np.multiply(y, nd * sin, out=scratch)
    else:
        bend = d / safe  # u, bent in place once its inner product with delta is taken
        coef = _col_inner(bend, delta)
        bend *= 1.0 - cos
        bend += np.multiply(y, sin, out=scratch)
        bend *= coef
        moved = delta - bend
    if np.any(still):
        np.copyto(y_new, y, where=still)
        np.copyto(moved, d if delta is None else delta, where=still)
    return y_new, moved


def angle_columns(y1: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """Angles in [0, pi/2] between matching columns; sign-invariant in both arguments."""
    return np.arccos(np.minimum(1.0, np.abs(_col_inner(y1, y2))))
