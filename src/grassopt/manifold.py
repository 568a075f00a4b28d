"""Geometry of G(1, n): tangent projection, geodesics, parallel translation, clipping.

A point is represented by a unit vector ``y`` (sign-ambiguous: ``y`` and ``-y``
name the same subspace). Tangent vectors at ``y`` are vectors orthogonal to it.

The geometry is written once, as array kernels that act column by column on
an ``(n,)`` vector or an ``(n, p)`` array. An n-by-p array of unit columns is
one point on the product manifold G(1, n)^p, so a whole BN-fed weight matrix
moves in one call. :class:`GrassmannPoint`, :class:`TangentVector` and the
functions that take them are the single-point interface over those kernels.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PreconditionError

__all__ = [
    "DEGENERATE_STEP",
    "UNIT_TOL",
    "GrassmannPoint",
    "TangentVector",
    "require_unit",
    "require_tangent",
    "project_columns",
    "clip_columns",
    "geodesic_columns",
    "angle_columns",
    "zero_tangent",
    "project_tangent",
    "exp_map",
    "parallel_translate",
    "parallel_translate_self",
    "norm_clip",
    "tangent_inner",
    "geodesic_angle",
]

# Below this step norm the geodesic formulas (which divide by |h|) reduce to
# the identity; the singularity at h = 0 is removable.
DEGENERATE_STEP = 1e-12

UNIT_TOL = 1e-9
_TANGENCY_TOL = 1e-9


# ------------------------------------------------------------ array kernels


def _col_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products of matching columns: 0-d for vectors, shape (p,) for n-by-p arrays."""
    return np.einsum("i...,i...->...", a, b)


def _col_norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_col_inner(a, a))


def require_unit(y: np.ndarray, what: str = "point") -> None:
    """Raise :class:`PreconditionError` unless every column of ``y`` is unit norm within ``UNIT_TOL``."""
    dev = np.abs(_col_norm(y) - 1.0)
    if not np.all(dev <= UNIT_TOL):  # also catches NaN
        raise PreconditionError(
            f"{what} must be unit norm within {UNIT_TOL}, worst |norm - 1| = {np.max(dev)}"
        )


def require_tangent(y: np.ndarray, v: np.ndarray, what: str = "vector") -> None:
    """Raise :class:`PreconditionError` unless each column of ``v`` is orthogonal to that of ``y``.

    The tolerance scales with the column norm: ``|y_j . v_j| <= 1e-9 (1 + |v_j|)``.
    """
    if not np.all(np.abs(_col_inner(y, v)) <= _TANGENCY_TOL * (1.0 + _col_norm(v))):
        raise PreconditionError(f"{what} is not tangent at its base point")


def project_columns(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``h = g - (y^T g) y`` per column: the Riemannian gradient of a Euclidean gradient ``g``."""
    h = y * -_col_inner(y, g)
    h += g
    return h


def clip_columns(h: np.ndarray, nu: float) -> tuple[np.ndarray, np.ndarray]:
    """Cap each column norm at ``nu``; returns (clipped copy, norms before clipping).

    Columns at or below ``nu`` are copied unchanged.
    """
    if nu <= 0.0:
        raise PreconditionError(f"clip threshold must be positive, got {nu}")
    nh = _col_norm(h)
    return h * (nu / np.maximum(nh, nu)), nh


def geodesic_columns(y: np.ndarray, d: np.ndarray, delta: np.ndarray | None = None):
    """Follow the geodesic from ``y`` with velocity ``d`` for unit time, column by column.

    Returns ``(exp_y(d), pt_y(delta; d))``. With ``u = d/|d|``::

        exp_y(d)        = y cos|d| + u sin|d|        (renormalized against drift)
        pt_y(delta; d)  = delta - (u (1 - cos|d|) + y sin|d|) (u^T delta)
        pt_y(d; d)      = d cos|d| - y |d| sin|d|    (``delta=None``)

    The transported vector is tangent at the new point and keeps its norm.
    Columns with ``|d| < DEGENERATE_STEP`` keep ``y`` and ``delta`` unchanged.
    """
    nd = _col_norm(d)
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


# ------------------------------------------------------ single-point interface


@dataclass(frozen=True, eq=False)
class GrassmannPoint:
    """A point on G(1, n) held as a unit-norm representation of dimension n >= 2.

    The wrapped array must not be mutated after construction.
    """

    y: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.float64)
        object.__setattr__(self, "y", y)
        if y.ndim != 1 or y.shape[0] < 2:
            raise DimensionError(
                f"representation must be a vector of dimension >= 2, got shape {y.shape}"
            )
        require_unit(y, "representation")

    @property
    def dim(self) -> int:
        return self.y.shape[0]

    @staticmethod
    def from_unnormalized(v) -> "GrassmannPoint":
        v = np.asarray(v, dtype=np.float64)
        n = float(np.linalg.norm(v))
        if n == 0.0 or not math.isfinite(n):
            raise PreconditionError("cannot normalize a zero or non-finite vector")
        return GrassmannPoint(v / n)

    @staticmethod
    def random(n: int, rng: np.random.Generator) -> "GrassmannPoint":
        """Uniformly random point, as a normalized Gaussian sample."""
        return GrassmannPoint.from_unnormalized(rng.standard_normal(n))


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A vector tangent at ``base``, i.e. orthogonal to the base representation.

    Tangency is checked with :func:`require_tangent`, which raises
    :class:`PreconditionError` and also holds under ``python -O``.
    """

    v: np.ndarray
    base: GrassmannPoint

    def __post_init__(self):
        v = np.asarray(self.v, dtype=np.float64)
        object.__setattr__(self, "v", v)
        if v.shape != self.base.y.shape:
            raise DimensionError(
                f"tangent dimension {v.shape} != base dimension {self.base.y.shape}"
            )
        require_tangent(self.base.y, v)

    @property
    def dim(self) -> int:
        return self.v.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.v))


def zero_tangent(y: GrassmannPoint) -> TangentVector:
    return TangentVector(np.zeros(y.dim), y)


def _require_base(y: GrassmannPoint, t: TangentVector, name: str) -> None:
    if t.base is not y and not np.array_equal(t.base.y, y.y):
        raise PreconditionError(f"{name} is not tangent at the given point")


def project_tangent(y: GrassmannPoint, g) -> TangentVector:
    """Project an ambient gradient onto the tangent space at ``y``: ``h = g - (y^T g) y``."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape != y.y.shape:
        raise DimensionError(f"gradient shape {g.shape} != point dimension {y.y.shape}")
    return TangentVector(project_columns(y.y, g), y)


def exp_map(y: GrassmannPoint, h: TangentVector) -> GrassmannPoint:
    """Follow the geodesic from ``y`` with initial velocity ``h`` for unit time.

    ``exp_y(h) = y cos|h| + (h/|h|) sin|h|``; see :func:`geodesic_columns`.
    Steps shorter than ``DEGENERATE_STEP`` return ``y`` itself.
    """
    _require_base(y, h, "h")
    if h.norm() < DEGENERATE_STEP:
        return y
    return GrassmannPoint(geodesic_columns(y.y, h.v)[0])


def parallel_translate(y: GrassmannPoint, delta: TangentVector, h: TangentVector) -> TangentVector:
    """Transport ``delta`` along the geodesic with initial velocity ``h``.

    The result is tangent at ``exp_map(y, h)`` and has the same norm as
    ``delta``. A degenerate ``h`` returns ``delta`` itself.
    """
    _require_base(y, delta, "delta")
    _require_base(y, h, "h")
    if h.norm() < DEGENERATE_STEP:
        return delta
    y_new, moved = geodesic_columns(y.y, h.v, delta.v)
    return TangentVector(moved, GrassmannPoint(y_new))


def parallel_translate_self(y: GrassmannPoint, h: TangentVector) -> TangentVector:
    """Transport ``h`` along its own geodesic: ``h cos|h| - y |h| sin|h|``."""
    _require_base(y, h, "h")
    if h.norm() < DEGENERATE_STEP:
        return h
    y_new, moved = geodesic_columns(y.y, h.v)
    return TangentVector(moved, GrassmannPoint(y_new))


def norm_clip(h: TangentVector, nu: float) -> TangentVector:
    """Cap the norm of ``h`` at ``nu``, preserving its direction; ``h`` itself when within."""
    clipped, nh = clip_columns(h.v, nu)
    return h if nh <= nu else TangentVector(clipped, h.base)


def tangent_inner(a: TangentVector, b: TangentVector) -> float:
    """Canonical inner product of two tangent vectors at the same point."""
    if a.v.shape != b.v.shape:
        raise DimensionError(f"tangent dimensions differ: {a.v.shape} vs {b.v.shape}")
    if a.base is not b.base and not np.array_equal(a.base.y, b.base.y):
        raise PreconditionError("tangent vectors have different base points")
    return float(a.v @ b.v)


def geodesic_angle(y1: GrassmannPoint, y2: GrassmannPoint) -> float:
    """Angle in [0, pi/2] between two points; sign-invariant in both arguments."""
    if y1.y.shape != y2.y.shape:
        raise DimensionError(f"dimensions differ: {y1.y.shape} vs {y2.y.shape}")
    return float(angle_columns(y1.y, y2.y))
