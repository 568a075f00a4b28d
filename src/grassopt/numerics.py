"""Checked float64 linear algebra: matrix coercion and the SPD solve the regularizer uses.

Matrices are 2-D ``numpy.ndarray`` objects in double precision. Both helpers
validate shape and finiteness and raise
:class:`~grassopt.errors.DimensionError` / :class:`~grassopt.errors.NumericalError`
instead of propagating numpy's generic exceptions.
"""

import numpy as np
import scipy.linalg

from .errors import DimensionError, NumericalError

__all__ = ["as_matrix", "solve_spd"]


def as_matrix(data) -> np.ndarray:
    """Coerce ``data`` to a finite 2-D float64 array with at least one row."""
    m = np.asarray(data, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] == 0:
        raise DimensionError(f"expected a 2-D matrix with rows, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NumericalError("matrix contains NaN or Inf")
    return m


def solve_spd(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` for symmetric positive-definite ``a`` via Cholesky.

    Parameters
    ----------
    a : array, shape (n, n)
        Symmetric positive-definite matrix.
    b : array, shape (n, m)
        Right-hand side.

    Raises
    ------
    DimensionError
        If shapes do not conform.
    NumericalError
        If ``a`` is not symmetric or the factorization fails (not SPD).
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"solve_spd: matrix must be square, got {a.shape}")
    if a.shape[0] != b.shape[0]:
        raise DimensionError(f"solve_spd: rhs rows {b.shape[0]} != matrix size {a.shape[0]}")
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-10 * (1.0 + scale)):
        raise NumericalError("solve_spd: matrix is not symmetric")
    try:
        factor = scipy.linalg.cho_factor(a, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"solve_spd: Cholesky factorization failed ({exc})") from exc
    return scipy.linalg.cho_solve(factor, b, check_finite=False)
