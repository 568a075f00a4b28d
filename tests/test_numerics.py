import numpy as np
import pytest

from grassopt import numerics
from grassopt.errors import DimensionError, NumericalError


def _random_spd(n, rng):
    b = rng.standard_normal((n, n))
    return b @ b.T + n * np.eye(n)


def test_solve_spd_residual_oracle():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = _random_spd(8, rng)
        inv = numerics.solve_spd(a, np.eye(8))
        residual = np.linalg.norm(a @ inv - np.eye(8)) / np.linalg.norm(np.eye(8))
        assert residual < 1e-10


def test_solve_spd_rejects_indefinite():
    a = np.diag([1.0, -1.0])
    with pytest.raises(NumericalError):
        numerics.solve_spd(a, np.eye(2))


def test_solve_spd_rejects_asymmetric():
    a = np.array([[2.0, 1.0], [0.0, 2.0]])
    with pytest.raises(NumericalError):
        numerics.solve_spd(a, np.eye(2))


def test_solve_spd_shape_checks():
    with pytest.raises(DimensionError):
        numerics.solve_spd(np.eye(3), np.eye(2))


def test_non_finite_rejected():
    with pytest.raises(NumericalError):
        numerics.as_matrix([[np.inf, 0.0], [0.0, 1.0]])


def test_solve_spd_matches_scipy_cholesky():
    # The numpy factor-and-solve agrees with LAPACK's Cholesky solve as scipy
    # wraps it, on random systems and on the factor-analyzer system
    # sigma^2 I + Y^T Y (unit columns, sigma = 1e-3) that complexity_loss solves.
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(23)
    systems = [_random_spd(n, rng) for n in (1, 2, 8, 33) for _ in range(5)]
    for n, p in ((8, 3), (64, 16), (300, 40)):
        for _ in range(5):
            y = rng.standard_normal((n, p))
            y /= np.linalg.norm(y, axis=0)
            systems.append(1e-3**2 * np.eye(p) + y.T @ y)
    for a in systems:
        b = rng.standard_normal((a.shape[0], 4))
        for rhs in (b, np.eye(a.shape[0])):
            ref = scipy_linalg.cho_solve(scipy_linalg.cho_factor(a), rhs)
            diff = np.max(np.abs(numerics.solve_spd(a, rhs) - ref))
            assert diff < 1e-12 * np.max(np.abs(ref))
