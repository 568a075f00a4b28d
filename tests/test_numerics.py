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
