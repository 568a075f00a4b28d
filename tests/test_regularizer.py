import numpy as np
import pytest

from grassopt import gradcheck
from grassopt.errors import PreconditionError
from grassopt.regularizer import (
    LayerColumns,
    complexity_loss,
    descent_check,
    ortho_grad,
    ortho_loss,
)


def _unit_columns(n, p, rng):
    y = rng.standard_normal((n, p))
    return y / np.linalg.norm(y, axis=0)


def _orthonormal(n, p, rng):
    return np.linalg.qr(rng.standard_normal((n, p)))[0][:, :p]


def test_layer_columns_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(PreconditionError):
        LayerColumns(_unit_columns(3, 3, rng), alpha=0.1)  # not under-complete
    with pytest.raises(PreconditionError):
        LayerColumns(2.0 * _unit_columns(4, 2, rng), alpha=0.1)  # columns not unit
    with pytest.raises(PreconditionError):
        LayerColumns(_unit_columns(4, 2, rng), alpha=0.0)
    with pytest.raises(PreconditionError):
        LayerColumns(_unit_columns(4, 2, rng), alpha=0.1, sigma=0.0)


def test_ortho_loss_zero_at_orthonormal():
    rng = np.random.default_rng(1)
    layer = LayerColumns(_orthonormal(8, 3, rng), alpha=0.1)
    assert ortho_loss(layer) == pytest.approx(0.0, abs=1e-25)


def test_ortho_loss_identical_columns_analytic():
    col = np.zeros(5)
    col[0] = 1.0
    layer = LayerColumns(np.column_stack([col, col]), alpha=0.1)
    # Y^T Y - I = [[0, 1], [1, 0]], squared Frobenius norm 2, loss = 0.1/2 * 2
    assert ortho_loss(layer) == pytest.approx(0.1, abs=1e-15)


def test_ortho_loss_matches_elementwise_oracle():
    rng = np.random.default_rng(2)
    y = _unit_columns(8, 3, rng)
    layer = LayerColumns(y, alpha=0.37)
    gram = np.array([[sum(y[k, i] * y[k, j] for k in range(8)) for j in range(3)] for i in range(3)])
    expected = 0.5 * 0.37 * sum(
        (gram[i, j] - (1.0 if i == j else 0.0)) ** 2 for i in range(3) for j in range(3)
    )
    assert ortho_loss(layer) == pytest.approx(expected, rel=1e-12)


def test_ortho_grad_zero_at_orthonormal():
    rng = np.random.default_rng(3)
    layer = LayerColumns(_orthonormal(6, 2, rng), alpha=0.1)
    assert np.max(np.abs(ortho_grad(layer))) < 1e-14


def test_ortho_grad_column_identity():
    # Column j of the gradient equals 2 alpha X_j X_j^T y_j (X_j drops column j).
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.choice([4, 8, 16]))
        p = int(rng.integers(2, n))
        y = _unit_columns(n, p, rng)
        layer = LayerColumns(y, alpha=0.1)
        grad = ortho_grad(layer)
        for j in range(p):
            x = np.delete(y, j, axis=1)
            expected = 2.0 * 0.1 * (x @ (x.T @ y[:, j]))
            assert np.max(np.abs(grad[:, j] - expected)) < 1e-12


def test_ortho_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n, p = 6, int(rng.integers(2, 5))
        y = _unit_columns(n, p, rng)
        layer = LayerColumns(y, alpha=0.1)
        analytic = ortho_grad(layer).ravel()

        def flat_loss(flat):
            m = flat.reshape(n, p)
            off = m.T @ m - np.eye(p)
            return 0.5 * 0.1 * float(np.sum(off * off))

        numeric = gradcheck.fd_gradient(flat_loss, y.ravel(), eps=1e-6)
        scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-8)
        assert np.max(np.abs(analytic - numeric)) / scale < 1e-6


def test_complexity_loss_rank_one_spectrum():
    # p=1, n=2: eigenvalues of sigma^2 I + y y^T are {1 + sigma^2, sigma^2}.
    rng = np.random.default_rng(6)
    y = _unit_columns(2, 1, rng)
    layer = LayerColumns(y, alpha=0.1, sigma=0.1)
    expected = 0.5 * 0.1 * (1.0 / 1.01 + 1.0 / 0.01)
    assert complexity_loss(layer) == pytest.approx(expected, rel=1e-12)


def test_complexity_loss_orthonormal_spectrum():
    rng = np.random.default_rng(7)
    q = _orthonormal(6, 2, rng)
    sigma2 = 1e-4
    layer = LayerColumns(q, alpha=0.1, sigma=np.sqrt(sigma2))
    expected = 0.5 * 0.1 * (2.0 / (1.0 + sigma2) + 4.0 / sigma2)
    assert complexity_loss(layer) == pytest.approx(expected, rel=1e-12)


def test_complexity_loss_minimized_by_orthonormalization():
    rng = np.random.default_rng(8)
    for sigma in (1e-2, 1e-3, 1e-4):
        for _ in range(100):
            n = int(rng.choice([4, 8, 16]))
            p = int(rng.integers(1, n))
            y = _unit_columns(n, p, rng)
            q = np.linalg.qr(y)[0][:, :p]
            ly = complexity_loss(LayerColumns(y, 0.1, sigma))
            lq = complexity_loss(LayerColumns(q, 0.1, sigma))
            assert lq <= ly


def test_descent_check_zero_at_orthonormal():
    rng = np.random.default_rng(11)
    layer = LayerColumns(_orthonormal(8, 3, rng), alpha=0.1)
    assert abs(descent_check(layer, 0)) < 1e-8


def test_descent_check_positive_at_45_degrees():
    n = 6
    y1 = np.zeros(n)
    y1[0] = 1.0
    y2 = np.zeros(n)
    y2[0] = y2[1] = np.sqrt(0.5)
    layer = LayerColumns(np.column_stack([y1, y2]), alpha=0.1)
    assert descent_check(layer, 1) > 0.0


def test_descent_check_sweep_nonnegative():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.choice([4, 8, 32]))
        p = int(rng.integers(1, n))
        layer = LayerColumns(_unit_columns(n, p, rng), alpha=0.1)
        assert descent_check(layer, int(rng.integers(p))) >= -1e-8


def test_descent_check_rejects_rank_deficiency():
    col = np.zeros(5)
    col[0] = 1.0
    layer = LayerColumns(np.column_stack([col, col]), alpha=0.1)
    with pytest.raises(PreconditionError):
        descent_check(layer, 0)
