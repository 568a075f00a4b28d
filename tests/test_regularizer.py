import numpy as np
import pytest

from grassopt import gradcheck
from grassopt.errors import PreconditionError
from grassopt.regularizer import complexity_loss, descent_check, ortho_grad, ortho_loss


def _unit_columns(n, p, rng):
    y = rng.standard_normal((n, p))
    return y / np.linalg.norm(y, axis=0)


def _orthonormal(n, p, rng):
    return np.linalg.qr(rng.standard_normal((n, p)))[0][:, :p]


def test_oracle_entry_checks():
    # The two oracle entry points refuse what they rely on; the penalty kernels check nothing.
    rng = np.random.default_rng(0)
    oracles = (
        lambda y, alpha, sigma: complexity_loss(y, alpha, sigma),
        lambda y, alpha, sigma: descent_check(y, alpha, 0, sigma),
    )
    for oracle in oracles:
        with pytest.raises(PreconditionError):
            oracle(_unit_columns(3, 3, rng), 0.1, 1e-3)  # not under-complete
        with pytest.raises(PreconditionError):
            oracle(2.0 * _unit_columns(4, 2, rng), 0.1, 1e-3)  # columns not unit
        with pytest.raises(PreconditionError):
            oracle(_unit_columns(4, 2, rng), 0.0, 1e-3)
        with pytest.raises(PreconditionError):
            oracle(_unit_columns(4, 2, rng), 0.1, 0.0)
        with pytest.raises(PreconditionError):
            oracle(_unit_columns(4, 2, rng)[:, 0], 0.1, 1e-3)  # not 2-D


def test_ortho_loss_zero_at_orthonormal():
    rng = np.random.default_rng(1)
    assert ortho_loss(_orthonormal(8, 3, rng), 0.1) == pytest.approx(0.0, abs=1e-25)


def test_ortho_loss_identical_columns_analytic():
    col = np.zeros(5)
    col[0] = 1.0
    # Y^T Y - I = [[0, 1], [1, 0]], squared Frobenius norm 2, loss = 0.1/2 * 2
    assert ortho_loss(np.column_stack([col, col]), 0.1) == pytest.approx(0.1, abs=1e-15)


def test_ortho_loss_matches_elementwise_oracle():
    rng = np.random.default_rng(2)
    y = _unit_columns(8, 3, rng)
    gram = np.array([[sum(y[k, i] * y[k, j] for k in range(8)) for j in range(3)] for i in range(3)])
    expected = 0.5 * 0.37 * sum(
        (gram[i, j] - (1.0 if i == j else 0.0)) ** 2 for i in range(3) for j in range(3)
    )
    assert ortho_loss(y, 0.37) == pytest.approx(expected, rel=1e-12)


def test_ortho_grad_zero_at_orthonormal():
    rng = np.random.default_rng(3)
    assert np.max(np.abs(ortho_grad(_orthonormal(6, 2, rng), 0.1))) < 1e-14


def test_ortho_grad_column_identity():
    # Column j of the gradient equals 2 alpha X_j X_j^T y_j (X_j drops column j).
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.choice([4, 8, 16]))
        p = int(rng.integers(2, n))
        y = _unit_columns(n, p, rng)
        grad = ortho_grad(y, 0.1)
        for j in range(p):
            x = np.delete(y, j, axis=1)
            expected = 2.0 * 0.1 * (x @ (x.T @ y[:, j]))
            assert np.max(np.abs(grad[:, j] - expected)) < 1e-12


def test_ortho_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n, p = 6, int(rng.integers(2, 5))
        y = _unit_columns(n, p, rng)
        analytic = ortho_grad(y, 0.1).ravel()

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
    expected = 0.5 * 0.1 * (1.0 / 1.01 + 1.0 / 0.01)
    assert complexity_loss(y, 0.1, sigma=0.1) == pytest.approx(expected, rel=1e-12)


def test_complexity_loss_orthonormal_spectrum():
    rng = np.random.default_rng(7)
    q = _orthonormal(6, 2, rng)
    sigma2 = 1e-4
    expected = 0.5 * 0.1 * (2.0 / (1.0 + sigma2) + 4.0 / sigma2)
    assert complexity_loss(q, 0.1, sigma=np.sqrt(sigma2)) == pytest.approx(expected, rel=1e-12)


def test_complexity_loss_minimized_by_orthonormalization():
    rng = np.random.default_rng(8)
    for sigma in (1e-2, 1e-3, 1e-4):
        for _ in range(100):
            n = int(rng.choice([4, 8, 16]))
            p = int(rng.integers(1, n))
            y = _unit_columns(n, p, rng)
            q = np.linalg.qr(y)[0][:, :p]
            ly = complexity_loss(y, 0.1, sigma)
            lq = complexity_loss(q, 0.1, sigma)
            assert lq <= ly


def test_descent_check_zero_at_orthonormal():
    rng = np.random.default_rng(11)
    assert abs(descent_check(_orthonormal(8, 3, rng), 0.1, 0)) < 1e-8


def test_descent_check_positive_at_45_degrees():
    n = 6
    y1 = np.zeros(n)
    y1[0] = 1.0
    y2 = np.zeros(n)
    y2[0] = y2[1] = np.sqrt(0.5)
    assert descent_check(np.column_stack([y1, y2]), 0.1, 1) > 0.0


def test_descent_check_sweep_nonnegative():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.choice([4, 8, 32]))
        p = int(rng.integers(1, n))
        assert descent_check(_unit_columns(n, p, rng), 0.1, int(rng.integers(p))) >= -1e-8


def test_descent_check_rejects_rank_deficiency():
    col = np.zeros(5)
    col[0] = 1.0
    with pytest.raises(PreconditionError):
        descent_check(np.column_stack([col, col]), 0.1, 0)
