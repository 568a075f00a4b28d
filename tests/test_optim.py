import math

import numpy as np
import pytest

from grassopt import manifold
from grassopt.errors import NumericalError, PreconditionError
from grassopt.optim import (
    AdamGHyper,
    EuclideanHyper,
    LrSchedule,
    SgdGHyper,
    adamg_update,
    euclidean_sgd_step,
    schedule_lr,
    sgdg_update,
)


def _unit(n, rng):
    y = rng.standard_normal(n)
    return y / np.linalg.norm(y)


def _angle(y1, y2):
    return float(manifold.angle_columns(y1, y2))


def test_sgdg_zero_gradient_is_fixed_point():
    y = np.array([1.0, 0.0])
    y2, tau2, _ = sgdg_update(y, np.zeros(2), np.zeros(2), 0.2, SgdGHyper(), base=y)
    assert np.array_equal(y2, y)
    assert np.linalg.norm(tau2) == 0.0


def test_sgdg_analytic_single_step():
    y = np.array([1.0, 0.0])
    hyper = SgdGHyper(eta=0.2, gamma=0.9, nu=0.1)
    y2, tau2, _ = sgdg_update(y, np.array([0.0, 1.0]), np.zeros(2), 0.2, hyper, base=y)
    # clipped gradient [0, 0.1], step d = [0, -0.02]
    assert y2 == pytest.approx([math.cos(0.02), -math.sin(0.02)], abs=1e-15)
    assert np.linalg.norm(tau2) == pytest.approx(0.02, abs=1e-15)


def test_sgdg_cumulative_contribution_bound():
    # One gradient's total rotation over subsequent momentum steps is
    # lr * |clipped h| / (1 - gamma) <= 0.2 rad at the defaults.
    hyper = SgdGHyper(eta=0.2, gamma=0.9, nu=0.1)
    assert hyper.eta * hyper.nu / (1.0 - hyper.gamma) == pytest.approx(0.2)
    rng = np.random.default_rng(0)
    y = _unit(16, rng)
    tau = np.zeros(16)
    # single large gradient, then zero gradients: total rotation <= 0.2
    y_start = y
    total = 0.0
    y, tau, _ = sgdg_update(y, 50.0 * rng.standard_normal(16), tau, 0.2, hyper, base=y)
    total += _angle(y_start, y)
    for _ in range(300):
        prev = y
        y, tau, _ = sgdg_update(y, np.zeros(16), tau, 0.2, hyper, base=y)
        total += _angle(prev, y)
    assert total <= 0.2 + 1e-12
    assert total == pytest.approx(0.2, rel=1e-6)  # geometric series actually attains it


def test_sgdg_per_step_rotation_bound():
    rng = np.random.default_rng(1)
    y = _unit(8, rng)
    tau = np.zeros(8)
    hyper = SgdGHyper()
    lr = 0.2
    for _ in range(200):
        tau_norm = float(np.linalg.norm(tau))
        prev = y
        y, tau, _ = sgdg_update(y, rng.standard_normal(8) * 3.0, tau, lr, hyper, base=y)
        assert _angle(prev, y) <= hyper.gamma * tau_norm + lr * hyper.nu + 1e-12


def test_sgdg_rejects_non_finite_gradient():
    y = np.array([1.0, 0.0])
    with pytest.raises(NumericalError):
        sgdg_update(y, np.array([np.nan, 0.0]), np.zeros(2), 0.1, SgdGHyper(), base=y)


def test_sgdg_scale_invariance_unclipped_direction():
    rng = np.random.default_rng(2)
    y = _unit(6, rng)
    g = rng.standard_normal(6) * 0.01  # small enough that no clipping occurs
    hyper = SgdGHyper(nu=0.1)
    y1, _, _ = sgdg_update(y, g, np.zeros(6), 0.2, hyper, base=y)
    y2, _, _ = sgdg_update(y, 3.0 * g, np.zeros(6), 0.2, hyper, base=y)
    # same geodesic: both new points lie in span{y, h} on the same side
    h = manifold.project_columns(y, g)
    u = h / np.linalg.norm(h)
    for moved in (y1, y2):
        residual = moved - float(y @ moved) * y - float(u @ moved) * u
        assert np.max(np.abs(residual)) < 1e-12


def test_sgdg_scale_invariance_clipped_identical():
    rng = np.random.default_rng(3)
    y = _unit(6, rng)
    g = rng.standard_normal(6)  # |projection| >> nu, clipping active
    hyper = SgdGHyper(nu=0.1)
    y1, _, _ = sgdg_update(y, g, np.zeros(6), 0.2, hyper, base=y)
    for c in (2.0, 17.5, 1e6):
        y2, _, _ = sgdg_update(y, c * g, np.zeros(6), 0.2, hyper, base=y)
        assert np.max(np.abs(y1 - y2)) < 1e-12


def test_sgdg_rayleigh_descent_oracle():
    # Exact-gradient descent of f(y) = y^T A y reaches the smallest eigenvalue.
    rng = np.random.default_rng(4)
    for _ in range(5):
        eigvals = np.concatenate([[0.0], rng.uniform(3.0, 10.0, 7)])
        q = np.linalg.qr(rng.standard_normal((8, 8)))[0]
        a = q @ np.diag(eigvals) @ q.T
        oracle_min = float(np.linalg.eigvalsh(a).min())
        y = _unit(8, rng)
        tau = np.zeros(8)
        hyper = SgdGHyper(eta=0.01, gamma=0.0, nu=1e6)
        for _ in range(200):
            y, tau, _ = sgdg_update(y, 2.0 * (a @ y), tau, 0.01, hyper, base=y)
        assert float(y @ a @ y) - oracle_min < 1e-6


def test_adamg_zero_gradient_never_moves():
    y = np.array([0.0, 1.0])
    tau, v = np.zeros(2), 0.0
    for t in range(10):
        y2, tau, v, _ = adamg_update(y, np.zeros(2), tau, v, t, 0.05, AdamGHyper(), base=y)
        assert np.array_equal(y2, y)
        y = y2
    assert v == 0.0
    assert np.linalg.norm(tau) == 0.0


def test_adamg_first_step_algebra():
    # t=1 closed form: m1 = (1-b1) h, v1 = (1-b2)|h|^2, |d| <= lr (1-b1)/sqrt(1-b2) = lr.
    rng = np.random.default_rng(5)
    y = _unit(10, rng)
    hyper = AdamGHyper(eta=0.05, beta1=0.9, beta2=0.99, nu=0.1)
    g = rng.standard_normal(10)
    h_hat, _ = manifold.clip_columns(manifold.project_columns(y, g), hyper.nu)
    lr = 0.05
    eta_1 = lr * math.sqrt(1.0 - hyper.beta2) / (1.0 - hyper.beta1)
    m1 = 0.1 * h_hat
    v1 = 0.01 * float(h_hat @ h_hat)
    d_norm = eta_1 * np.linalg.norm(m1) / math.sqrt(v1 + hyper.epsilon)
    y2, _, v2, _ = adamg_update(y, g, np.zeros(10), 0.0, 0, lr, hyper, base=y)
    assert v2 == pytest.approx(v1, rel=1e-12)
    assert _angle(y, y2) == pytest.approx(d_norm, abs=1e-12)
    assert d_norm <= lr * (1.0 - hyper.beta1) / math.sqrt(1.0 - hyper.beta2) + 1e-12


def test_adamg_norm_bound_over_run():
    rng = np.random.default_rng(6)
    y = _unit(16, rng)
    tau, v = np.zeros(16), 0.0
    lr = 0.05
    max_step = 0.0
    for t in range(2000):
        scale = 10.0 ** rng.uniform(-3, 2)  # stress bursts and lulls
        prev = y
        y, tau, v, _ = adamg_update(y, scale * rng.standard_normal(16), tau, v, t, lr,
                                    AdamGHyper(), base=y)
        max_step = max(max_step, _angle(prev, y))
    assert max_step <= lr + 1e-6


def test_unit_norm_and_tangency_persist():
    rng = np.random.default_rng(7)
    y = _unit(32, rng)
    tau = np.zeros(32)
    for _ in range(2000):
        y, tau, _ = sgdg_update(y, rng.standard_normal(32), tau, 0.2, SgdGHyper(), base=y)
    assert abs(np.linalg.norm(y) - 1.0) < 1e-9
    assert abs(float(y @ tau)) < 1e-9 * (1.0 + np.linalg.norm(tau))


def test_euclidean_fixed_point_without_decay():
    w = np.array([1.0, -2.0])
    w2, _ = euclidean_sgd_step(w, np.zeros(2), np.zeros(2), 0.1, EuclideanHyper(weight_decay=0.0))
    assert np.array_equal(w2, w)


def test_euclidean_weight_decay_effective_gradient():
    # With zero gradient, zero velocity and no momentum, one step moves by lr * wd * w.
    w = np.array([4.0, -8.0])
    hyper = EuclideanHyper(momentum=0.0, weight_decay=0.0005, nesterov=False)
    w2, v2 = euclidean_sgd_step(w, np.zeros(2), np.zeros(2), 0.1, hyper)
    assert v2 == pytest.approx(0.0005 * w, abs=1e-18)
    assert w2 == pytest.approx(w - 0.1 * 0.0005 * w, abs=1e-18)


def test_euclidean_decay_flag_disables_term():
    w = np.array([4.0, -8.0])
    hyper = EuclideanHyper(momentum=0.0, weight_decay=0.0005, nesterov=False)
    w2, _ = euclidean_sgd_step(w, np.zeros(2), np.zeros(2), 0.1, hyper, apply_weight_decay=False)
    assert np.array_equal(w2, w)


def _scalar_recurrence_oracle(momentum, nesterov, lr, steps):
    # independent plain-float recurrence for f(w) = |w|^2/2 from w0 = 1
    w, v = 1.0, 0.0
    trajectory = []
    for _ in range(steps):
        g = w
        v = momentum * v + g
        update = g + momentum * v if nesterov else v
        w = w - lr * update
        trajectory.append(w)
    return trajectory


def test_euclidean_matches_scalar_recurrence_oracle():
    hyper = EuclideanHyper(momentum=0.9, weight_decay=0.0, nesterov=True)
    w = np.array([1.0])
    v = np.zeros(1)
    for expected in _scalar_recurrence_oracle(0.9, True, 0.1, 100):
        w, v = euclidean_sgd_step(w, w.copy(), v, 0.1, hyper)
        assert w[0] == expected
    assert 0.5 * w[0] ** 2 < 1e-6  # converged


def test_euclidean_monotone_descent_without_momentum():
    # With momentum the quadratic trajectory oscillates; plain gradient steps
    # decrease f monotonically.
    hyper = EuclideanHyper(momentum=0.0, weight_decay=0.0, nesterov=False)
    w = np.array([1.0])
    v = np.zeros(1)
    previous = 0.5 * float(w @ w)
    for _ in range(100):
        w, v = euclidean_sgd_step(w, w.copy(), v, 0.1, hyper)
        current = 0.5 * float(w @ w)
        assert current < previous
        previous = current


def test_schedule_milestone_decay():
    sched = LrSchedule(0.1, (60, 120, 160), 0.2)
    assert schedule_lr(sched, 0) == pytest.approx(0.1)
    assert schedule_lr(sched, 59) == pytest.approx(0.1)
    assert schedule_lr(sched, 60) == pytest.approx(0.02)
    assert schedule_lr(sched, 199) == pytest.approx(0.1 * 0.2**3)


def test_schedule_validation():
    with pytest.raises(PreconditionError):
        LrSchedule(0.1, (60, 60), 0.2)
    with pytest.raises(PreconditionError):
        LrSchedule(0.1, (60,), 0.0)
    with pytest.raises(PreconditionError):
        schedule_lr(LrSchedule(0.1), -1)


def test_hyper_validation():
    with pytest.raises(PreconditionError):
        SgdGHyper(gamma=1.0)
    with pytest.raises(PreconditionError):
        AdamGHyper(nu=0.0)
    with pytest.raises(PreconditionError):
        EuclideanHyper(momentum=1.0)
