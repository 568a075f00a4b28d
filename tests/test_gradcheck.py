import numpy as np
import pytest

from grassopt import checks, manifold
from grassopt.errors import DimensionError, NumericalError, PreconditionError
from grassopt.gradcheck import fd_gradient, rel_error, riemannian_fd_check


def _unit(n, rng):
    y = rng.standard_normal(n)
    return y / np.linalg.norm(y)


def test_rel_error_definition():
    assert rel_error(2.0, 1.0) == pytest.approx(0.5)
    assert rel_error(0.0, 0.0) == 0.0
    assert rel_error(1e-12, 0.0) == pytest.approx(1e-12 / 1e-8)


def test_fd_gradient_constant_function():
    g = fd_gradient(lambda x: 3.5, np.ones(4))
    assert np.max(np.abs(g)) == 0.0


def test_fd_gradient_quadratic():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(10)
    g = fd_gradient(lambda v: 0.5 * float(v @ v), x, eps=1e-6)
    assert np.max(np.abs(g - x)) < 1e-9


def test_fd_gradient_rejects_non_finite():
    with pytest.raises(NumericalError):
        fd_gradient(lambda v: float("nan"), np.ones(3))


def test_riemannian_check_quadratic_objective():
    rng = np.random.default_rng(1)
    n = 16
    b = rng.standard_normal((n, n))
    a = b + b.T
    y = _unit(n, rng)
    errors = riemannian_fd_check(
        lambda pt: float(pt @ a @ pt),
        lambda pt: 2.0 * (a @ pt),
        y,
        trials=100,
        rng=rng,
    )
    assert errors.max() < 1e-5
    assert errors.shape == (100,)


def test_riemannian_check_flags_wrong_gradient():
    rng = np.random.default_rng(2)
    n = 8
    b = rng.standard_normal((n, n))
    a = b + b.T
    y = _unit(n, rng)
    errors = riemannian_fd_check(
        lambda pt: float(pt @ a @ pt),
        lambda pt: 3.1 * (a @ pt),  # wrong scale
        y,
        trials=20,
        rng=rng,
    )
    assert errors.max() > 1e-5


def test_riemannian_check_orthogonal_direction_derivative_zero():
    # f(y) = (c^T y)^2 with c orthogonal to y: f vanishes identically along
    # geodesics in directions orthogonal to c.
    rng = np.random.default_rng(3)
    n = 6
    y = _unit(n, rng)
    c = manifold.project_columns(y, rng.standard_normal(n))
    c /= np.linalg.norm(c)

    def f(pt):
        return float(c @ pt) ** 2

    v = manifold.project_columns(y, rng.standard_normal(n))
    v_perp_c = v - float(c @ v) * c  # tangent at y and orthogonal to c
    v_perp_c /= np.linalg.norm(v_perp_c)
    manifold.require_tangent(y, v_perp_c)
    t = 1e-6
    y_plus, _ = manifold.geodesic_columns(y, t * v_perp_c)
    y_minus, _ = manifold.geodesic_columns(y, -t * v_perp_c)
    numeric = (f(y_plus) - f(y_minus)) / (2 * t)
    assert abs(numeric) < 1e-9
    analytic = float(manifold.project_columns(y, 2.0 * float(c @ y) * c) @ v_perp_c)
    assert abs(analytic) < 1e-12


def test_riemannian_check_requires_a_unit_vector():
    with pytest.raises(PreconditionError):
        riemannian_fd_check(lambda pt: 0.0, lambda pt: np.zeros(2), np.array([1.0, 1.0]))
    with pytest.raises(DimensionError):
        riemannian_fd_check(lambda pt: 0.0, lambda pt: np.zeros((2, 1)), np.array([[1.0], [0.0]]))


def test_fd_gradient_matches_bn_network_backprop():
    from grassopt.nn import build_mlp
    from grassopt.nn.layers import softmax_ce

    rng = np.random.default_rng(5)
    net = build_mlp(5, (3,), 2, rng)
    x = rng.standard_normal((6, 5))
    labels = rng.integers(0, 2, 6)
    layer = net.layers[0]

    def loss_of_weights(flat):
        saved = layer.W.copy()
        layer.W[...] = flat.reshape(layer.W.shape)
        try:
            logits, _ = net.forward(x, training=True)
            return softmax_ce(logits, labels)[0]
        finally:
            layer.W[...] = saved

    numeric = fd_gradient(loss_of_weights, layer.W.ravel(), eps=1e-6)
    _, grads, _ = net.loss_and_grads(x, labels, training=True)
    analytic = grads[0]["W"].ravel()
    scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-8)
    assert np.max(np.abs(analytic - numeric)) / scale < 1e-4


def test_full_network_objective_release_gate():
    # Rel error < 1e-4 on the training objective at checkpoints of a toy run.
    results = checks.run_gradcheck_suite(seed=0, checkpoints=5)
    by_name = {r.name: r for r in results}
    assert by_name["bn_network_objective"].passed
    assert by_name["quadratic_objective"].worst < 1e-5


def test_network_objective_gradcheck_sees_the_trainers_penalty_gradient(monkeypatch):
    # The check differentiates Trainer.objective, so a wrong penalty gradient in training fails it.
    from grassopt.nn import training

    real_ortho_grad = training.ortho_grad
    monkeypatch.setattr(training, "ortho_grad",
                        lambda y, alpha, gram=None: 3.0 * real_ortho_grad(y, alpha, gram))
    results = checks.run_gradcheck_suite(seed=0, checkpoints=5)
    by_name = {r.name: r for r in results}
    assert not by_name["bn_network_objective"].passed
