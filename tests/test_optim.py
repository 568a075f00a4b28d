import dataclasses
import math
import warnings

import numpy as np
import pytest

import update_oracle
from grassopt import manifold
from grassopt.errors import DimensionError, NumericalError, PreconditionError
from grassopt.optim import (
    AdamGHyper,
    EuclideanHyper,
    LrSchedule,
    SgdGHyper,
    adamg_step,
    euclidean_sgd_step,
    schedule_lr,
    sgdg_step,
)


def _unit(n, rng):
    y = rng.standard_normal(n)
    return y / np.linalg.norm(y)


def _angle(y1, y2):
    return float(manifold.angle_columns(y1, y2))


def test_sgdg_zero_gradient_is_fixed_point():
    y = np.array([1.0, 0.0])
    y2, tau2, _ = sgdg_step(y, np.zeros(2), np.zeros(2), 0.2, SgdGHyper(), base=y)
    assert np.array_equal(y2, y)
    assert np.linalg.norm(tau2) == 0.0


def test_sgdg_analytic_single_step():
    y = np.array([1.0, 0.0])
    hyper = SgdGHyper(gamma=0.9, nu=0.1)
    y2, tau2, _ = sgdg_step(y, np.array([0.0, 1.0]), np.zeros(2), 0.2, hyper, base=y)
    # clipped gradient [0, 0.1], step d = [0, -0.02]
    assert y2 == pytest.approx([math.cos(0.02), -math.sin(0.02)], abs=1e-15)
    assert np.linalg.norm(tau2) == pytest.approx(0.02, abs=1e-15)


def test_sgdg_cumulative_contribution_bound():
    # One gradient's total rotation over subsequent momentum steps is
    # lr * |clipped h| / (1 - gamma) <= 0.2 rad at the defaults.
    hyper = SgdGHyper(gamma=0.9, nu=0.1)
    assert 0.2 * hyper.nu / (1.0 - hyper.gamma) == pytest.approx(0.2)
    rng = np.random.default_rng(0)
    y = _unit(16, rng)
    tau = np.zeros(16)
    # single large gradient, then zero gradients: total rotation <= 0.2
    y_start = y
    total = 0.0
    y, tau, _ = sgdg_step(y, 50.0 * rng.standard_normal(16), tau, 0.2, hyper, base=y)
    total += _angle(y_start, y)
    for _ in range(300):
        prev = y
        y, tau, _ = sgdg_step(y, np.zeros(16), tau, 0.2, hyper, base=y)
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
        y, tau, _ = sgdg_step(y, rng.standard_normal(8) * 3.0, tau, lr, hyper, base=y)
        assert _angle(prev, y) <= hyper.gamma * tau_norm + lr * hyper.nu + 1e-12


def _update(optimizer, g, tau=None, lr=0.1, v=0.0, t=0, y=None, base=None):
    """One step at a fixed unit point of R^3, or at ``y``, with every warning raised as an error.
    ``base`` defaults to ``y`` itself."""
    y = np.array([0.6, 0.8, 0.0]) if y is None else y
    tau = np.zeros(y.shape) if tau is None else tau
    base = y if base is None else base
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if optimizer == "sgd-g":
            return sgdg_step(y, g, tau, lr, SgdGHyper(), base)
        return adamg_step(y, g, tau, v, t, lr, AdamGHyper(), base)


def _step_inputs(seed):
    """``(y, g, tau, base, v)`` for a 4x3 point: a tangent momentum, ``base`` a copy of ``y``."""
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((4, 3))
    y /= np.linalg.norm(y, axis=0)
    tau = manifold.project_columns(y, 0.1 * rng.standard_normal((4, 3)))
    return y, rng.standard_normal((4, 3)), tau, y.copy(), np.full(3, 0.01)


def test_sgdg_rejects_non_finite_gradient():
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(NumericalError, match="non-finite gradient"):
            _update("sgd-g", np.array([value, 0.0, 1.0]))


def test_adamg_rejects_non_finite_gradient():
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(NumericalError, match="non-finite gradient"):
            _update("adam-g", np.array([value, 0.0, 1.0]))


@pytest.mark.parametrize("optimizer", ["sgd-g", "adam-g"])
def test_updates_refuse_a_momentum_that_is_not_tangent(optimizer):
    # SGD-G's step d and Adam-G's first moment m blend the momentum with a tangent gradient,
    # so the tangency check of d, or of m, covers tau.
    blend = "step" if optimizer == "sgd-g" else "momentum"
    with pytest.raises(PreconditionError, match=f"{blend} is not tangent"):
        _update(optimizer, np.array([0.0, 0.0, 1.0]), tau=0.5 * np.array([0.6, 0.8, 0.0]))


@pytest.mark.parametrize("optimizer", ["sgd-g", "adam-g"])
@pytest.mark.parametrize("lr", [0.0, 1e-12])
def test_updates_refuse_a_momentum_that_is_not_tangent_at_a_zero_or_tiny_rate(optimizer, lr):
    # Adam-G scales its step d by lr, so only the check of m sees tau's error at such a rate.
    y, g, _, _, v = _step_inputs(46)
    tau = 0.5 * y
    before = _bytes([y, tau, v])
    with pytest.raises(PreconditionError, match="not tangent"):
        _update(optimizer, g, tau=tau, lr=lr, v=v, y=y)
    assert _bytes([y, tau, v]) == before


@pytest.mark.parametrize("shape", [(1,), (4,), ()])
def test_adamg_refuses_second_moments_of_another_shape(shape):
    # One second moment per column of the 4x3 point; a (1,) v would broadcast silently to (3,).
    y, g, tau, base, _ = _step_inputs(47)
    v = np.full(shape, 0.01)
    before = _bytes([y, tau, base, v])
    with pytest.raises(DimensionError, match="second moments"):
        _update("adam-g", g, tau=tau, v=v, y=y, base=base)
    assert _bytes([y, tau, base, v]) == before


_UNWRITABLE_GRADIENTS = {
    "readonly": lambda y, g, tau, base, v: (y, np.broadcast_to(g, g.shape), tau, base, v),
    "float32": lambda y, g, tau, base, v: (y, g.astype(np.float32), tau, base, v),
    "list": lambda y, g, tau, base, v: (y, g.tolist(), tau, base, v),
    "aliased_point": lambda y, g, tau, base, v: (y, y, tau, base, v),
    "overlapping_point": lambda y, g, tau, base, v: (y, y[::-1], tau, base, v),
    "aliased_momentum": lambda y, g, tau, base, v: (y, tau, tau, base, v),
    "aliased_base": lambda y, g, tau, base, v: (y, base, tau, base, v),
    "aliased_second_moments": lambda y, g, tau, base, v: (y, g, tau, base, g[0]),
}


@pytest.mark.parametrize("optimizer, case", [
    (optimizer, case) for optimizer in ("sgd-g", "adam-g") for case in _UNWRITABLE_GRADIENTS
    if optimizer == "adam-g" or case != "aliased_second_moments"  # SGD-G has no v
])
def test_steps_refuse_a_gradient_they_cannot_write(optimizer, case):
    # A step writes its gradient, so it refuses one that is not its own float64 buffer
    # before it writes anything.
    y, g, tau, base, v = args = _UNWRITABLE_GRADIENTS[case](*_step_inputs(48))
    before = _bytes(args)
    with pytest.raises(PreconditionError, match="gradient must"):
        _update(optimizer, g, tau=tau, v=v, y=y, base=base)
    assert _bytes(args) == before


@pytest.mark.parametrize("optimizer", ["sgd-g", "adam-g"])
def test_step_returns_its_gradient_buffer_as_the_new_momentum(optimizer):
    y, g, tau, base, v = _step_inputs(49)
    before = _bytes([y, tau, base, v])
    assert _update(optimizer, g, tau=tau, v=v, y=y, base=base)[1] is g
    assert _bytes([y, tau, base, v]) == before


@pytest.mark.parametrize("optimizer", ["sgd-g", "adam-g"])
@pytest.mark.parametrize("lr", [-0.1, math.inf, math.nan])
def test_updates_refuse_a_rate_that_is_negative_or_not_finite(optimizer, lr):
    with pytest.raises(PreconditionError, match="learning rate must be nonnegative and finite"):
        _update(optimizer, np.array([0.0, 0.0, 1.0]), lr=lr)


@pytest.mark.parametrize("optimizer", ["sgd-g", "adam-g"])
@pytest.mark.parametrize("name", ["y", "tau"])
def test_steps_refuse_a_point_or_momentum_that_is_not_an_array(optimizer, name):
    # A list has no shape: the step names it before any arithmetic, not with an AttributeError.
    y, g, tau, base, v = _step_inputs(50)
    inputs = {"y": y, "tau": tau}
    inputs[name] = inputs[name].tolist()
    args = (inputs["y"], g, inputs["tau"], base, v)
    before = _bytes(args)
    what = "point y" if name == "y" else "momentum tau"
    with pytest.raises(PreconditionError, match=f"{what} must be a numpy array, got list"):
        _update(optimizer, g, tau=inputs["tau"], v=v, y=inputs["y"], base=base)
    assert _bytes(args) == before


@pytest.mark.parametrize("v, t, message", [
    (-1.0, 3, "second moments must be nonnegative and finite"),
    (math.nan, 3, "second moments must be nonnegative and finite"),
    (math.inf, 3, "second moments must be nonnegative and finite"),
    (0.0, -1, "step count must be nonnegative"),
], ids=["v-negative", "v-nan", "v-inf", "t-negative"])
def test_adamg_refuses_state_that_is_out_of_range(v, t, message):
    with pytest.raises(PreconditionError, match=message):
        _update("adam-g", np.array([0.0, 0.0, 1.0]), v=v, t=t)


def test_sgdg_scale_invariance_unclipped_direction():
    rng = np.random.default_rng(2)
    y = _unit(6, rng)
    g = rng.standard_normal(6) * 0.01  # small enough that no clipping occurs
    hyper = SgdGHyper(nu=0.1)
    y1, _, _ = sgdg_step(y, g.copy(), np.zeros(6), 0.2, hyper, base=y)
    y2, _, _ = sgdg_step(y, 3.0 * g, np.zeros(6), 0.2, hyper, base=y)
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
    y1, _, _ = sgdg_step(y, g.copy(), np.zeros(6), 0.2, hyper, base=y)
    for c in (2.0, 17.5, 1e6):
        y2, _, _ = sgdg_step(y, c * g, np.zeros(6), 0.2, hyper, base=y)
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
        hyper = SgdGHyper(gamma=0.0, nu=1e6)
        for _ in range(200):
            y, tau, _ = sgdg_step(y, 2.0 * (a @ y), tau, 0.01, hyper, base=y)
        assert float(y @ a @ y) - oracle_min < 1e-6


def test_adamg_zero_gradient_never_moves():
    y = np.array([0.0, 1.0])
    tau, v = np.zeros(2), 0.0
    for t in range(10):
        y2, tau, v, _ = adamg_step(y, np.zeros(2), tau, v, t, 0.05, AdamGHyper(), base=y)
        assert np.array_equal(y2, y)
        y = y2
    assert v == 0.0
    assert np.linalg.norm(tau) == 0.0


def test_adamg_first_step_algebra():
    # t=1 closed form: m1 = (1-b1) h, v1 = (1-b2)|h|^2, |d| <= lr (1-b1)/sqrt(1-b2) = lr.
    rng = np.random.default_rng(5)
    y = _unit(10, rng)
    hyper = AdamGHyper(beta1=0.9, beta2=0.99, nu=0.1)
    g = rng.standard_normal(10)
    h_hat, _ = manifold.clip_columns(manifold.project_columns(y, g), hyper.nu)
    lr = 0.05
    eta_1 = lr * math.sqrt(1.0 - hyper.beta2) / (1.0 - hyper.beta1)
    m1 = 0.1 * h_hat
    v1 = 0.01 * float(h_hat @ h_hat)
    d_norm = eta_1 * np.linalg.norm(m1) / math.sqrt(v1 + hyper.epsilon)
    y2, _, v2, _ = adamg_step(y, g, np.zeros(10), 0.0, 0, lr, hyper, base=y)
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
        y, tau, v, _ = adamg_step(y, scale * rng.standard_normal(16), tau, v, t, lr,
                                  AdamGHyper(), base=y)
        max_step = max(max_step, _angle(prev, y))
    assert max_step <= lr + 1e-6


def test_unit_norm_and_tangency_persist():
    rng = np.random.default_rng(7)
    y = _unit(32, rng)
    tau = np.zeros(32)
    for _ in range(2000):
        y, tau, _ = sgdg_step(y, rng.standard_normal(32), tau, 0.2, SgdGHyper(), base=y)
    assert abs(np.linalg.norm(y) - 1.0) < 1e-9
    assert abs(float(y @ tau)) < 1e-9 * (1.0 + np.linalg.norm(tau))


def test_euclidean_fixed_point_without_decay():
    w = np.array([1.0, -2.0])
    before = w.copy()
    euclidean_sgd_step([w], [np.zeros(2)], [np.zeros(2)], 0.1, EuclideanHyper(weight_decay=0.0), [True])
    assert np.array_equal(w, before)


def test_euclidean_weight_decay_effective_gradient():
    # With zero gradient, zero velocity and no momentum, one step moves by lr * wd * w.
    w = np.array([4.0, -8.0])
    before = w.copy()
    hyper = EuclideanHyper(momentum=0.0, weight_decay=0.0005, nesterov=False)
    v = np.zeros(2)
    euclidean_sgd_step([w], [np.zeros(2)], [v], 0.1, hyper, [True])
    assert v == pytest.approx(0.0005 * before, abs=1e-18)
    assert w == pytest.approx(before - 0.1 * 0.0005 * before, abs=1e-18)
    assert not np.array_equal(w, before)


def test_euclidean_decay_flag_disables_term():
    w = np.array([4.0, -8.0])
    before = w.copy()
    hyper = EuclideanHyper(momentum=0.0, weight_decay=0.0005, nesterov=False)
    euclidean_sgd_step([w], [np.zeros(2)], [np.zeros(2)], 0.1, hyper, [False])
    assert np.array_equal(w, before)


def _out_of_place_euclidean_step(w, g, velocity, lr, hyper, decay):
    # The step on one parameter as it was written before it worked in place: fresh arrays at every pass.
    if decay and hyper.weight_decay != 0.0:
        g = g + hyper.weight_decay * w
    v = hyper.momentum * velocity + g
    update = g + hyper.momentum * v if hyper.nesterov else v
    return w - lr * update, v


_ORACLE_SHAPES = [(784, 256), (1000, 200), (10,)]


@pytest.mark.parametrize("nesterov", [True, False])
@pytest.mark.parametrize("decay", ["on", "off", "zero"])
@pytest.mark.parametrize("shape", _ORACLE_SHAPES + [_ORACLE_SHAPES])  # the last: one group of all three
def test_euclidean_in_place_matches_out_of_place_oracle(nesterov, decay, shape):
    rng = np.random.default_rng(41)
    hyper = EuclideanHyper(momentum=0.9, weight_decay=0.0 if decay == "zero" else 0.0005,
                           nesterov=nesterov)
    shapes = shape if isinstance(shape, list) else [shape]
    flags = [(decay != "off") != (i % 2 == 1) for i in range(len(shapes))]  # a group mixes them
    ws = [rng.standard_normal(s) for s in shapes]
    velocities = [np.zeros(s) for s in shapes]
    refs = [(w.copy(), v.copy()) for w, v in zip(ws, velocities)]
    for step in range(4):
        gs = [rng.standard_normal(s) for s in shapes]
        gs_before = [g.copy() for g in gs]
        lr = 0.01 * (step + 1)
        refs = [_out_of_place_euclidean_step(w_ref, g.copy(), v_ref, lr, hyper, flag)
                for (w_ref, v_ref), g, flag in zip(refs, gs, flags)]
        assert euclidean_sgd_step(ws, gs, velocities, lr, hyper, flags) is None
        for w, velocity, g, g_before, (w_ref, v_ref), flag in zip(ws, velocities, gs, gs_before, refs, flags):
            assert w.tobytes() == w_ref.tobytes()
            assert velocity.tobytes() == v_ref.tobytes()
            if not (flag and hyper.weight_decay != 0.0):
                assert g.tobytes() == g_before.tobytes()


@pytest.mark.parametrize(
    "make",
    [
        lambda w, g, v: (w.astype(np.float32), g, v),
        lambda w, g, v: (w, g, v.astype(np.float32)),
        lambda w, g, v: (w, g, v.tolist()),
        lambda w, g, v: (w, g, np.broadcast_to(0.0, w.shape)),
        lambda w, g, v: (w, np.broadcast_to(1.0, w.shape), v),
        lambda w, g, v: (w, g, w),
        lambda w, g, v: (w, w, v),
    ],
    ids=["float32_param", "float32_velocity", "list_velocity", "readonly_velocity",
         "readonly_gradient", "aliased_velocity", "aliased_gradient"],
)
def test_euclidean_refuses_unwritable_state_before_writing(make):
    w, g, velocity = make(np.array([1.0, -2.0]), np.ones(2), np.array([0.5, 0.25]))
    before = [np.array(a, copy=True).tobytes() for a in (w, g, velocity)]
    with pytest.raises(PreconditionError):
        euclidean_sgd_step([w], [g], [velocity], 0.1, EuclideanHyper(), [True])
    assert [np.array(a, copy=True).tobytes() for a in (w, g, velocity)] == before


def test_euclidean_refuses_non_finite_gradient_before_writing():
    w, velocity, g = np.array([1.0, -2.0]), np.array([0.5, 0.25]), np.array([1.0, np.inf])
    with pytest.raises(NumericalError):
        euclidean_sgd_step([w], [g], [velocity], 0.1, EuclideanHyper(), [True])
    assert w.tolist() == [1.0, -2.0] and velocity.tolist() == [0.5, 0.25]
    assert g.tolist() == [1.0, np.inf]  # the decay term is not added either


def _euclidean_group(seed):
    """``(params, grads, velocities)``: three parameters of different shapes with nonzero velocities."""
    rng = np.random.default_rng(seed)
    shapes = [(5, 3), (3,), (2, 2, 2)]
    return tuple([rng.standard_normal(s) for s in shapes] for _ in range(3))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_euclidean_group_with_a_non_finite_last_gradient_is_not_written(value):
    # The step checks every parameter before it writes any: the first two stay as they were too.
    params, grads, velocities = _euclidean_group(51)
    grads[-1][0] = value
    before = _bytes(params + grads + velocities)
    with warnings.catch_warnings(), pytest.raises(NumericalError, match="non-finite gradient"):
        warnings.simplefilter("error")
        euclidean_sgd_step(params, grads, velocities, 0.1, EuclideanHyper(), [True, True, True])
    assert _bytes(params + grads + velocities) == before


@pytest.mark.parametrize("short", ["params", "grads", "velocities", "decay"])
def test_euclidean_refuses_sequences_of_unequal_length(short):
    params, grads, velocities = _euclidean_group(52)
    args = {"params": params, "grads": grads, "velocities": velocities, "decay": [True, False, True]}
    args[short] = args[short][:-1]
    before = _bytes(params + grads + velocities)
    with pytest.raises(PreconditionError, match="must have one length"):
        euclidean_sgd_step(args["params"], args["grads"], args["velocities"], 0.1, EuclideanHyper(),
                           args["decay"])
    assert _bytes(params + grads + velocities) == before


@pytest.mark.parametrize("lr", [-1.0, math.inf, math.nan])
def test_euclidean_refuses_a_rate_that_is_negative_or_not_finite(lr):
    params, grads, velocities = _euclidean_group(53)
    before = _bytes(params + grads + velocities)
    with warnings.catch_warnings(), pytest.raises(PreconditionError,
                                                  match="learning rate must be nonnegative and finite"):
        warnings.simplefilter("error")
        euclidean_sgd_step(params, grads, velocities, lr, EuclideanHyper(), [True, True, True])
    assert _bytes(params + grads + velocities) == before


@pytest.mark.parametrize("share", ["parameter_twice", "velocity_twice", "gradient_is_a_parameter",
                                   "overlapping_views"])
def test_euclidean_refuses_a_group_whose_arrays_share_a_buffer(share):
    # Each parameter alone passes its checks, but the group would write one buffer twice.
    rng = np.random.default_rng(54)
    params, grads, velocities = ([rng.standard_normal(3) for _ in range(2)] for _ in range(3))
    if share == "parameter_twice":
        params[1] = params[0]
    elif share == "velocity_twice":
        velocities[1] = velocities[0]
    elif share == "gradient_is_a_parameter":
        grads[1] = params[0]
    else:
        buffer = rng.standard_normal(4)
        params = [buffer[:3], buffer[1:]]
    before = _bytes(params + grads + velocities)
    with pytest.raises(PreconditionError, match="no two arrays of a Euclidean group may share a buffer"):
        euclidean_sgd_step(params, grads, velocities, 0.1, EuclideanHyper(), [True, True])
    assert _bytes(params + grads + velocities) == before


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
        euclidean_sgd_step([w], [w.copy()], [v], 0.1, hyper, [True])
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
        euclidean_sgd_step([w], [w.copy()], [v], 0.1, hyper, [True])
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


def test_oracle_shapes_end_in_a_partial_row_block():
    # The updates run their elementwise chains over row blocks; 1000x200 ends in a short one.
    lengths = [scratch.shape[0] for _, scratch in manifold._row_blocks((1000, 200))]
    assert len(lengths) > 1 and lengths[-1] < lengths[0]


def _bytes(arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def _oracle_gradient(y, kinds, step, pool, rng):
    """A gradient whose columns move (kind 0), are zero (1) or lie along ``y`` (2); all are zero
    for the first 10 steps, so that columns without momentum take degenerate steps. Moving
    columns draw from ``pool`` at a fresh scale per column, clipped or not."""
    if step < 10:
        return np.zeros(y.shape)
    g = pool[step % len(pool)] * 10.0 ** rng.uniform(-4.0, 1.0, y.shape[1:])
    g[..., kinds == 1] = 0.0
    g[..., kinds == 2] = y[..., kinds == 2] * rng.standard_normal(np.count_nonzero(kinds == 2))
    return g


@pytest.mark.parametrize("optimizer", ["sgd-g", "adam-g"])
@pytest.mark.parametrize("shape", [(20000,), (3000, 1), (784, 256), (1000, 200)])
def test_updates_match_out_of_place_oracle_bytes(optimizer, shape):
    # The step works in its gradient's buffer and in row blocks; the bytes of every output
    # must stay those of the old out-of-place update over a chained run.
    rng = np.random.default_rng(44)
    y = rng.standard_normal(shape)
    y /= np.linalg.norm(y, axis=0)
    tau, v = np.zeros(shape), np.zeros(shape[1:])
    kinds = rng.integers(0, 3, shape[1:]) if len(shape) == 2 and shape[1] > 1 else np.zeros(shape[1:], int)
    sgdg, adamg = SgdGHyper(), AdamGHyper()
    y0, pool = y, rng.standard_normal((3,) + shape)
    for step in range(300):
        g = _oracle_gradient(y, kinds, step, pool, rng)
        if optimizer == "sgd-g":
            args = (y, g, tau, 0.2, sgdg, y)
            oracle, program = update_oracle.sgdg_update, sgdg_step
        else:
            args = (y, g, tau, v, step, 0.05, adamg, y)
            oracle, program = update_oracle.adamg_update, adamg_step
        want = _bytes(oracle(*args))
        got = program(*args)  # consumes g
        assert _bytes(got) == want, step
        if step < 10:
            assert got[0].tobytes() == y.tobytes()
        y, tau = got[0], got[1]
        if optimizer == "adam-g":
            v = got[2]
    assert np.array_equal(y[..., kinds == 1], y0[..., kinds == 1])  # zero gradient, no momentum
    assert not np.array_equal(y[..., kinds == 0], y0[..., kinds == 0])


@pytest.mark.parametrize("cls", [SgdGHyper, AdamGHyper, EuclideanHyper])
def test_hypers_hold_no_rate(cls):
    # the rate belongs to the schedule; an update takes it as ``lr``
    with pytest.raises(TypeError):
        cls(eta=0.2)


@pytest.mark.parametrize("epsilon", [0.0, -1.0])
def test_adamg_refuses_nonpositive_epsilon(epsilon):
    with pytest.raises(PreconditionError, match="epsilon must be positive"):
        AdamGHyper(epsilon=epsilon)


def _two_steps(hyper):
    """Bytes of every output of two public steps of ``hyper``'s update on a fixed input. The
    gradient's column norms run from 0.01 to 10, so the clip binds on some columns only."""
    rng = np.random.default_rng(45)
    y = rng.standard_normal((6, 4))
    y /= np.linalg.norm(y, axis=0)
    g = rng.standard_normal((6, 4)) * np.array([0.01, 0.05, 1.0, 10.0])
    tau, v, out = np.zeros_like(y), np.zeros(4), []
    for t in range(2):
        if isinstance(hyper, SgdGHyper):
            y, tau, h_norm = sgdg_step(y, g.copy(), tau, 0.2, hyper, base=y)
            out += [y, tau, h_norm]
        elif isinstance(hyper, AdamGHyper):
            y, tau, v, h_norm = adamg_step(y, g.copy(), tau, v, t, 0.05, hyper, base=y)
            out += [y, tau, v, h_norm]
        else:
            y, tau = y.copy(), tau.copy()
            euclidean_sgd_step([y], [g.copy()], [tau], 0.01, hyper, [True])
            out += [y, tau]
    return [a.tobytes() for a in out]


@pytest.mark.parametrize("cls, name", [
    (cls, f.name) for cls in (SgdGHyper, AdamGHyper, EuclideanHyper) for f in dataclasses.fields(cls)
])
def test_no_optimizer_setting_is_ignored(cls, name):
    default = getattr(cls(), name)
    changed = dataclasses.replace(cls(), **{name: (not default) if isinstance(default, bool) else default / 2})
    assert _two_steps(changed) != _two_steps(cls())
