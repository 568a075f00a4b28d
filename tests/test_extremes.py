"""Gradients of extreme scale: a Grassmann step is the one the clip promises, or it is refused.

Seeded sweeps over per-column gradient scales from 0 and 1e-300 to 1e300,
gradients parallel to the point, n = 2 and p = 1, steps around
``DEGENERATE_STEP`` and steps longer than pi. Each call either returns unit
columns, tangent momenta and a step of the promised length, or raises
``NumericalError`` without writing anything. Step lengths are measured as the
chord ``|y' - y|`` per column, which equals ``2 sin(|d|/2)`` for a geodesic
step ``d``; ``angle_columns`` cannot resolve steps far below 1e-8 rad.
"""

import numpy as np
import pytest

from grassopt import manifold, optim
from grassopt.errors import NumericalError
from grassopt.nn import Trainer, build_mlp

SCALES = (0.0, 1e-300, 1e-200, 1e-160, 1e-100, 1e-12, 1e-11, 1.0, 1e12, 1e100, 1e150, 1e160, 1e200, 1e300)
OVERFLOW = np.sqrt(np.finfo(np.float64).max)  # about 1.34e154: a larger column norm squares to inf
SHAPES = ((2, 1), (3, 2), (50, 4))
LRS = (0.1, 40.0)  # 40 * nu = 4 > pi


def _unit_columns(n, p, rng):
    y = rng.standard_normal((n, p))
    return y / np.linalg.norm(y, axis=0)


def _norms(a):
    """Column norms that neither overflow nor underflow: each column is scaled by its largest entry."""
    s = np.max(np.abs(a), axis=0)
    return s * np.linalg.norm(a / np.where(s > 0.0, s, 1.0), axis=0)


def _clipped(y, g, nu):
    """``(h', |h|)``: the tangent part of ``g`` with each column norm capped at ``nu``, without overflow."""
    s = np.max(np.abs(g), axis=0)
    s = np.where(s > 0.0, s, 1.0)
    hs = g / s
    hs -= y * np.einsum("ij,ij->j", y, hs)
    nhs = np.linalg.norm(hs, axis=0)
    with np.errstate(divide="ignore"):
        factor = np.minimum(s, nu / nhs)
    return hs * factor, s * nhs


def _gradient(kind, y, scale, rng):
    if kind == "parallel":
        return scale * y * rng.choice([-1.0, 1.0], size=y.shape[1])
    g = rng.standard_normal(y.shape)
    return scale * (g / np.max(np.abs(g), axis=0))


def _momentum(y, size, rng):
    tau = manifold.project_columns(y, rng.standard_normal(y.shape))
    return tau * (size / np.linalg.norm(tau, axis=0))


def _check_moved(y, y_new, tau_new, d, moved_norm):
    """Unit columns, a tangent momentum of norm ``moved_norm``, and a chord of ``2 sin(|d|/2)``."""
    assert np.all(np.abs(np.linalg.norm(y_new, axis=0) - 1.0) <= 1e-12)
    tau_norm = _norms(tau_new)
    assert np.all(np.abs(np.einsum("ij,ij->j", y_new, tau_new)) <= 1e-9 * (1.0 + tau_norm))
    assert np.allclose(tau_norm, moved_norm, rtol=1e-9, atol=0.0)
    chord = np.linalg.norm(y_new - y, axis=0)
    promised = 2.0 * np.abs(np.sin(_norms(d) / 2.0))
    assert np.all(np.abs(chord - promised) <= manifold.DEGENERATE_STEP + 1e-9 * promised)


def _cases(seed):
    """(y, g, tau, lr, kind, scale) over shapes, kinds, scales, rates and momenta."""
    rng = np.random.default_rng(seed)
    for n, p in SHAPES:
        for kind in ("random", "parallel"):
            for scale in SCALES:
                for lr in LRS:
                    for tau_size in (0.0, 0.3):
                        y = _unit_columns(n, p, rng)
                        yield y, _gradient(kind, y, scale, rng), _momentum(y, tau_size, rng), lr, kind, scale
    # One call whose columns carry every scale at once.
    y = _unit_columns(20, len(SCALES), rng)
    yield y, _gradient("random", y, 1.0, rng) * np.array(SCALES), _momentum(y, 0.3, rng), 0.1, "mixed", None
    safe = [s for s in SCALES if s <= 1e150]
    y = _unit_columns(20, len(safe), rng)
    yield y, _gradient("random", y, 1.0, rng) * np.array(safe), _momentum(y, 0.3, rng), 0.1, "mixed", None


def _call_unchanged(step, y, g, tau, *args, base):
    """``step(y, g.copy(), tau, *args, base)``: the step consumes the copy of ``g``. Checks that
    it writes none of ``y``, ``tau``, ``base`` and, under Adam-G, the second moments in ``args``."""
    inputs = [y, tau, base] + [a for a in args if isinstance(a, np.ndarray)]
    before = [a.tobytes() for a in inputs]
    try:
        return step(y, g.copy(), tau, *args, base)
    finally:
        assert [a.tobytes() for a in inputs] == before


def _expect(y, g, kind, scale, refused):
    """Refusal is required exactly when a column's tangent gradient norm overflows. A gradient
    parallel to ``y`` has a zero tangent part, and above unit size its projection may be
    refused for the rounding it leaves."""
    h_norm = _clipped(y, g, 1.0)[1]
    if kind == "parallel":
        if scale <= 1.0:
            assert not refused
        return
    assert refused == bool(np.any(h_norm > OVERFLOW))


def test_sgdg_update_takes_the_clipped_step_or_refuses():
    hyper = optim.SgdGHyper()
    outcomes = set()
    for y, g, tau, lr, kind, scale in _cases(0):
        try:
            y_new, tau_new, _ = _call_unchanged(optim.sgdg_step, y, g, tau, lr, hyper, base=y.copy())
        except NumericalError:
            _expect(y, g, kind, scale, True)
            outcomes.add("refused")
            continue
        _expect(y, g, kind, scale, False)
        outcomes.add("moved")
        h_hat, _ = _clipped(y, g, hyper.nu)
        if kind == "parallel":  # the exact tangent gradient is 0; the kernel sees rounding noise
            bound = lr * min(hyper.nu, 1e-13 * scale) + hyper.gamma * _norms(tau)
            chord = np.linalg.norm(y_new - y, axis=0)
            assert np.all(chord <= bound + manifold.DEGENERATE_STEP)
            assert np.all(np.abs(np.linalg.norm(y_new, axis=0) - 1.0) <= 1e-12)
            if scale <= 1.0 and not tau.any():
                assert np.array_equal(y_new, y)
            continue
        d = hyper.gamma * tau - lr * h_hat
        _check_moved(y, y_new, tau_new, d, _norms(d))
    assert outcomes == {"refused", "moved"}


def test_adamg_update_takes_the_clipped_step_or_refuses():
    hyper = optim.AdamGHyper()
    rng = np.random.default_rng(1)
    outcomes = set()
    for y, g, tau, lr, kind, scale in _cases(1):
        t = int(rng.integers(0, 6)) if tau.any() else 0
        v = rng.uniform(0.0, hyper.nu**2, y.shape[1]) if t else np.zeros(y.shape[1])
        try:
            y_new, tau_new, v_new, _ = _call_unchanged(
                optim.adamg_step, y, g, tau, v, t, lr, hyper, base=y.copy()
            )
        except NumericalError:
            _expect(y, g, kind, scale, True)
            outcomes.add("refused")
            continue
        _expect(y, g, kind, scale, False)
        outcomes.add("moved")
        assert np.all(np.abs(np.linalg.norm(y_new, axis=0) - 1.0) <= 1e-12)
        if kind == "parallel":
            continue
        h_hat, h_norm = _clipped(y, g, hyper.nu)
        eta_t = lr * np.sqrt(1.0 - hyper.beta2 ** (t + 1)) / (1.0 - hyper.beta1 ** (t + 1))
        m = hyper.beta1 * tau + (1.0 - hyper.beta1) * h_hat
        v_want = hyper.beta2 * v + (1.0 - hyper.beta2) * np.minimum(h_norm, hyper.nu) ** 2
        assert np.allclose(v_new, v_want, rtol=1e-12, atol=1e-300)
        d = (-eta_t / np.sqrt(v_want + hyper.epsilon)) * m
        _check_moved(y, y_new, tau_new, d, _norms(m))
    assert outcomes == {"refused", "moved"}


def _snapshot(trainer):
    arrays = [a for layer in trainer.net.layers for a in layer.params().values()]
    for s in trainer.layer_states:
        arrays += [np.asarray(value) for value in vars(s).values()]
    arrays += trainer.velocities
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("optimizer", ["sgd-g", "adam-g"])
def test_train_step_at_extreme_gradient_scales_applies_fully_or_not_at_all(monkeypatch, optimizer):
    rng = np.random.default_rng(37)
    x, labels = rng.standard_normal((32, 16)), rng.integers(0, 3, 32)
    lr_g = optim.default_eta_g(optimizer)
    for scale in SCALES:
        net = build_mlp(16, (16, 8), 3, np.random.default_rng(38))
        trainer = Trainer(net, optimizer)
        for _ in range(2):  # non-zero momenta
            trainer.train_step(x, labels, lr_g, 0.01)
        before = _snapshot(trainer)
        real = net.loss_and_grads

        def scaled(*args, **kwargs):
            loss, grads, caches = real(*args, **kwargs)
            for layer_grads in grads:
                for g in layer_grads.values():
                    g *= scale
            return loss, grads, caches

        monkeypatch.setattr(net, "loss_and_grads", scaled)
        try:
            trainer.train_step(x, labels, lr_g, 0.01)
        except NumericalError:
            assert scale >= 1e160, scale
            assert _snapshot(trainer) == before
            continue
        assert scale <= 1e150, scale
        for state in trainer.layer_states:
            wm = net.layers[state.layer_index].weight_matrix()
            manifold.require_unit(wm)
            manifold.require_tangent(wm, state.tau)
            assert np.array_equal(state.base, wm)
        assert all(np.isfinite(a).all() for layer in net.layers for a in layer.params().values())
