"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import time

import numpy as np

from grassopt import checks
from grassopt.config import make_config
from grassopt.data import gen_blobs, normalize
from grassopt.nn import BatchNormLayer, DenseLayer, Trainer, build_mlp
from grassopt.optim import AdamGHyper, SgdGHyper, adamg_update, sgdg_update
from grassopt.regularizer import LayerColumns, complexity_loss, descent_check
from grassopt.runner import run_compare, run_training


def _report(number, description, ok):
    print(f"\nACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def _unit_columns(n, p, rng):
    y = rng.standard_normal((n, p))
    return y / np.linalg.norm(y, axis=0)


def test_criterion_01_manifold_operator_suite():
    started = time.monotonic()
    results = checks.run_manifold_suite(seed=0, instances=1000, dims=(2, 3, 16, 257))
    elapsed = time.monotonic() - started
    ok = all(r.passed for r in results) and elapsed < 10.0
    for r in results:
        print(r.line())
    print(f"  manifold suite runtime: {elapsed:.2f}s")
    _report(1, "manifold operator invariants (1000 instances, n in {2,3,16,257}, <10s)", ok)


def test_criterion_02_riemannian_gradient_checks():
    started = time.monotonic()
    results = checks.run_gradcheck_suite(seed=0, checkpoints=20)
    elapsed = time.monotonic() - started
    by_name = {r.name: r for r in results}
    ok = (
        by_name["quadratic_objective"].worst < 1e-5
        and by_name["linear_squared_objective"].worst < 1e-5
        and by_name["bn_network_objective"].worst < 1e-4
        and elapsed < 60.0
    )
    for r in results:
        print(r.line())
    print(f"  gradcheck runtime: {elapsed:.2f}s")
    _report(2, "Riemannian FD checks (<1e-5 analytic, <1e-4 network at 20 checkpoints, <60s)", ok)


def _toy_training_maxima(optimizer, epochs=15):
    ds = normalize(gen_blobs(0, n_per_class=200, classes=3, dim=16, spread=0.6))
    rng = np.random.default_rng(0)
    net = build_mlp(16, (8, 6), 3, rng)
    trainer = Trainer(net, optimizer, rng=rng)
    lr_g = trainer.eta_g
    max_contrib = 0.0
    max_angle = 0.0
    for _ in range(epochs):
        stats = trainer.train_epoch(ds.train_x, ds.train_y, 32, lr_g, 0.01)
        max_contrib = max(max_contrib, stats.max_sgdg_contribution)
        max_angle = max(max_angle, stats.max_angle)
    return max_contrib, max_angle


def test_criterion_03_step_size_bounds():
    contrib, _ = _toy_training_maxima("sgd-g")
    _, adam_step = _toy_training_maxima("adam-g")
    print(f"  SGD-G max per-gradient contribution: {contrib:.6f} (bound 0.2)")
    print(f"  Adam-G max |d|: {adam_step:.6f} (bound 0.05)")
    ok = contrib <= 0.2 + 1e-12 and adam_step <= 0.05 + 1e-6
    _report(3, "SGD-G cumulative contribution <= 0.2 rad; Adam-G |d| <= 0.05 + 1e-6", ok)


def test_criterion_04_unit_norm_persistence():
    # Every column of a 64x8 bundle, i.e. a point on G(1, 64)^8, for each optimizer.
    rng = np.random.default_rng(1)
    finals = []

    y = _unit_columns(64, 8, rng)
    tau = np.zeros_like(y)
    for _ in range(10_000):
        y, tau, _ = sgdg_update(y, rng.standard_normal((64, 8)) * 3.0, tau, 0.2, SgdGHyper(), base=y)
    finals.append((y, tau))

    y = _unit_columns(64, 8, rng)
    tau, v = np.zeros_like(y), np.zeros(8)
    for t in range(10_000):
        y, tau, v, _ = adamg_update(y, rng.standard_normal((64, 8)) * 3.0, tau, v, t, 0.05,
                                    AdamGHyper(), base=y)
    finals.append((y, tau))

    worst_norm = max(float(np.max(np.abs(np.linalg.norm(y, axis=0) - 1.0))) for y, _ in finals)
    worst_tangency = max(float(np.max(np.abs(np.einsum("ij,ij->j", y, tau)))) for y, tau in finals)
    print(f"  worst | |y|-1 | = {worst_norm:.2e}, worst |y^T tau| = {worst_tangency:.2e}")
    ok = worst_norm < 1e-9 and worst_tangency < 1e-9
    _report(4, "unit norm and momentum tangency persist over 10^4 steps on a 64x8 bundle", ok)


def test_criterion_05_complexity_minimum_at_orthonormal():
    rng = np.random.default_rng(2)
    ok = True
    for sigma_sq in (1e-2, 1e-4):
        sigma = float(np.sqrt(sigma_sq))
        for _ in range(100):
            n = int(rng.choice([4, 8, 16]))
            p = int(rng.integers(1, n))
            y = _unit_columns(n, p, rng)
            q = np.linalg.qr(y)[0][:, :p]
            ly = complexity_loss(LayerColumns(y, 0.1, sigma))
            lq = complexity_loss(LayerColumns(q, 0.1, sigma))
            off = float(np.linalg.norm(y.T @ y - np.eye(p)))
            if lq > ly:
                ok = False
            if off > 1e-3 and not lq < ly:
                ok = False
    _report(5, "complexity loss minimized by orthonormalization (100 instances, both sigma^2)", ok)


def test_criterion_06_descent_direction_property():
    rng = np.random.default_rng(3)
    worst = np.inf
    for _ in range(1000):
        n = int(rng.choice([4, 8, 32]))
        p = int(rng.integers(1, n))
        layer = LayerColumns(_unit_columns(n, p, rng), alpha=0.1)
        worst = min(worst, descent_check(layer, int(rng.integers(p))))
    ortho = abs(descent_check(LayerColumns(np.linalg.qr(rng.standard_normal((8, 3)))[0], 0.1), 0))
    print(f"  min inner product over 1000 instances: {worst:.3e}; |orthonormal value| = {ortho:.2e}")
    ok = worst >= -1e-8 and ortho < 1e-8
    _report(6, "descent_check >= -1e-8 on 1000 instances and == 0 at orthonormal Y", ok)


def test_criterion_07_scale_invariance():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((32, 6))
    w = rng.standard_normal((6, 3))
    target_labels = rng.integers(0, 3, 32)
    bn = BatchNormLayer(3, eps_bn=1e-12)

    base, _ = bn.forward(x @ w, training=True)
    worst_fwd = 0.0
    for k in (0.5, 3.0, 100.0):
        out, _ = bn.forward(x @ (k * w), training=True)
        worst_fwd = max(worst_fwd, float(np.max(np.abs(out - base))))

    from grassopt.nn.layers import softmax_ce

    def weight_grad(weights):
        dense = DenseLayer(weights)
        z, dcache = dense.forward(x)
        out, bcache = bn.forward(z, training=True)
        loss, dlogits = softmax_ce(out, target_labels)
        dz, _ = bn.backward(dlogits, bcache)
        _, grads = dense.backward(dz, dcache)
        return grads["W"]

    g1 = weight_grad(w)
    worst_grad = 0.0
    for k in (0.5, 3.0, 100.0):
        gk = weight_grad(k * w)
        scale = max(float(np.max(np.abs(gk))), 1e-8)
        worst_grad = max(worst_grad, float(np.max(np.abs(gk - g1 / k))) / scale)

    print(f"  worst forward deviation: {worst_fwd:.2e}; worst gradient ratio deviation: {worst_grad:.2e}")
    ok = worst_fwd < 1e-10 and worst_grad < 1e-8
    _report(7, "BN forward invariant under column scaling; gradient scales as 1/k", ok)


def test_criterion_08_ortho_loss_dynamics(tmp_path):
    started = time.monotonic()
    cfg = make_config(
        epochs=60, milestones=(30, 45), optimizer="sgd-g", seed=0,
        out_dir=str(tmp_path / "fig3"),
    )
    records, _ = run_training(cfg)
    elapsed = time.monotonic() - started
    ortho = [r.ortho_loss_total for r in records]
    final_ok = ortho[-1] < 1e-2
    trend_ok = True
    for drop in (30, 45):
        before = float(np.mean(ortho[drop - 4 : drop + 1]))
        after = float(np.mean(ortho[drop + 1 : drop + 6]))
        print(f"  drop at {drop}: mean before {before:.3e}, mean after {after:.3e}")
        if after > before:
            trend_ok = False
    print(f"  final summed ortho loss: {ortho[-1]:.3e}; runtime {elapsed:.1f}s")
    ok = final_ok and trend_ok and elapsed < 300.0
    _report(8, "ortho loss ends < 1e-2 with non-increasing trend after each schedule drop", ok)


def test_criterion_09_comparative_sanity(tmp_path):
    overrides = {
        "epochs": "12", "milestones": "6,9", "n_per_class": "200", "dim": "16",
        "hidden": "8,6", "batch_size": "32", "seed": "0", "spread": "0.6",
        "out_dir": str(tmp_path / "cmp"),
    }
    summary, _ = run_compare(None, overrides, ["sgd", "sgd-g", "adam-g"], runs=5)
    medians = {}
    for line in summary.splitlines()[1:]:
        name, _, value = line.split(",")
        medians[name] = float(value)
    print(f"  medians: {medians}")
    ok = (
        medians["sgd-g"] <= medians["sgd"] + 0.01
        and medians["adam-g"] <= medians["sgd"] + 0.01
    )
    _report(9, "median test error of SGD-G and Adam-G within 1pp of the SGD baseline", ok)


def test_criterion_10_determinism(tmp_path):
    cfg_kwargs = dict(epochs=3, n_per_class=50, dim=8, hidden=(5, 4), batch_size=16, seed=11)
    r1 = run_training(make_config(out_dir=str(tmp_path / "d1"), **cfg_kwargs))
    r2 = run_training(make_config(out_dir=str(tmp_path / "d2"), **cfg_kwargs))
    b1 = open(r1[1]["metrics"], "rb").read()
    b2 = open(r2[1]["metrics"], "rb").read()
    ok = b1 == b2 and len(b1) > 0
    _report(10, "identical train invocations produce byte-identical metrics files", ok)
