"""The bundled Grassmann step: equivalence with the per-column oracle, atomicity, and checkpoints."""

import dataclasses
import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from column_oracle import ColumnOracle
from grassopt import manifold, optim
from grassopt.errors import NumericalError, PreconditionError, ValidationError
from grassopt.nn import BatchNormLayer, Trainer, build_convnet, build_mlp, load_checkpoint, save_checkpoint
from grassopt.nn import training
from grassopt.regularizer import ortho_grad, ortho_loss

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _mlp(rng):
    return build_mlp(20, (12, 6), 3, rng)


def _convnet(rng):
    return build_convnet((1, 6, 6), 3, rng, channels=(3, 4))


def _batch(build, rng):
    if build is _mlp:
        return rng.standard_normal((16, 20)), rng.integers(0, 3, 16)
    return rng.standard_normal((8, 6, 6, 1)), rng.integers(0, 3, 8)


def _net_arrays(net):
    out = []
    for layer in net.layers:
        out.extend(layer.params().values())
        if isinstance(layer, BatchNormLayer):
            out.extend([layer.running_mean, layer.running_var])
    return out


# ------------------------------------------------------------- equivalence


@pytest.mark.parametrize("optimizer", ["sgd-g", "adam-g"])
@pytest.mark.parametrize("build", [_mlp, _convnet], ids=["mlp", "conv"])
def test_bundle_step_matches_per_column_oracle(build, optimizer):
    bundled = Trainer(build(np.random.default_rng(5)), optimizer)
    oracle = ColumnOracle(Trainer(build(np.random.default_rng(5)), optimizer))
    assert len(bundled.layer_states) == 2
    data_rng = np.random.default_rng(9)
    lr_g = optim.default_eta_g(optimizer)
    for _ in range(25):
        bx, by = _batch(build, data_rng)
        bundled.train_step(bx, by, lr_g, 0.01)
        oracle.train_step(bx, by, lr_g, 0.01)

    for a, b in zip(_net_arrays(bundled.net), _net_arrays(oracle.trainer.net)):
        assert np.max(np.abs(a - b)) <= 1e-14
    states = {s.layer_index: s for s in bundled.layer_states}
    assert len(oracle.points) == sum(s.tau.shape[1] for s in bundled.layer_states)
    for (k, j), point in oracle.points.items():
        state = states[k]
        assert np.max(np.abs(state.tau[:, j] - point["tau"])) <= 1e-14
        assert abs(state.v[j] - point["v"]) <= 1e-14
        assert state.t == point["t"]
    assert all(s.t == (25 if optimizer == "adam-g" else 0) for s in bundled.layer_states)


def test_update_kernels_act_column_by_column():
    rng = np.random.default_rng(29)
    y = rng.standard_normal((9, 4))
    y /= np.linalg.norm(y, axis=0)
    g = 3.0 * rng.standard_normal((9, 4))
    g[:, 2] = 0.0  # with zero momentum this column must not move at all
    tau = np.zeros_like(y)
    v = np.zeros(4)
    bundle_sgd = optim.sgdg_update(y, g, tau, 0.2, optim.SgdGHyper(), base=y)
    bundle_adam = optim.adamg_update(y, g, tau, v, 0, 0.05, optim.AdamGHyper(), base=y)
    for j in range(4):
        col_sgd = optim.sgdg_update(y[:, j], g[:, j], tau[:, j], 0.2, optim.SgdGHyper(), base=y[:, j])
        col_adam = optim.adamg_update(y[:, j], g[:, j], tau[:, j], v[j], 0, 0.05, optim.AdamGHyper(), base=y[:, j])
        for bundle, col in ((bundle_sgd, col_sgd), (bundle_adam, col_adam)):
            for b, c in zip(bundle, col):
                assert np.max(np.abs(b[..., j] - c)) <= 1e-15
    assert bundle_sgd[0][:, 2].tobytes() == y[:, 2].tobytes()
    assert bundle_adam[0][:, 2].tobytes() == y[:, 2].tobytes()


def test_update_kernels_refuse_state_of_another_point():
    rng = np.random.default_rng(31)
    y = rng.standard_normal((5, 3))
    y /= np.linalg.norm(y, axis=0)
    g, tau = rng.standard_normal((5, 3)), np.zeros((5, 3))
    other = y.copy()
    other[:, 1] *= -1.0  # the same subspaces, but not the array the momentum was left at
    with pytest.raises(PreconditionError, match="different point"):
        optim.sgdg_update(y, g, tau, 0.1, optim.SgdGHyper(), base=other)
    with pytest.raises(PreconditionError, match="different point"):
        optim.adamg_update(y, g, tau, np.zeros(3), 0, 0.1, optim.AdamGHyper(), base=other)


@pytest.mark.parametrize("optimizer", ["sgd-g", "adam-g"])
def test_train_step_makes_no_per_column_calls(monkeypatch, optimizer):
    # One geodesic kernel call per Grassmann layer, on the whole weight matrix.
    rng = np.random.default_rng(30)
    trainer = Trainer(build_mlp(20, (12, 6), 3, rng), optimizer)
    x, labels = rng.standard_normal((32, 20)), rng.integers(0, 3, 32)
    shapes = []
    real_geodesic = manifold.geodesic_columns

    def recording(y, d, delta=None, norms=None):
        shapes.append(y.shape)
        return real_geodesic(y, d, delta, norms)

    monkeypatch.setattr(manifold, "geodesic_columns", recording)
    trainer.train_step(x, labels, optim.default_eta_g(trainer.optimizer), 0.01)
    assert shapes == [(20, 12), (12, 6)]
    assert [s.tau.shape for s in trainer.layer_states] == shapes


def test_train_step_computes_each_gram_once(monkeypatch):
    rng = np.random.default_rng(31)
    trainer = Trainer(build_mlp(20, (12, 6), 3, rng), "sgd-g")
    seen = []
    real_loss, real_grad = training.ortho_loss, training.ortho_grad

    def loss(y, alpha, gram=None):
        seen.append(("loss", gram))
        return real_loss(y, alpha, gram)

    def grad(y, alpha, gram=None):
        seen.append(("grad", gram))
        return real_grad(y, alpha, gram)

    monkeypatch.setattr(training, "ortho_loss", loss)
    monkeypatch.setattr(training, "ortho_grad", grad)
    trainer.train_step(rng.standard_normal((16, 20)), rng.integers(0, 3, 16), 0.2, 0.01)
    assert [kind for kind, _ in seen] == ["loss", "grad", "loss", "grad"]
    assert seen[0][1] is seen[1][1] and seen[2][1] is seen[3][1]
    assert all(gram is not None for _, gram in seen)


def test_shared_gram_gives_bit_identical_penalty():
    rng = np.random.default_rng(32)
    y = rng.standard_normal((40, 12))
    y = y / np.linalg.norm(y, axis=0)
    gram = y.T @ y
    assert ortho_loss(y, 0.1, gram) == ortho_loss(y, 0.1)
    assert ortho_grad(y, 0.1, gram).tobytes() == ortho_grad(y, 0.1).tobytes()


# ------------------------------------------------------- all-or-nothing step


def _snapshot(trainer):
    arrays = _net_arrays(trainer.net)
    for s in trainer.layer_states:
        arrays += [s.base, s.tau, s.v, np.array(s.t)]
    arrays += trainer.velocities
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("optimizer", ["sgd-g", "adam-g", "sgd"])
@pytest.mark.parametrize("where", [(3, "W", (slice(None), 5)), (6, "bias", 1)], ids=["bn_fed_W", "classifier_bias"])
def test_non_finite_gradient_leaves_everything_unchanged(monkeypatch, optimizer, where):
    rng = np.random.default_rng(33)
    net = build_mlp(16, (16, 8), 3, rng)
    trainer = Trainer(net, optimizer)
    x, labels = rng.standard_normal((32, 16)), rng.integers(0, 3, 32)
    for _ in range(3):  # non-zero momenta and statistics
        trainer.train_step(x, labels, optim.default_eta_g(trainer.optimizer), 0.01)
    before = _snapshot(trainer)

    layer, name, index = where
    real = net.loss_and_grads

    def poisoned(*args, **kwargs):
        loss, grads, caches = real(*args, **kwargs)
        grads[layer][name][index] = np.nan
        return loss, grads, caches

    monkeypatch.setattr(net, "loss_and_grads", poisoned)
    with pytest.raises(NumericalError):
        trainer.train_step(x, labels, optim.default_eta_g(trainer.optimizer), 0.01)
    assert _snapshot(trainer) == before


def test_wrong_dtype_velocity_is_refused_before_any_write():
    rng = np.random.default_rng(35)
    trainer = Trainer(build_mlp(16, (16, 8), 3, rng), "sgd")
    x, labels = rng.standard_normal((32, 16)), rng.integers(0, 3, 32)
    trainer.train_step(x, labels, 0.2, 0.01)
    trainer.velocities[-1] = trainer.velocities[-1].astype(np.float32)
    before = _snapshot(trainer)
    with pytest.raises(PreconditionError, match="velocity must be a writable float64 array"):
        trainer.train_step(x, labels, 0.2, 0.01)
    assert _snapshot(trainer) == before


@pytest.mark.parametrize("optimizer", ["sgd", "sgd-g", "adam-g"])
def test_euclidean_step_keeps_parameter_and_velocity_objects(optimizer):
    # load_checkpoint writes velocities through velocity[...], so they must stay the trainer's arrays.
    rng = np.random.default_rng(36)
    trainer = Trainer(build_mlp(16, (16, 8), 3, rng), optimizer)
    x, labels = rng.standard_normal((32, 16)), rng.integers(0, 3, 32)
    params = [trainer._param(ref) for ref in trainer.partition.euclidean]
    velocities = list(trainer.velocities)
    before = [a.copy() for a in params]
    for _ in range(3):
        trainer.train_step(x, labels, optim.default_eta_g(optimizer), 0.01)
    assert all(a is trainer._param(ref) for a, ref in zip(params, trainer.partition.euclidean))
    assert all(a is b for a, b in zip(velocities, trainer.velocities))
    assert all(not np.array_equal(a, b) for a, b in zip(params, before))  # the steps did move them


@pytest.mark.parametrize("optimizer", ["sgd", "sgd-g", "adam-g"])
def test_step_checks_each_euclidean_parameter_once(monkeypatch, optimizer):
    rng = np.random.default_rng(37)
    trainer = Trainer(build_mlp(16, (16, 8), 3, rng), optimizer)
    x, labels = rng.standard_normal((32, 16)), rng.integers(0, 3, 32)
    checked = []
    real_check = optim._check_euclidean_inputs

    def counting(w, g, velocity):
        checked.append(w)
        return real_check(w, g, velocity)

    monkeypatch.setattr(optim, "_check_euclidean_inputs", counting)
    for step in range(1, 3):
        trainer.train_step(x, labels, optim.default_eta_g(optimizer), 0.01)
        assert len(checked) == step * len(trainer.partition.euclidean)
    params = [trainer._param(ref) for ref in trainer.partition.euclidean]
    assert all(a is b for a, b in zip(checked, params + params))


def test_step_refuses_state_of_other_columns():
    trainer, (x, labels) = _trained()
    w = trainer.net.layers[3].W
    w[:, 2] = w[::-1, 2]  # still unit norm, but no longer where the momentum was left
    before = _snapshot(trainer)
    with pytest.raises(PreconditionError, match="different point"):
        trainer.train_step(x, labels, optim.default_eta_g(trainer.optimizer), 0.01)
    assert _snapshot(trainer) == before


# ------------------------------------------------------------- checkpoints


def _trained():
    rng = np.random.default_rng(34)
    trainer = Trainer(build_mlp(16, (16, 8), 3, rng), "sgd-g")
    x, labels = rng.standard_normal((32, 16)), rng.integers(0, 3, 32)
    for _ in range(3):
        trainer.train_step(x, labels, optim.default_eta_g(trainer.optimizer), 0.01)
    return trainer, (x, labels)


def test_interrupted_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    trainer, (x, labels) = _trained()
    path = tmp_path / "checkpoint.npz"
    save_checkpoint(path, trainer)
    reference = tmp_path / "reference"
    reference.write_bytes(b"")
    assert path.stat().st_mode == reference.stat().st_mode  # the usual umask permissions
    reference.unlink()
    saved = [a.copy() for a in _net_arrays(trainer.net)]
    trainer.train_step(x, labels, optim.default_eta_g(trainer.optimizer), 0.01)

    def savez_then_fail(fh, **arrays):
        fh.write(b"PK\x03\x04 partial archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", savez_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, trainer)
    monkeypatch.undo()

    assert os.listdir(tmp_path) == ["checkpoint.npz"]  # no temporary file left behind
    restored = load_checkpoint(path)
    for a, b in zip(saved, _net_arrays(restored.net)):
        assert a.tobytes() == b.tobytes()


def test_save_syncs_before_rename(tmp_path, monkeypatch):
    trainer, _ = _trained()
    path = tmp_path / "checkpoint.npz"
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
        real_fsync(fd)

    def replace(src, dst):
        events.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    save_checkpoint(path, trainer)
    expected = ["fsync file", "replace"] + (["fsync dir"] if os.name == "posix" else [])
    assert events == expected
    load_checkpoint(path)


def _rewrite(src, dst, **changes):
    """Copy a checkpoint archive, replacing (array) or dropping (None) entries."""
    with np.load(src) as archive:
        arrays = {k: archive[k] for k in archive.files}
    for name, value in changes.items():
        if value is None:
            del arrays[name]
        else:
            arrays[name] = value
    with open(dst, "wb") as fh:
        np.savez(fh, **arrays)


def _bad_checkpoints(tmp_path):
    trainer, _ = _trained()
    good = tmp_path / "good.npz"
    save_checkpoint(good, trainer)
    y3 = trainer.net.layers[3].W[:, 3]
    cases = {
        "missing": {"point3.tau": None},
        "wrong_shape": {"point3.tau": np.zeros(y3.shape[0] + 1)},
        "not_tangent": {"point3.tau": 0.5 * y3},
        # Tangent, but its squared norm overflows, so a tolerance scaled by the norm would be inf.
        "overflowing": {"point3.tau": 1e200 * manifold.project_columns(y3, np.ones_like(y3))},
    }
    paths = {}
    for name, change in cases.items():
        paths[name] = tmp_path / f"{name}.npz"
        _rewrite(good, paths[name], **change)
    return paths


@pytest.mark.parametrize("case", ["missing", "wrong_shape", "not_tangent", "overflowing"])
def test_bad_momentum_raises_validation_error(tmp_path, case):
    path = _bad_checkpoints(tmp_path)[case]
    message = {"not_tangent": "not tangent", "overflowing": "not finite"}.get(case, "point3.tau")
    with pytest.raises(ValidationError, match=message):
        load_checkpoint(path)


def test_non_tangent_momentum_rejected_under_optimize_flag(tmp_path):
    path = _bad_checkpoints(tmp_path)["not_tangent"]
    code = (
        "import sys\n"
        "from grassopt.errors import ValidationError\n"
        "from grassopt.nn import load_checkpoint\n"
        "try:\n"
        f"    load_checkpoint({str(path)!r})\n"
        "except ValidationError:\n"
        "    sys.exit(0)\n"
        "sys.exit(3)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_truncated_checkpoint_raises_validation_error(tmp_path):
    path = tmp_path / "checkpoint.npz"
    path.write_bytes(b"PK\x03\x04 partial")
    with pytest.raises(ValidationError):
        load_checkpoint(path)


def _with_header(src, dst, edit):
    """Copy a checkpoint archive with ``edit`` applied to its parsed JSON header."""
    with np.load(src) as archive:
        arrays = {k: archive[k] for k in archive.files}
    header = json.loads(bytes(arrays["__header__"]).decode())
    edit(header)
    arrays["__header__"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    with open(dst, "wb") as fh:
        np.savez(fh, **arrays)


@pytest.mark.parametrize("section, key, value", [
    ("sgdg_hyper", "nu", -1.0),
    ("euclid_hyper", "eta", -5.0),
    ("euclid_hyper", "momentum", -1.0),
    ("euclid_hyper", "weight_decay", -2.0),
    ("net_meta", "bn_eps", 0.0),
    ("net_meta", "kind", "rnn"),
])
def test_bad_header_value_raises_validation_error(tmp_path, section, key, value):
    trainer, _ = _trained()
    good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
    save_checkpoint(good, trainer)
    _with_header(good, bad, lambda header: header[section].__setitem__(key, value))
    with pytest.raises(ValidationError, match="header"):
        load_checkpoint(bad)


def test_negative_alpha_in_header_raises_validation_error(tmp_path):
    trainer, _ = _trained()
    good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
    save_checkpoint(good, trainer)
    _with_header(good, bad, lambda header: header.__setitem__("alpha", -5.0))
    with pytest.raises(ValidationError, match="alpha must be nonnegative"):
        load_checkpoint(bad)


def test_checkpoint_restores_every_hyperparameter(tmp_path):
    hypers = {
        "euclid": optim.EuclideanHyper(eta=0.03, momentum=0.5, weight_decay=0.001, nesterov=False),
        "sgdg": optim.SgdGHyper(eta=0.3, gamma=0.8, nu=0.2),
        "adamg": optim.AdamGHyper(eta=0.07, beta1=0.8, beta2=0.95, nu=0.3, epsilon=1e-6),
    }
    for hyper in hypers.values():
        assert all(getattr(hyper, f.name) != f.default for f in dataclasses.fields(hyper))
    rng = np.random.default_rng(35)
    trainer = Trainer(build_mlp(16, (16, 8), 3, rng), "sgd-g", **hypers, alpha=0.05, bn_weight_decay=True)
    path = tmp_path / "checkpoint.npz"
    save_checkpoint(path, trainer)
    restored = load_checkpoint(path)
    assert restored.euclid_hyper == hypers["euclid"]
    assert restored.sgdg_hyper == hypers["sgdg"]
    assert restored.adamg_hyper == hypers["adamg"]
    assert restored.alpha == 0.05 != training.ORTHO_ALPHA
    assert restored.decay_groups["bn"] is True
