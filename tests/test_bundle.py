"""The bundled Grassmann step: equivalence with the per-column oracle, atomicity, and checkpoints."""

import dataclasses
import json
import os
import re
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

from column_oracle import ColumnOracle
from grassopt import manifold, optim
from grassopt.errors import NumericalError, PreconditionError, ValidationError
from grassopt.nn import BatchNormLayer, Trainer, build_convnet, build_mlp, load_checkpoint, save_checkpoint
from grassopt.nn import training

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
        if optimizer == "adam-g":
            assert abs(state.v[j] - point["v"]) <= 1e-14
            assert state.t == point["t"] == 25
    # Each optimizer's layer state holds only what its update reads.
    fields = {"sgd-g": ["layer_index", "base", "tau"], "adam-g": ["layer_index", "base", "tau", "v", "t"]}
    assert all(list(vars(s)) == fields[optimizer] for s in bundled.layer_states)


def test_update_kernels_act_column_by_column():
    rng = np.random.default_rng(29)
    y = rng.standard_normal((9, 4))
    y /= np.linalg.norm(y, axis=0)
    g = 3.0 * rng.standard_normal((9, 4))
    g[:, 2] = 0.0  # with zero momentum this column must not move at all
    tau = np.zeros_like(y)
    v = np.zeros(4)
    bundle_sgd = optim.sgdg_step(y, g.copy(), tau, 0.2, optim.SgdGHyper(), base=y)
    bundle_adam = optim.adamg_step(y, g.copy(), tau, v, 0, 0.05, optim.AdamGHyper(), base=y)
    for j in range(4):
        col_sgd = optim.sgdg_step(y[:, j], g[:, j].copy(), tau[:, j], 0.2, optim.SgdGHyper(), base=y[:, j])
        col_adam = optim.adamg_step(y[:, j], g[:, j].copy(), tau[:, j], v[j], 0, 0.05, optim.AdamGHyper(),
                                    base=y[:, j])
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
        optim.sgdg_step(y, g.copy(), tau, 0.1, optim.SgdGHyper(), base=other)
    with pytest.raises(PreconditionError, match="different point"):
        optim.adamg_step(y, g.copy(), tau, np.zeros(3), 0, 0.1, optim.AdamGHyper(), base=other)


@pytest.mark.parametrize("optimizer", ["sgd-g", "adam-g"])
def test_train_step_makes_no_per_column_calls(monkeypatch, optimizer):
    # One geodesic kernel call per Grassmann layer, on the whole weight matrix.
    rng = np.random.default_rng(30)
    trainer = Trainer(build_mlp(20, (12, 6), 3, rng), optimizer)
    x, labels = rng.standard_normal((32, 20)), rng.integers(0, 3, 32)
    shapes = []
    real_geodesic = manifold.geodesic_columns

    def recording(y, d, delta=None, norms=None, overwrite=False):
        shapes.append(y.shape)
        return real_geodesic(y, d, delta, norms, overwrite)

    monkeypatch.setattr(manifold, "geodesic_columns", recording)
    trainer.train_step(x, labels, optim.default_eta_g(trainer.optimizer), 0.01)
    assert shapes == [(20, 12), (12, 6)]
    assert [s.tau.shape for s in trainer.layer_states] == shapes


@pytest.mark.parametrize("optimizer", ["sgd", "sgd-g", "adam-g"])
def test_train_step_calls_the_public_updates_through_optim(monkeypatch, optimizer):
    # The step a patched optim module holds (a tracer, a fault injection) is the one a train
    # step runs: one call per Grassmann layer, none under the sgd baseline.
    rng = np.random.default_rng(30)
    trainer = Trainer(build_mlp(20, (12, 6), 3, rng), optimizer)
    x, labels = rng.standard_normal((32, 20)), rng.integers(0, 3, 32)
    calls = []

    def counting(name):
        real = getattr(optim, name)

        def step(y, *args):
            calls.append((name, y.shape))
            return real(y, *args)
        return step

    for name in ("sgdg_step", "adamg_step"):
        monkeypatch.setattr(optim, name, counting(name))
    trainer.train_step(x, labels, optim.default_eta_g(trainer.optimizer), 0.01)
    want = {"sgd": [], "sgd-g": ["sgdg_step"] * 2, "adam-g": ["adamg_step"] * 2}[optimizer]
    assert calls == list(zip(want, [(20, 12), (12, 6)]))


def test_train_step_adds_one_ortho_grad_per_layer_and_no_ortho_loss(monkeypatch):
    # A step needs the penalty's gradient only; its value is Trainer.objective's alone.
    rng = np.random.default_rng(31)
    seen = []
    real_loss, real_grad = training.ortho_loss, training.ortho_grad

    def loss(y, alpha):
        seen.append(("loss", y.shape))
        return real_loss(y, alpha)

    def grad(y, alpha):
        seen.append(("grad", y.shape))
        return real_grad(y, alpha)

    monkeypatch.setattr(training, "ortho_loss", loss)
    monkeypatch.setattr(training, "ortho_grad", grad)
    bx, by = rng.standard_normal((16, 20)), rng.integers(0, 3, 16)
    for optimizer in ("sgd-g", "adam-g"):
        trainer = Trainer(build_mlp(20, (12, 6), 3, rng), optimizer)
        seen.clear()
        trainer.train_step(bx, by, optim.default_eta_g(optimizer), 0.01)
        assert seen == [("grad", (20, 12)), ("grad", (12, 6))]
        seen.clear()
        trainer.objective(bx, by)
        assert seen == [("grad", (20, 12)), ("grad", (12, 6)), ("loss", (20, 12)), ("loss", (12, 6))]


# ------------------------------------------------------- all-or-nothing step


def _snapshot(trainer):
    arrays = _net_arrays(trainer.net)
    for s in trainer.layer_states:
        arrays += [np.asarray(value) for value in vars(s).values()]
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
        grads[layer][name][index] = value
        return loss, grads, caches

    monkeypatch.setattr(net, "loss_and_grads", poisoned)
    for value in (np.nan, np.inf, -np.inf):
        # The step refuses the value before numpy can warn of it.
        with warnings.catch_warnings(), pytest.raises(NumericalError):
            warnings.simplefilter("error")
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


@pytest.mark.parametrize("optimizer", ["sgd", "sgd-g", "adam-g"])
def test_train_step_calls_the_public_euclidean_step_through_optim(monkeypatch, optimizer):
    # One call per step, through the module, so a patched (or traced) optim.euclidean_sgd_step
    # is the one the trainer runs, and it carries every Euclidean parameter.
    rng = np.random.default_rng(39)
    trainer = Trainer(build_mlp(16, (16, 8), 3, rng), optimizer)
    x, labels = rng.standard_normal((32, 16)), rng.integers(0, 3, 32)
    calls = []
    real_step = optim.euclidean_sgd_step

    def recording(params, grads, velocities, lr, hyper, decay):
        calls.append((list(params), list(velocities), list(decay)))
        return real_step(params, grads, velocities, lr, hyper, decay)

    monkeypatch.setattr(optim, "euclidean_sgd_step", recording)
    refs = trainer.partition.euclidean
    for step in range(1, 3):
        trainer.train_step(x, labels, optim.default_eta_g(optimizer), 0.01)
        assert len(calls) == step
        params, velocities, decay = calls[-1]
        assert len(params) == len(refs) > 0
        assert all(a is trainer._param(ref) for a, ref in zip(params, refs))
        assert all(a is b for a, b in zip(velocities, trainer.velocities))
        assert decay == [trainer.decay_groups[ref.group] for ref in refs]


@pytest.mark.parametrize("optimizer", ["sgd-g", "adam-g"])
def test_step_checks_each_grassmann_invariant_once(monkeypatch, optimizer):
    # Each update checks its point once, and its projected gradient h and the blend of tau
    # (SGD-G: the step d; Adam-G: the first moment m) once each; the new point and the
    # transported momentum are the kernel's and are not checked again.
    rng = np.random.default_rng(38)
    trainer = Trainer(build_mlp(16, (16, 8), 3, rng), optimizer)
    x, labels = rng.standard_normal((32, 16)), rng.integers(0, 3, 32)
    calls = []
    real_unit, real_tangent = manifold.require_unit, manifold.require_tangent

    def unit(y, what="point"):
        calls.append(("unit", y, what))
        return real_unit(y, what)

    def tangent(y, v, what="vector"):
        calls.append(("tangent", y, what))
        return real_tangent(y, v, what)

    monkeypatch.setattr(manifold, "require_unit", unit)
    monkeypatch.setattr(manifold, "require_tangent", tangent)
    for _ in range(2):
        weights = [trainer.net.layers[s.layer_index].weight_matrix() for s in trainer.layer_states]
        calls.clear()
        trainer.train_step(x, labels, optim.default_eta_g(optimizer), 0.01)
        blend = "step" if optimizer == "sgd-g" else "momentum"
        per_layer = [("unit", "point"), ("tangent", "projected gradient"), ("tangent", blend)]
        assert [(kind, what) for kind, _, what in calls] == per_layer * len(weights)
        checked = [wm for wm in weights for _ in per_layer]
        assert all(np.shares_memory(y, wm) for (_, y, _), wm in zip(calls, checked))


def test_step_refuses_state_of_other_columns():
    trainer, (x, labels) = _trained()
    w = trainer.net.layers[3].W
    w[:, 2] = w[::-1, 2]  # still unit norm, but no longer where the momentum was left
    before = _snapshot(trainer)
    with pytest.raises(PreconditionError, match="different point"):
        trainer.train_step(x, labels, optim.default_eta_g(trainer.optimizer), 0.01)
    assert _snapshot(trainer) == before


# ------------------------------------------------------------- checkpoints


def _trained(optimizer="sgd-g"):
    rng = np.random.default_rng(34)
    trainer = Trainer(build_mlp(16, (16, 8), 3, rng), optimizer)
    x, labels = rng.standard_normal((32, 16)), rng.integers(0, 3, 32)
    for _ in range(3):
        trainer.train_step(x, labels, optim.default_eta_g(trainer.optimizer), 0.01)
    return trainer, (x, labels)


def _assert_no_shared_memory(arrays):
    for i, a in enumerate(arrays):
        for b in arrays[i + 1 :]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("optimizer", ["sgd-g", "adam-g"])
@pytest.mark.parametrize("build", [_mlp, _convnet], ids=["mlp", "conv"])
def test_step_state_owns_its_buffers(build, optimizer, tmp_path, monkeypatch):
    # The update turns each layer's gradient into its new momentum and the state keeps the
    # fresh point, so weights, momenta, base points, velocities and the next step's
    # gradients must all be distinct memory; a restored trainer must step to the same bytes.
    rng = np.random.default_rng(52)
    trainer = Trainer(build(np.random.default_rng(53)), optimizer)
    lr_g = optim.default_eta_g(optimizer)
    for _ in range(3):
        trainer.train_step(*_batch(build, rng), lr_g, 0.01)
    save_checkpoint(tmp_path / "ckpt.npz", trainer)
    restored = load_checkpoint(tmp_path / "ckpt.npz")

    def owned(tr):
        arrays = [tr.net.layers[s.layer_index].weight_matrix() for s in tr.layer_states]
        state = [a for s in tr.layer_states for a in vars(s).values() if isinstance(a, np.ndarray)]
        return arrays + state + tr.velocities

    before, seen = owned(trainer), []
    real = trainer.net.loss_and_grads

    def recording(*args, **kwargs):
        loss, grads, caches = real(*args, **kwargs)
        seen.append(grads)
        return loss, grads, caches

    monkeypatch.setattr(trainer.net, "loss_and_grads", recording)
    bx, by = _batch(build, rng)
    trainer.train_step(bx, by, lr_g, 0.01)
    restored.train_step(bx, by, lr_g, 0.01)
    _assert_no_shared_memory(before + [g for layer in seen[0] for g in layer.values()])
    _assert_no_shared_memory(owned(trainer))
    for state in trainer.layer_states:  # the update consumed the gradient of its layer
        layer = trainer.net.layers[state.layer_index]
        assert np.shares_memory(state.tau, seen[0][state.layer_index][layer.weight_name])
    assert _snapshot(restored) == _snapshot(trainer)


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
    ("euclid_hyper", "eta", -5.0),
    ("euclid_hyper", "momentum", -1.0),
    ("euclid_hyper", "weight_decay", -2.0),
    ("net_meta", "bn_eps", 0.0),
    ("net_meta", "kind", "rnn"),
    # A JSON value of the wrong type, which a range check alone would take: true as 1.0, 2 or 1 as True.
    ("euclid_hyper", "nesterov", 2),
    (None, "alpha", True),
    (None, "bn_weight_decay", 1),
])
def test_bad_header_value_raises_validation_error(tmp_path, section, key, value):
    trainer, _ = _trained()
    good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
    save_checkpoint(good, trainer)
    _with_header(good, bad, lambda header: (header[section] if section else header).__setitem__(key, value))
    with pytest.raises(ValidationError, match="header") as refused:
        load_checkpoint(bad)
    assert key in str(refused.value) or repr(value) in str(refused.value)  # names the key, or an unknown kind


@pytest.mark.parametrize("optimizer, edit", [
    ("sgd-g", lambda hyper: hyper.__setitem__("nu", -1.0)),
    ("sgd-g", lambda hyper: hyper.__setitem__("beta1", 0.5)),  # an Adam-G field
    ("adam-g", lambda hyper: hyper.__setitem__("epsilon", 0.0)),
    ("adam-g", lambda hyper: hyper.__setitem__("gamma", 0.5)),  # an SGD-G field
    ("sgd-g", lambda hyper: hyper.__setitem__("nu", True)),  # a JSON bool, not a float
    ("adam-g", lambda hyper: hyper.__setitem__("beta1", 0)),  # a JSON int, not a float
    ("adam-g", lambda hyper: hyper.pop("epsilon")),  # would load as the default
], ids=["sgd-g-nu", "sgd-g-beta1", "adam-g-epsilon", "adam-g-gamma", "sgd-g-nu-bool", "adam-g-beta1-int",
        "adam-g-no-epsilon"])
def test_bad_grassmann_hyper_raises_validation_error(tmp_path, optimizer, edit):
    trainer, _ = _trained(optimizer)
    good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
    save_checkpoint(good, trainer)
    _with_header(good, bad, lambda header: edit(header["grassmann_hyper"]))
    with pytest.raises(ValidationError, match="header"):
        load_checkpoint(bad)


@pytest.mark.parametrize("optimizer, hyper", [
    ("sgd", {"gamma": 0.9, "nu": 0.1}),  # a hyper for the baseline, which takes none
    ("sgd-g", None),
    ("adam-g", None),
])
def test_grassmann_hyper_that_does_not_fit_the_optimizer_raises_validation_error(tmp_path, optimizer, hyper):
    trainer, _ = _trained(optimizer)
    good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
    save_checkpoint(good, trainer)
    _with_header(good, bad, lambda header: header.__setitem__("grassmann_hyper", hyper))
    with pytest.raises(ValidationError, match="header"):
        load_checkpoint(bad)


def test_negative_alpha_in_header_raises_validation_error(tmp_path):
    trainer, _ = _trained()
    good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
    save_checkpoint(good, trainer)
    _with_header(good, bad, lambda header: header.__setitem__("alpha", -5.0))
    with pytest.raises(ValidationError, match="alpha must be nonnegative"):
        load_checkpoint(bad)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_alpha_in_header_that_is_not_finite_raises_validation_error(tmp_path, value):
    trainer, _ = _trained()
    good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
    save_checkpoint(good, trainer)
    _with_header(good, bad, lambda header: header.__setitem__("alpha", value))  # JSON NaN / Infinity
    with pytest.raises(ValidationError, match="alpha must be nonnegative and finite"):
        load_checkpoint(bad)


# Hyperparameters that all differ from their defaults, for each optimizer's Grassmann hyper.
GRASSMANN_HYPERS = {
    "sgd": None,
    "sgd-g": optim.SgdGHyper(gamma=0.8, nu=0.2),
    "adam-g": optim.AdamGHyper(beta1=0.8, beta2=0.95, nu=0.3, epsilon=1e-6),
}


def test_checkpoint_restores_every_hyperparameter(tmp_path):
    euclid = optim.EuclideanHyper(momentum=0.5, weight_decay=0.001, nesterov=False)
    for hyper in (euclid, GRASSMANN_HYPERS["sgd-g"], GRASSMANN_HYPERS["adam-g"]):
        assert all(getattr(hyper, f.name) != f.default for f in dataclasses.fields(hyper))
    for optimizer, grassmann in GRASSMANN_HYPERS.items():
        rng = np.random.default_rng(35)
        trainer = Trainer(build_mlp(16, (16, 8), 3, rng), optimizer, euclid=euclid, grassmann=grassmann,
                          alpha=0.05, bn_weight_decay=optimizer != "sgd")
        path = tmp_path / f"{optimizer}.npz"
        save_checkpoint(path, trainer)
        restored = load_checkpoint(path)
        assert restored.optimizer == optimizer
        assert restored.euclid_hyper == euclid
        assert restored.grassmann_hyper == grassmann
        assert type(restored.grassmann_hyper) is type(grassmann)
        assert restored.alpha == 0.05 != training.ORTHO_ALPHA
        assert restored.decay_groups["bn"] is (optimizer != "sgd")


def test_hyper_fields_given_as_ints_load_as_their_declared_types(tmp_path):
    # A load refuses a JSON int where a float or a bool is declared, so a save must write the declared type.
    trainer = Trainer(build_mlp(16, (16, 8), 3, np.random.default_rng(35)), "sgd-g",
                      euclid=optim.EuclideanHyper(momentum=0, nesterov=1), grassmann=optim.SgdGHyper(gamma=0, nu=1))
    save_checkpoint(tmp_path / "ckpt.npz", trainer)
    restored = load_checkpoint(tmp_path / "ckpt.npz")
    assert (restored.euclid_hyper, restored.grassmann_hyper) == (trainer.euclid_hyper, trainer.grassmann_hyper)
    assert restored.euclid_hyper.nesterov is True
    assert all(type(getattr(h, f)) is float for h, f in [(restored.euclid_hyper, "momentum"),
                                                          (restored.grassmann_hyper, "gamma"),
                                                          (restored.grassmann_hyper, "nu")])


def test_trainer_takes_only_its_optimizers_grassmann_hyper():
    net = build_mlp(16, (16, 8), 3, np.random.default_rng(36))
    assert Trainer(net, "sgd").grassmann_hyper is None
    assert Trainer(net, "sgd-g").grassmann_hyper == optim.SgdGHyper()
    assert Trainer(net, "adam-g").grassmann_hyper == optim.AdamGHyper()
    with pytest.raises(PreconditionError, match="takes no Grassmann hyper"):
        Trainer(net, "sgd", grassmann=optim.SgdGHyper())
    with pytest.raises(PreconditionError, match="takes a SgdGHyper"):
        Trainer(net, "sgd-g", grassmann=optim.AdamGHyper())
    with pytest.raises(PreconditionError, match="takes a AdamGHyper"):
        Trainer(net, "adam-g", grassmann=optim.SgdGHyper())
    with pytest.raises(PreconditionError, match="takes a AdamGHyper"):
        Trainer(net, "adam-g", grassmann={"beta1": 0.9})


def test_header_holds_only_what_loading_reads(tmp_path):
    common = ["version", "net_meta", "optimizer", "alpha", "bn_weight_decay", "euclid_hyper",
              "grassmann_hyper", "partition"]
    for optimizer, extra in (("sgd", []), ("sgd-g", []), ("adam-g", ["t"])):
        trainer, _ = _trained(optimizer)
        path = tmp_path / f"{optimizer}.npz"
        save_checkpoint(path, trainer)
        with np.load(path) as archive:
            header = json.loads(bytes(archive["__header__"]).decode())
            moments = sorted(name for name in archive.files if name.endswith(".v"))
        assert header["version"] == 3
        assert sorted(header) == sorted(common + extra)
        assert sorted(header["partition"]) == ["euclidean", "points"]
        hyper = header["grassmann_hyper"]
        assert hyper == (None if optimizer == "sgd" else dataclasses.asdict(trainer.grassmann_hyper))
        # Adam-G alone keeps second moments, one array per Grassmann layer, and the step count.
        assert moments == (["layer3.v"] if optimizer == "adam-g" else [])
        if optimizer == "adam-g":
            assert header["t"] == 3


def test_version_1_checkpoint_raises_validation_error(tmp_path):
    trainer, _ = _trained()
    good, old = tmp_path / "good.npz", tmp_path / "old.npz"
    save_checkpoint(good, trainer)
    _with_header(good, old, lambda header: header.__setitem__("version", 1))
    with pytest.raises(ValidationError, match="unsupported checkpoint version 1"):
        load_checkpoint(old)


@pytest.mark.parametrize("optimizer", ["sgd", "sgd-g", "adam-g"])
def test_version_2_checkpoint_raises_validation_error(tmp_path, optimizer):
    trainer, _ = _trained(optimizer)
    good, old = tmp_path / "good.npz", tmp_path / "old.npz"
    save_checkpoint(good, trainer)
    _with_header(good, old, lambda header: header.__setitem__("version", 2))
    with pytest.raises(ValidationError, match="unsupported checkpoint version 2, expected 3"):
        load_checkpoint(old)


@pytest.mark.parametrize("case, array, message", [
    ("missing", None, "has no array 'layer3.v'"),
    ("wrong_shape", np.zeros(9), "'layer3.v' has shape"),
    ("inf", np.full(8, np.inf), "'layer3.v'"),
    ("nan", np.full(8, np.nan), "'layer3.v'"),
    ("negative", np.full(8, -1.0), "'layer3.v' holds a negative"),
    ("float32", np.zeros(8, dtype=np.float32), "'layer3.v'"),
])
def test_bad_adamg_second_moment_raises_validation_error(tmp_path, case, array, message):
    trainer, _ = _trained("adam-g")
    good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
    save_checkpoint(good, trainer)
    _rewrite(good, bad, **{"layer3.v": array})
    with pytest.raises(ValidationError, match=re.escape(message)):
        load_checkpoint(bad)


@pytest.mark.parametrize("value", [-1, True, 3.0, "3", None, [3]])
def test_bad_adamg_step_count_raises_validation_error(tmp_path, value):
    trainer, _ = _trained("adam-g")
    good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
    save_checkpoint(good, trainer)
    _with_header(good, bad, lambda header: header.__setitem__("t", value))
    with pytest.raises(ValidationError, match="step count t must be a nonnegative int"):
        load_checkpoint(bad)


def test_missing_adamg_step_count_raises_validation_error(tmp_path):
    trainer, _ = _trained("adam-g")
    good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
    save_checkpoint(good, trainer)
    _with_header(good, bad, lambda header: header.pop("t"))
    with pytest.raises(ValidationError, match="header is invalid"):
        load_checkpoint(bad)


def _stored_forms(arr):
    """Forms of a float64 array that a checkpoint may hold but loading must refuse."""
    nan, inf = arr.copy(), arr.copy()
    nan.flat[0], inf.flat[-1] = np.nan, -np.inf
    return {
        "text": np.full(arr.shape, "abc"),
        "numeric_text": arr.astype(str),
        "float32": arr.astype(np.float32),
        "complex": arr.astype(np.complex128),
        "nan": nan,
        "inf": inf,
    }


@pytest.mark.parametrize("form", ["text", "numeric_text", "float32", "complex", "nan", "inf"])
@pytest.mark.parametrize("name", ["layer0.W", "layer1.running_var", "layer6.W", "point3.tau", "euclid0.velocity"])
def test_array_that_is_not_finite_float64_raises_validation_error(tmp_path, name, form):
    trainer, _ = _trained()
    good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
    save_checkpoint(good, trainer)
    with np.load(good) as archive:
        stored = _stored_forms(archive[name])[form]
    _rewrite(good, bad, **{name: stored})
    with pytest.raises(ValidationError, match=re.escape(repr(name))):
        load_checkpoint(bad)


@pytest.mark.parametrize("value", [-1.0, 0.0])
def test_running_variance_that_is_not_positive_raises_validation_error(tmp_path, value):
    trainer, _ = _trained()
    good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
    save_checkpoint(good, trainer)
    running_var = trainer.net.layers[1].running_var.copy()
    running_var[2] = value
    _rewrite(good, bad, **{"layer1.running_var": running_var})
    with pytest.raises(ValidationError, match="'layer1.running_var' holds a variance that is not positive"):
        load_checkpoint(bad)


def test_grassmann_columns_that_are_not_unit_raise_validation_error(tmp_path):
    trainer, _ = _trained()
    good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
    save_checkpoint(good, trainer)
    w = trainer.net.layers[3].W.copy()  # layer 3, the one Grassmann layer
    w[:, 2] *= 1.5  # its momentum stays tangent: only the unit check can refuse it
    _rewrite(good, bad, **{"layer3.W": w})
    with pytest.raises(ValidationError, match="'layer3.W' columns must be unit norm"):
        load_checkpoint(bad)


def test_save_refuses_non_finite_state_and_keeps_previous_checkpoint(tmp_path):
    trainer, _ = _trained()
    path = tmp_path / "checkpoint.npz"
    save_checkpoint(path, trainer)
    before = path.read_bytes()
    trainer.net.layers[4].running_var[0] = np.inf
    with pytest.raises(NumericalError, match="layer4.running_var"):
        save_checkpoint(path, trainer)
    assert os.listdir(tmp_path) == ["checkpoint.npz"]
    assert path.read_bytes() == before


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_save_refuses_non_finite_adamg_second_moment(tmp_path, value):
    trainer, _ = _trained("adam-g")
    path = tmp_path / "checkpoint.npz"
    save_checkpoint(path, trainer)
    before = path.read_bytes()
    trainer.layer_states[0].v[2] = value  # layer 3, the one Grassmann layer
    with pytest.raises(NumericalError, match="layer3.v"):
        save_checkpoint(path, trainer)
    assert path.read_bytes() == before
