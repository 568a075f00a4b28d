"""Versioned checkpoints: parameters, partition map, optimizer states, BN statistics.

The on-disk format is an ``.npz`` archive holding every float64 array verbatim
plus one JSON header describing the architecture, the partition, the optimizer
hyperparameters, and the scalar optimizer state. Loading rebuilds a
:class:`~grassopt.nn.training.Trainer` whose arrays compare bit-exact with the
saved ones.

Format version 1 stores Grassmann state per point (column): the momentum of
point ``i`` is the array ``point{i}.tau`` and its Adam-G scalars are entry
``i`` of the header's ``point_scalars``. Points are numbered over the
Grassmann layers in order and the columns in order within each, so a layer
owns one contiguous block of indices. The trainer holds that state per
layer, and only this module knows the per-column layout.

A save writes a temporary file beside the target, syncs it to disk and
renames it over the target, so an interrupted save or a crash leaves the
previous checkpoint in place. A process killed during a save can leave its
``.<name>.<pid>.tmp`` file behind; nothing reads it.
"""

import contextlib
import json
import os
import zipfile

import numpy as np

from .. import manifold, optim
from ..errors import NumericalError, PreconditionError, ValidationError
from .layers import BatchNormLayer
from .network import build_network
from .training import Trainer

__all__ = ["CHECKPOINT_VERSION", "save_checkpoint", "load_checkpoint"]

CHECKPOINT_VERSION = 1


def _layer_arrays(net):
    for k, layer in enumerate(net.layers):
        for name, arr in layer.params().items():
            yield f"layer{k}.{name}", arr
        if isinstance(layer, BatchNormLayer):
            yield f"layer{k}.running_mean", layer.running_mean
            yield f"layer{k}.running_var", layer.running_var


def _points(trainer):
    """Format 1's points as ``(layer, column, n)``: layers in order, then columns in order."""
    return [
        (s.layer_index, j, s.tau.shape[0]) for s in trainer.layer_states for j in range(s.tau.shape[1])
    ]


def save_checkpoint(path, trainer: Trainer) -> None:
    arrays = dict(_layer_arrays(trainer.net))
    states = {s.layer_index: s for s in trainer.layer_states}
    adam = trainer.optimizer == "adam-g"
    point_scalars = []
    for i, (k, j, _) in enumerate(_points(trainer)):
        arrays[f"point{i}.tau"] = states[k].tau[:, j]
        point_scalars.append({"v": float(states[k].v[j]), "t": states[k].t} if adam else {})
    for i, velocity in enumerate(trainer.velocities):
        arrays[f"euclid{i}.velocity"] = velocity

    header = {
        "version": CHECKPOINT_VERSION,
        "net_meta": trainer.net.meta,
        "optimizer": trainer.optimizer,
        "eta_e": trainer.euclid_hyper.eta,
        "eta_g": (trainer.adamg_hyper if trainer.optimizer == "adam-g" else trainer.sgdg_hyper).eta,
        "alpha": trainer.alpha,
        "bn_weight_decay": trainer.decay_groups["bn"],
        "euclid_hyper": vars(trainer.euclid_hyper),
        "sgdg_hyper": vars(trainer.sgdg_hyper),
        "adamg_hyper": vars(trainer.adamg_hyper),
        "partition": {
            "points": _points(trainer),
            "euclidean": [[ref.layer_index, ref.name, ref.group] for ref in trainer.partition.euclidean],
            "grassmann_layers": list(trainer.partition.grassmann_layers),
        },
        "point_scalars": point_scalars,
    }
    directory, name = os.path.split(os.path.abspath(os.fspath(path)))
    # open() rather than mkstemp, so the file gets the usual umask permissions, not 0600.
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, __header__=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8), **arrays)
            fh.flush()
            os.fsync(fh.fileno())  # the data is on disk before the rename can be
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    if os.name == "posix":  # make the rename itself durable
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def _array(arrays, name, shape):
    """The stored array ``name``, which must have ``shape``; ValidationError otherwise."""
    if name not in arrays:
        raise ValidationError(f"checkpoint has no array {name!r}")
    arr = arrays[name]
    if arr.shape != tuple(shape):
        raise ValidationError(f"checkpoint array {name!r} has shape {arr.shape}, expected {tuple(shape)}")
    return arr


def _read(path):
    try:
        with np.load(path) as archive:
            if "__header__" not in archive.files:
                raise ValidationError("checkpoint has no header")
            header = json.loads(bytes(archive["__header__"]).decode())
            arrays = {k: archive[k] for k in archive.files if k != "__header__"}
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:  # ValueError: a malformed header too
        raise ValidationError(f"unreadable checkpoint {os.fspath(path)!r}: {exc}") from None
    if not isinstance(header, dict) or header.get("version") != CHECKPOINT_VERSION:
        version = header.get("version") if isinstance(header, dict) else None
        raise ValidationError(f"unsupported checkpoint version {version!r}, expected {CHECKPOINT_VERSION}")
    return header, arrays


def load_checkpoint(path) -> Trainer:
    header, arrays = _read(path)
    try:
        net = build_network(header["net_meta"], np.random.default_rng(0))
        trainer = Trainer(
            net,
            header["optimizer"],
            euclid=optim.EuclideanHyper(**header["euclid_hyper"]),
            sgdg=optim.SgdGHyper(**header["sgdg_hyper"]),
            adamg=optim.AdamGHyper(**header["adamg_hyper"]),
            alpha=header["alpha"],
            bn_weight_decay=header["bn_weight_decay"],
        )
        saved_points = [tuple(entry) for entry in header["partition"]["points"]]
        saved_euclid = [tuple(entry) for entry in header["partition"]["euclidean"]]
        point_scalars = header["point_scalars"]
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: a hyper or layer check failed too
        raise ValidationError(f"checkpoint header is invalid: {exc!r}") from None

    actual_points = _points(trainer)
    actual_euclid = [(r.layer_index, r.name, r.group) for r in trainer.partition.euclidean]
    if saved_points != actual_points or saved_euclid != actual_euclid:
        raise ValidationError("checkpoint partition map does not match the rebuilt network")
    adam = trainer.optimizer == "adam-g"
    if len(point_scalars) != len(actual_points) or (adam and not all(
        isinstance(s, dict) and {"v", "t"} <= set(s) for s in point_scalars
    )):
        raise ValidationError("checkpoint point_scalars do not match the partition")

    for name, arr in _layer_arrays(net):
        arr[...] = _array(arrays, name, arr.shape)

    first = 0  # the layer's columns are points first, first + 1, ..., first + p - 1
    for state in trainer.layer_states:
        wm = net.layers[state.layer_index].weight_matrix()
        n, p = wm.shape
        tau = np.empty_like(wm)
        for j in range(p):
            tau[:, j] = _array(arrays, f"point{first + j}.tau", (n,))
        try:
            manifold.require_unit(wm, f"layer {state.layer_index} columns")
            manifold.require_tangent(wm, tau, f"layer {state.layer_index} momentum")
        except (PreconditionError, NumericalError) as exc:
            raise ValidationError(f"checkpoint: {exc}") from None
        state.base, state.tau = wm.copy(), tau
        if adam:
            scalars = point_scalars[first : first + p]
            steps = {s["t"] for s in scalars}
            if len(steps) != 1:
                raise ValidationError(f"layer {state.layer_index} points have different step counts {steps}")
            state.v = np.array([float(s["v"]) for s in scalars])
            state.t = int(steps.pop())
        first += p

    for i, velocity in enumerate(trainer.velocities):
        velocity[...] = _array(arrays, f"euclid{i}.velocity", velocity.shape)
    return trainer
