"""Versioned checkpoints: parameters, partition map, optimizer states, BN statistics.

The on-disk format is an ``.npz`` archive holding every float64 array verbatim
plus one JSON header describing the architecture, the partition, the optimizer
hyperparameters, and the scalar optimizer state. Loading rebuilds a
:class:`~grassopt.nn.training.Trainer` whose arrays compare bit-exact with the
saved ones.

Format version 1 stores Grassmann state per point (column): the momentum of
point ``i`` is the array ``point{i}.tau`` and its Adam-G scalars are entry
``i`` of the header's ``point_scalars``. The trainer holds that state per
layer; saving slices each layer's momentum matrix into its columns and
loading puts them back together.

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
from ..errors import PreconditionError, ValidationError
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


def save_checkpoint(path, trainer: Trainer) -> None:
    arrays = dict(_layer_arrays(trainer.net))
    states = {s.layer_index: s for s in trainer.layer_states}
    point_scalars = []
    for i, ref in enumerate(trainer.partition.points):
        state = states[ref.layer_index]
        arrays[f"point{i}.tau"] = state.tau[:, ref.column]
        if trainer.optimizer == "adam-g":
            point_scalars.append({"v": float(state.v[ref.column]), "t": state.t})
        else:
            point_scalars.append({})
    for i, state in enumerate(trainer.euclid_states):
        arrays[f"euclid{i}.velocity"] = state.velocity

    header = {
        "version": CHECKPOINT_VERSION,
        "net_meta": trainer.net.meta,
        "optimizer": trainer.optimizer,
        "eta_e": trainer.eta_e,
        "eta_g": trainer.eta_g,
        "alpha": trainer.alpha,
        "bn_weight_decay": trainer.decay_groups["bn"],
        "euclid_hyper": vars(trainer.euclid_hyper),
        "sgdg_hyper": vars(trainer.sgdg_hyper),
        "adamg_hyper": vars(trainer.adamg_hyper),
        "partition": {
            "points": [[ref.layer_index, ref.column, ref.dim] for ref in trainer.partition.points],
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
        sg = header["sgdg_hyper"]
        ag = header["adamg_hyper"]
        eh = header["euclid_hyper"]
        trainer = Trainer(
            net,
            header["optimizer"],
            eta_e=header["eta_e"],
            eta_g=header["eta_g"],
            gamma=sg["gamma"],
            beta1=ag["beta1"],
            beta2=ag["beta2"],
            nu=sg["nu"],
            alpha=header["alpha"],
            weight_decay=eh["weight_decay"],
            nesterov=eh["nesterov"],
            bn_weight_decay=header["bn_weight_decay"],
        )
        saved_points = [tuple(entry) for entry in header["partition"]["points"]]
        saved_euclid = [tuple(entry) for entry in header["partition"]["euclidean"]]
        point_scalars = header["point_scalars"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"checkpoint header is incomplete: {exc!r}") from None

    actual_points = [(r.layer_index, r.column, r.dim) for r in trainer.partition.points]
    actual_euclid = [(r.layer_index, r.name, r.group) for r in trainer.partition.euclidean]
    if saved_points != actual_points or saved_euclid != actual_euclid:
        raise ValidationError("checkpoint partition map does not match the rebuilt network")
    adam = trainer.optimizer == "adam-g"
    if len(point_scalars) != len(actual_points) or (adam and not all(
        isinstance(s, dict) and {"v", "t"} <= set(s) for s in point_scalars
    )):
        raise ValidationError("checkpoint point_scalars do not match the partition")

    for k, layer in enumerate(net.layers):
        for name, arr in layer.params().items():
            arr[...] = _array(arrays, f"layer{k}.{name}", arr.shape)
        if isinstance(layer, BatchNormLayer):
            layer.running_mean[...] = _array(arrays, f"layer{k}.running_mean", layer.running_mean.shape)
            layer.running_var[...] = _array(arrays, f"layer{k}.running_var", layer.running_var.shape)

    points_of = {}
    for i, ref in enumerate(trainer.partition.points):
        points_of.setdefault(ref.layer_index, []).append((i, ref.column))
    for state in trainer.layer_states:
        wm = net.layers[state.layer_index].weight_matrix()
        points = [i for i, _ in points_of[state.layer_index]]
        tau = np.empty_like(wm)
        for i, column in points_of[state.layer_index]:
            tau[:, column] = _array(arrays, f"point{i}.tau", (wm.shape[0],))
        try:
            manifold.require_unit(wm, f"layer {state.layer_index} columns")
            manifold.require_tangent(wm, tau, f"layer {state.layer_index} momentum")
        except PreconditionError as exc:
            raise ValidationError(f"checkpoint: {exc}") from None
        state.base, state.tau = wm.copy(), tau
        if adam:
            steps = {point_scalars[i]["t"] for i in points}
            if len(steps) != 1:
                raise ValidationError(f"layer {state.layer_index} points have different step counts {steps}")
            state.v = np.array([float(point_scalars[i]["v"]) for i in points])
            state.t = int(steps.pop())

    for i, state in enumerate(trainer.euclid_states):
        velocity = _array(arrays, f"euclid{i}.velocity", state.velocity.shape)
        trainer.euclid_states[i] = optim.EuclideanSgdState(velocity, trainer.euclid_hyper)
    return trainer
