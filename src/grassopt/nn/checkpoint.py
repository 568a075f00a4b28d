"""Versioned checkpoints: parameters, partition map, optimizer states, BN statistics.

The on-disk format is an ``.npz`` archive holding every float64 array verbatim
plus one JSON header describing the architecture, the partition and the
optimizer hyperparameters: only what loading reads, so no learning rate.
The arrays are one table, ``_state``, each with its name and bound. A save
writes it and refuses an array that is not finite. A load fills a rebuilt
:class:`~grassopt.nn.training.Trainer` from it in place, bit-exact. It refuses
an array that is missing, misshapen, not finite float64 or out of its bound (a
BN ``running_var`` must be positive, Adam-G's ``layer{k}.v`` nonnegative), a
Grassmann layer whose columns are not unit or whose momenta are not tangent at
them, and a header scalar whose JSON type is not its field's.

Format version 3 stores the state of the trainer's one Grassmann optimizer,
its hyperparameters as the header's ``grassmann_hyper`` (null for ``sgd``).
The momentum of point (column) ``i`` is ``point{i}.tau``: points are numbered
over the Grassmann layers in order, then the columns in order, so a layer owns
one contiguous block. Adam-G's header adds ``t``, the step count that every
step advances in every layer alike. The trainer holds its state per layer;
only this module knows the per-column layout.

A save writes a temporary file beside the target, syncs it to disk and
renames it over the target, so an interrupted save or a crash leaves the
previous checkpoint in place. A process killed during a save can leave its
``.<name>.<pid>.tmp`` file behind; nothing reads it.
"""

import contextlib
import dataclasses
import json
import os
import zipfile

import numpy as np

from .. import manifold, optim
from ..errors import NumericalError, PreconditionError, ValidationError
from .layers import BatchNormLayer
from .network import build_network
from .training import GRASSMANN, Trainer

__all__ = ["CHECKPOINT_VERSION", "save_checkpoint", "load_checkpoint"]

CHECKPOINT_VERSION = 3


def _state(trainer):
    """Every stored array, the trainer's own, as ``(name, array, bound)`` in the archive's order. A
    bound beyond finite float64 is ``(test against 0, what an array that fails it holds)``, or None."""
    for k, layer in enumerate(trainer.net.layers):
        for name, arr in layer.params().items():
            yield f"layer{k}.{name}", arr, None
        if isinstance(layer, BatchNormLayer):
            yield f"layer{k}.running_mean", layer.running_mean, None
            yield f"layer{k}.running_var", layer.running_var, (np.greater, "a variance that is not positive")
    columns = (s.tau[:, j] for s in trainer.layer_states for j in range(s.tau.shape[1]))  # in _points order
    for i, tau in enumerate(columns):
        yield f"point{i}.tau", tau, None
    for i, velocity in enumerate(trainer.velocities):
        yield f"euclid{i}.velocity", velocity, None
    if trainer.optimizer == "adam-g":
        for state in trainer.layer_states:
            yield f"layer{state.layer_index}.v", state.v, (np.greater_equal, "a negative second moment")


def _points(trainer):
    """The format's points as ``(layer, column, n)``: layers in order, then columns in order."""
    return [
        (s.layer_index, j, s.tau.shape[0]) for s in trainer.layer_states for j in range(s.tau.shape[1])
    ]


def save_checkpoint(path, trainer: Trainer) -> None:
    """Write ``trainer`` to ``path`` atomically; NumericalError, ``path`` untouched, if not finite."""
    arrays = {name: arr for name, arr, _ in _state(trainer)}
    hyper = trainer.grassmann_hyper
    header = {
        "version": CHECKPOINT_VERSION,
        "net_meta": trainer.net.meta,
        "optimizer": trainer.optimizer,
        "alpha": trainer.alpha,
        "bn_weight_decay": trainer.decay_groups["bn"],
        "euclid_hyper": _typed_fields(trainer.euclid_hyper),
        "grassmann_hyper": None if hyper is None else _typed_fields(hyper),
        "partition": {
            "points": _points(trainer),
            "euclidean": [[ref.layer_index, ref.name, ref.group] for ref in trainer.partition.euclidean],
        },
    }
    if trainer.optimizer == "adam-g":
        header["t"] = trainer.layer_states[0].t if trainer.layer_states else 0
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise NumericalError(f"checkpoint array {name!r} is not finite; the previous checkpoint is kept")

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


def _typed_fields(hyper):
    """A hyper's fields, each as its declared type, which a load requires: ``SgdGHyper(nu=1)`` saves 1.0."""
    return {f.name: f.type(getattr(hyper, f.name)) for f in dataclasses.fields(hyper)}


def _require_scalar_types(header, hyper_type):
    """ValidationError unless ``alpha``, ``bn_weight_decay`` and each hyper field hold their declared
    JSON type: a range check alone would take ``true`` as the float 1.0, or 2 as a bool."""
    fields = [("alpha", header.get("alpha"), float), ("bn_weight_decay", header.get("bn_weight_decay"), bool)]
    for key, cls in (("euclid_hyper", optim.EuclideanHyper), ("grassmann_hyper", hyper_type)):
        values = header[key]
        if cls is not None and isinstance(values, dict):  # anything else fails when the hyper is built
            fields += [(f"{key}.{f.name}", values.get(f.name), f.type) for f in dataclasses.fields(cls)]
    for path, value, kind in fields:
        if type(value) is not kind:
            raise ValidationError(f"checkpoint header key {path!r} must be a {kind.__name__}, got {value!r}")


def _array(arrays, name, shape):
    """The stored array ``name``, which must be finite float64 of ``shape``; ValidationError otherwise."""
    if name not in arrays:
        raise ValidationError(f"checkpoint has no array {name!r}")
    arr = arrays[name]
    if arr.shape != tuple(shape):
        raise ValidationError(f"checkpoint array {name!r} has shape {arr.shape}, expected {tuple(shape)}")
    if arr.dtype != np.float64 or not np.isfinite(arr).all():
        raise ValidationError(f"checkpoint array {name!r} ({arr.dtype}) is not finite float64")
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
        hyper_type, _ = GRASSMANN[header["optimizer"]]
        _require_scalar_types(header, hyper_type)
        saved_hyper = header["grassmann_hyper"]
        trainer = Trainer(
            net,
            header["optimizer"],
            euclid=optim.EuclideanHyper(**header["euclid_hyper"]),
            # Trainer refuses a hyper saved for sgd; a missing one for sgd-g/adam-g fails here.
            grassmann=saved_hyper if hyper_type is None else hyper_type(**saved_hyper),
            alpha=header["alpha"],
            bn_weight_decay=header["bn_weight_decay"],
        )
        saved_points = [tuple(entry) for entry in header["partition"]["points"]]
        saved_euclid = [tuple(entry) for entry in header["partition"]["euclidean"]]
        adam = trainer.optimizer == "adam-g"
        t = header["t"] if adam else 0
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: a hyper or layer check failed too
        raise ValidationError(f"checkpoint header is invalid: {exc!r}") from None

    actual_points = _points(trainer)
    actual_euclid = [(r.layer_index, r.name, r.group) for r in trainer.partition.euclidean]
    if saved_points != actual_points or saved_euclid != actual_euclid:
        raise ValidationError("checkpoint partition map does not match the rebuilt network")
    if type(t) is not int or t < 0:
        raise ValidationError(f"checkpoint step count t must be a nonnegative int, got {t!r}")

    for name, arr, bound in _state(trainer):
        arr[...] = _array(arrays, name, arr.shape)
        if bound and not bound[0](arr, 0.0).all():
            raise ValidationError(f"checkpoint array {name!r} holds {bound[1]}")

    for state in trainer.layer_states:  # what spans a layer: its columns, and its momenta at them
        k = state.layer_index
        wm = net.layers[k].weight_matrix()
        try:
            manifold.require_unit(wm, f"'layer{k}.{net.layers[k].weight_name}' columns")
            manifold.require_tangent(wm, state.tau, f"layer {k} momentum")
        except (PreconditionError, NumericalError) as exc:
            raise ValidationError(f"checkpoint: {exc}") from None
        state.base = wm.copy()
        if adam:
            state.t = t
    return trainer
