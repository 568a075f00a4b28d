"""Timing wrappers installed from outside the program, and the spans they record.

``patch`` swaps an attribute for the length of a ``with`` block. A module
function is replaced under every name that any loaded ``grassopt`` module
binds it to, because callers bind differently: ``runner`` imports
``save_checkpoint`` by name, ``nn.training`` does the same for ``ortho_loss``,
``ortho_grad`` and ``geodesic_angle``, while ``nn.training`` reaches
``sgdg_step`` through the ``optim`` module. Methods are replaced on their
class, which covers every instance.

``Tracer`` keeps one record per call (name, start, end, parent span) in flat
arrays and turns them into the per-layer figures only after the run.
"""

import contextlib
import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np


@contextlib.contextmanager
def patch(replacements):
    """Apply ``[(owner, attribute, new_value), ...]``; restore all on exit."""
    saved = []
    try:
        for owner, name, value in replacements:
            saved.append((owner, name, vars(owner)[name]))
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


def bindings(fn):
    """Every (module, attribute) of a loaded ``grassopt`` module that is bound to ``fn``."""
    out = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "grassopt" or mod_name.startswith("grassopt.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                out.append((mod, attr))
    return out


class Tracer:
    """Records one span per wrapped call: name, start, end and enclosing span.

    While ``paused`` is true the wrappers call straight through and record
    nothing; the benchmark pauses every other train step, so that traced and
    untraced steps interleave in one run and their difference is the tracing
    overhead.
    """

    def __init__(self):
        self.paused = False
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn):
        """``fn`` wrapped to record a span named ``name``."""
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            sid = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def replacements(self, targets):
        """Patch list for ``[(span name, owner, attribute), ...]``.

        A class owner has its method wrapped in place. A module owner's
        function is wrapped once and rebound in every module that holds it.
        """
        out = []
        for name, owner, attr in targets:
            original = vars(owner)[attr]
            wrapped = self.wrap(name, original)
            if isinstance(owner, type):
                out.append((owner, attr, wrapped))
            else:
                out.extend((mod, a, wrapped) for mod, a in bindings(original))
        return out

    def spans(self):
        """Arrays of the recorded spans: name ids, parents, start, end, self time."""
        name_of = np.frombuffer(self.name_of, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return name_of, parent, start, end, dur - child


def program_targets():
    """The program's public entry points, one span name each, grouped by module.

    An entry point the program no longer has is left out; its figures read 0.
    """
    from grassopt import manifold, optim, regularizer, runner
    from grassopt.nn import checkpoint, layers, network, training

    methods = [
        ("training.init", training.Trainer, "__init__"),
        ("training.step", training.Trainer, "train_step"),
        ("training.ortho_total", training.Trainer, "ortho_total"),
        ("network.loss_and_grads", network.Network, "loss_and_grads"),
        ("network.running_updates", network.Network, "apply_running_updates"),
        ("network.evaluate", network.Network, "evaluate"),
    ]
    for short, cls in (("dense", layers.DenseLayer), ("conv", layers.ConvLayer),
                       ("bn", layers.BatchNormLayer), ("relu", layers.ReluLayer)):
        methods += [(f"layers.{short}.{m}", cls, m) for m in ("forward", "backward")]
    functions = [
        ("data.build", runner, "build_dataset"),
        ("layers.softmax_ce", layers, "softmax_ce"),
        ("regularizer.ortho_loss", regularizer, "ortho_loss"),
        ("regularizer.ortho_grad", regularizer, "ortho_grad"),
        ("optim.sgdg_step", optim, "sgdg_step"),
        ("optim.adamg_step", optim, "adamg_step"),
        ("optim.euclidean_sgd_step", optim, "euclidean_sgd_step"),
        ("checkpoint.save", checkpoint, "save_checkpoint"),
    ]
    functions += [(f"manifold.{f}", manifold, f) for f in manifold.__all__
                  if inspect.isfunction(getattr(manifold, f))]
    return [(name, owner, attr) for name, owner, attr in methods + functions if attr in vars(owner)]


def per_layer_metrics(tracer, checkpoint_path):
    """The per-layer figures of one traced training run.

    A time marked per step counts only calls made inside ``train_step``; it is
    the total over the run divided by the number of steps.
    """
    name_of, parent, start, end, self_time = tracer.spans()
    names = tracer.names
    ids = {n: i for i, n in enumerate(names)}

    def mask(name):
        return name_of == ids[name] if name in ids else np.zeros(name_of.shape, dtype=bool)

    step = mask("training.step")
    steps = int(step.sum())
    step_start, step_end = start[step], end[step]
    k = np.searchsorted(step_start, start, side="right") - 1
    in_step = (k >= 0) & (start < step_end[np.maximum(k, 0)])
    is_manifold = np.array([n.startswith("manifold.") for n in names], dtype=bool)[name_of]
    parent_manifold = np.zeros_like(is_manifold)
    parent_manifold[parent >= 0] = is_manifold[parent[parent >= 0]]
    dur = end - start

    def per_step_ms(*span_names):
        sel = np.zeros(name_of.shape, dtype=bool)
        for n in span_names:
            sel |= mask(n)
        return 1e3 * float(dur[sel & in_step].sum()) / steps

    def per_step_calls(*span_names):
        return sum(int((mask(n) & in_step).sum()) for n in span_names) / steps

    def mean_ms(name, per=1):
        sel = mask(name)
        calls = int(sel.sum()) // per
        return 1e3 * float(dur[sel].sum()) / calls if calls else 0.0

    manifold_top = is_manifold & ~parent_manifold & in_step
    with np.load(checkpoint_path) as archive:
        checkpoint_arrays = len(archive.files) - 1  # without the header
    out = {
        "training.init_ms": (mean_ms("training.init"), "ms"),
        "training.step_ms": (per_step_ms("training.step"), "ms"),
        "training.step_self_ms": (1e3 * float(self_time[step].sum()) / steps, "ms"),
        "training.ortho_total_ms": (mean_ms("training.ortho_total"), "ms"),
        "network.loss_and_grads_ms": (per_step_ms("network.loss_and_grads"), "ms"),
        "network.running_updates_ms": (per_step_ms("network.running_updates"), "ms"),
        # run_training evaluates the train and the test split at each evaluation point
        "network.evaluate_ms": (mean_ms("network.evaluate", per=2), "ms"),
        "layers.softmax_ce_ms": (per_step_ms("layers.softmax_ce"), "ms"),
        "regularizer.ortho_ms": (per_step_ms("regularizer.ortho_loss", "regularizer.ortho_grad"), "ms"),
        "optim.grassmann_ms": (per_step_ms("optim.sgdg_step", "optim.adamg_step"), "ms"),
        "optim.grassmann_calls": (per_step_calls("optim.sgdg_step", "optim.adamg_step"), "calls/step"),
        "optim.euclidean_ms": (per_step_ms("optim.euclidean_sgd_step"), "ms"),
        "optim.euclidean_calls": (per_step_calls("optim.euclidean_sgd_step"), "calls/step"),
        "manifold.ms": (1e3 * float(dur[manifold_top].sum()) / steps, "ms"),
        "manifold.calls": (int((is_manifold & in_step).sum()) / steps, "calls/step"),
        "checkpoint.save_ms": (mean_ms("checkpoint.save"), "ms"),
        "checkpoint.bytes": (os.path.getsize(checkpoint_path), "bytes"),
        "checkpoint.arrays": (checkpoint_arrays, "count"),
        "data.build_ms": (mean_ms("data.build"), "ms"),
    }
    for short in ("dense", "conv", "bn", "relu"):
        for phase in ("forward", "backward"):
            out[f"layers.{short}.{phase}_ms"] = (per_step_ms(f"layers.{short}.{phase}"), "ms")
    out["trace.spans_per_step"] = (int(in_step.sum()) / steps, "count")
    return out

