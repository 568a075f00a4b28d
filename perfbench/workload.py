"""One workload in one process: set-up timing, the measured training run, and its checks.

Started by ``run.py`` with the thread variables already pinned. ``--mode
setup`` times the path from process start to a constructed ``Trainer`` and
stops there. ``--mode run`` trains once for one epoch (warm-up, calibration
and the determinism reference), then once for as many epochs as fill the
requested seconds, measured, optionally traced; then it checks the outputs.
Either mode writes its result as JSON to ``--result``.
"""

import argparse
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from grassopt.config import make_config  # noqa: E402
from grassopt.nn import BatchNormLayer, load_checkpoint, training  # noqa: E402
from grassopt.runner import run_training  # noqa: E402

import reference  # noqa: E402
import synth  # noqa: E402
import tracing  # noqa: E402

BATCH = 32
CHANCE_MARGIN = 0.3  # final train accuracy must exceed 1/10 by this much
MIN_TAIL = 10  # samples a run must leave above its p90

# name -> (arch, optimizer, hidden or channels at full size, at tiny size)
WORKLOADS = {
    "mlp-sgdg": ("mlp", "sgd-g", (256, 128), (32, 16)),
    "mlp-sgd": ("mlp", "sgd", (256, 128), (32, 16)),
    "conv-adamg": ("conv", "adam-g", (8, 16), (4, 8)),
}


def make_cfg(workload, data_dir, seed, epochs, tiny):
    arch, optimizer, full, small = WORKLOADS[workload]
    widths = small if tiny else full
    return make_config(
        arch=arch, optimizer=optimizer, dataset="idx", data_path=data_dir, classes=synth.CLASSES,
        normalize_mode="standard", batch_size=BATCH, epochs=epochs, seed=seed,
        milestones=(10_000,),  # constant rates, whatever the number of epochs
        **({"hidden": widths} if arch == "mlp" else {"channels": widths}),
    )


class SetupDone(Exception):
    """Raised right after the Trainer is built, to end a set-up-only run."""


class StepClock:
    """Times Trainer construction and every train step of one ``run_training`` call.

    Given a tracer, it pauses the tracer on every other step and records in
    ``traced`` which steps were traced.
    """

    def __init__(self, stop_after_init=False, tracer=None):
        self.stop_after_init = stop_after_init
        self.tracer = tracer
        self.traced = []
        self.trainer = None
        self.init_end = None
        self.step_starts = []
        self.step_seconds = []
        self.samples = 0
        self.attempted = 0
        self.failed = 0

    def replacements(self):
        cls = training.Trainer
        init, step = vars(cls)["__init__"], vars(cls)["train_step"]
        clock = self

        def timed_init(trainer, *args, **kwargs):
            init(trainer, *args, **kwargs)
            clock.trainer = trainer
            clock.init_end = time.monotonic()
            if clock.stop_after_init:
                raise SetupDone

        def timed_step(trainer, bx, *args, **kwargs):
            clock.attempted += 1
            if clock.tracer:
                clock.tracer.paused = clock.attempted % 2 == 0
                clock.traced.append(not clock.tracer.paused)
            t = time.monotonic()
            try:
                out = step(trainer, bx, *args, **kwargs)
            except BaseException:
                clock.failed += 1
                raise
            finally:
                if clock.tracer:
                    clock.tracer.paused = False
            clock.step_seconds.append(time.monotonic() - t)
            clock.step_starts.append(t)
            clock.samples += bx.shape[0]
            return out

        return [(cls, "__init__", timed_init), (cls, "train_step", timed_step)]


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def metrics_rows(path):
    """Metrics CSV rows as dicts, without the ``wall_time`` column."""
    with open(path) as fh:
        header, *lines = fh.read().splitlines()
    keys = header.split(",")
    return [{k: v for k, v in zip(keys, line.split(",")) if k != "wall_time"} for line in lines]


def run_setup(args):
    clock = StepClock(stop_after_init=True)
    cfg = make_cfg(args.workload, args.data, args.seed, 1, args.tiny)
    with tracing.patch(clock.replacements()):
        try:
            run_training(cfg, out_dir=args.out)
        except SetupDone:
            pass
    return {"setup_s": clock.init_end - args.t0}


def run_measured(args):
    checks = []

    def check(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    tracer = tracing.Tracer() if args.trace else None
    warm, clock = StepClock(), StepClock(tracer=tracer)

    try:
        # Warm-up: one epoch, untraced. Sizes the measured run and is its determinism reference.
        cfg = make_cfg(args.workload, args.data, args.seed, 1, args.tiny)
        with tracing.patch(warm.replacements()):
            _, warm_paths = run_training(cfg, out_dir=os.path.join(args.out, "warmup"))
        epoch_s = time.monotonic() - warm.step_starts[0]
        min_epochs = math.ceil((10 * MIN_TAIL + 10) / len(warm.step_seconds))
        epochs = max(int(args.seconds / epoch_s), min_epochs)

        cfg = make_cfg(args.workload, args.data, args.seed, epochs, args.tiny)
        # The clock's wrappers are built inside the tracer's patch, so a timed step includes its spans.
        with tracing.patch(tracer.replacements(tracing.program_targets()) if tracer else []), tracing.patch(
            clock.replacements()
        ):
            _, paths = run_training(cfg, out_dir=os.path.join(args.out, "main"))
    except Exception as exc:  # a failed step or save ends the run; report it as a failed check
        check("training_completes", False, f"{type(exc).__name__}: {exc}")
        attempted = warm.attempted + clock.attempted
        return {"attempted": max(attempted, 1), "failed": warm.failed + clock.failed, "checks": checks, "metrics": {}}
    run_end = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    steps = sorted(1e3 * s for s in clock.step_seconds)
    p50, p90 = percentile(steps, 0.5), percentile(steps, 0.9)
    tail = sum(1 for s in steps if s > p90)
    check("p90_tail_samples", tail >= MIN_TAIL, f"{tail} step samples above p90 of {len(steps)}")
    check("no_failed_steps", clock.failed == 0, f"{clock.failed} of {clock.attempted} steps failed")

    if tracer is None:
        metrics = {
            "samples_per_s": (clock.samples / (run_end - clock.step_starts[0]), "samples/s"),
            "step_ms_p50": (p50, "ms"),
            "step_ms_p90": (p90, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = tracing.per_layer_metrics(tracer, paths["checkpoint"])
        traced = sorted(1e3 * s for s, t in zip(clock.step_seconds, clock.traced) if t)
        untraced = sorted(1e3 * s for s, t in zip(clock.step_seconds, clock.traced) if not t)
        metrics["trace.step_overhead_ms"] = (percentile(traced, 0.5) - percentile(untraced, 0.5), "ms")

    try:
        check_outputs(args, cfg, clock.trainer, paths, warm_paths, check)
    except Exception as exc:  # an output that cannot be read fails the checks, with its reason
        check("outputs_readable", False, f"{type(exc).__name__}: {exc}")
    threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
    info = {"epochs": epochs, "steps": len(steps), "process_threads": threads}
    return {"attempted": clock.attempted, "failed": clock.failed, "checks": checks, "metrics": metrics, "info": info}


def check_outputs(args, cfg, trainer, paths, warm_paths, check):
    """Properties and independent recomputations of the run's outputs."""
    rows = metrics_rows(paths["metrics"])
    warm_rows = metrics_rows(warm_paths["metrics"])
    check("deterministic_rows", rows[: len(warm_rows)] == warm_rows,
          "a second run with the same seed must write the same metrics rows")

    first, last = rows[0], rows[-1]
    check("loss_decreased", float(last["train_loss"]) < float(first["train_loss"]),
          f"train loss {first['train_loss']} -> {last['train_loss']}")
    floor = 1.0 / synth.CLASSES + CHANCE_MARGIN
    check("above_chance", float(last["train_acc"]) > floor, f"train acc {last['train_acc']} vs {floor}")

    header, arrays = reference.read_checkpoint(paths["checkpoint"])
    _, _, full, small = WORKLOADS[args.workload]
    key = "hidden" if cfg.arch == "mlp" else "channels"
    trained = header["net_meta"].get(key)
    check("workload_network", trained == list(small if args.tiny else full),
          f"trained {key} {trained} for workload {args.workload}")
    raw = synth.generate(args.seed, args.tiny)
    x = reference.standardize(raw["train_x"], raw["test_x"])[:, None, :, :]
    loss, acc = reference.loss_and_accuracy(reference.logits(cfg.arch, arrays, x), raw["test_y"].astype(np.int64))
    want_loss, want_acc = float(last["test_loss"]), float(last["test_acc"])
    check("reference_test_loss", abs(loss - want_loss) <= 1e-9 * abs(want_loss),
          f"reference {loss!r} vs metrics {want_loss!r}")
    check("reference_test_acc", acc == want_acc, f"reference {acc!r} vs metrics {want_acc!r}")

    if cfg.optimizer != "sgd":
        mats = reference.bn_fed_columns(cfg.arch, arrays)
        norms = np.concatenate([np.linalg.norm(m, axis=0) for m in mats.values()])
        check("unit_norm", np.all(np.abs(norms - 1.0) <= 1e-9),
              f"max |norm - 1| = {np.max(np.abs(norms - 1.0)):.3e} over {norms.size} columns")
        try:
            points = header["partition"]["points"]
            worst = max(abs(float(mats[layer][:, column] @ arrays[f"point{i}.tau"]))
                        for i, (layer, column, _dim) in enumerate(points))
            check("momentum_tangent", len(points) == norms.size and worst <= 1e-9,
                  f"{len(points)} stored momenta, max |y . tau| = {worst:.3e}")
        except KeyError as exc:
            check("momentum_tangent", False, f"checkpoint has no version-1 momentum entry {exc}")

    loaded = load_checkpoint(paths["checkpoint"])
    same = True
    for live, back in zip(trainer.net.layers, loaded.net.layers):
        pairs = [(live.params()[n], back.params()[n]) for n in live.params()]
        if isinstance(live, BatchNormLayer):
            pairs += [(live.running_mean, back.running_mean), (live.running_var, back.running_var)]
        same &= all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in pairs)
    check("checkpoint_bit_equal", same, "load_checkpoint must restore the live parameters and BN statistics")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--data", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--t0", type=float, default=0.0, help="monotonic clock reading just before this process was started")
    args = parser.parse_args(argv)
    result = run_setup(args) if args.mode == "setup" else run_measured(args)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
