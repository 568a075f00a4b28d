"""Config-driven training and optimizer-comparison runs.

``run_training`` owns the epoch loop: it streams one metrics record per epoch
(flushed immediately, so a crash leaves a valid prefix), refreshes the
checkpoint after every epoch, and leaves the resolved config beside the
outputs. ``run_compare`` repeats training across a shared seed set per
optimizer and reports the median final test error of each.
"""

import os
import time
import numpy as np

from .config import TrainConfig, config_to_ini, load_config
from .data import Dataset, gen_blobs, gen_spirals, load_csv, load_idx, normalize
from .errors import ConfigError, ValidationError
from .metrics import MetricsRecord, MetricsWriter
from .nn import Trainer, build_convnet, build_mlp, save_checkpoint
from .optim import OPTIMIZERS, schedule_lr

__all__ = ["OUTPUT_DIR_ENV", "build_dataset", "build_model", "run_training", "run_compare"]

OUTPUT_DIR_ENV = "GRASSOPT_OUTPUT_DIR"


def build_dataset(cfg: TrainConfig) -> Dataset:
    if cfg.dataset == "blobs":
        ds = gen_blobs(cfg.seed, cfg.n_per_class, cfg.classes, cfg.dim, cfg.spread)
    elif cfg.dataset == "spirals":
        ds = gen_spirals(cfg.seed, cfg.n_per_class, cfg.noise)
    elif cfg.dataset == "idx":
        ds = load_idx(cfg.data_path, num_classes=cfg.classes)
    else:
        ds = load_csv(cfg.data_path, {"label": cfg.label_column, "num_classes": cfg.classes})
    if cfg.normalize_mode != "none":
        ds = normalize(ds, cfg.normalize_mode)
    return ds


def build_model(cfg: TrainConfig, ds: Dataset, rng: np.random.Generator):
    if cfg.arch == "mlp":
        in_dim = int(np.prod(ds.feature_shape))
        return build_mlp(
            in_dim, cfg.hidden, ds.num_classes, rng,
            freeze_bn_scale=cfg.freeze_bn_scale, bn_eps=cfg.bn_eps, bn_momentum=cfg.bn_momentum,
        )
    if len(ds.feature_shape) != 3:
        raise ConfigError(
            f"arch 'conv' needs image-shaped features (C, H, W), got {ds.feature_shape}"
        )
    return build_convnet(
        ds.feature_shape, ds.num_classes, rng, channels=cfg.channels,
        freeze_bn_scale=cfg.freeze_bn_scale, bn_eps=cfg.bn_eps, bn_momentum=cfg.bn_momentum,
    )


def _features_for(cfg: TrainConfig, x: np.ndarray) -> np.ndarray:
    """Network input: flat rows for the MLP, channels-last (m, h, w, c) images for the convnet."""
    if cfg.arch == "mlp":
        return x.reshape(x.shape[0], -1) if x.ndim > 2 else x
    # A view when c == 1; otherwise one copy per run.
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1))


def resolve_out_dir(cfg: TrainConfig) -> str:
    return os.environ.get(OUTPUT_DIR_ENV, "") or cfg.out_dir


def run_training(cfg: TrainConfig, out_dir: str | None = None):
    """Train per the config; returns (records, paths).

    Writes ``metrics.csv``, ``checkpoint.npz``, and ``config.ini`` under the
    output directory. Deterministic for a fixed seed: identical configs
    produce byte-identical ``metrics.csv`` files (enable ``timing`` to record
    real wall time instead of 0.0, which breaks that).
    """
    euclid, sgdg, adamg, schedule_e, schedule_g = cfg.optimizer_objects()
    ds = build_dataset(cfg)
    rng = np.random.default_rng(cfg.seed)
    net = build_model(cfg, ds, rng)
    train_x = _features_for(cfg, ds.train_x)
    test_x = _features_for(cfg, ds.test_x)
    trainer = Trainer(
        net, cfg.optimizer, rng=rng, euclid=euclid, sgdg=sgdg, adamg=adamg,
        alpha=cfg.alpha, bn_weight_decay=cfg.bn_weight_decay,
    )

    # Every value has been checked by now: nothing is written for a refused run.
    out_dir = out_dir or resolve_out_dir(cfg)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.ini"), "w") as fh:
        fh.write(config_to_ini(cfg))

    metrics_path = os.path.join(out_dir, "metrics.csv")
    checkpoint_path = os.path.join(out_dir, "checkpoint.npz")
    started = time.monotonic()
    records = []

    def record(epoch, step, mean_angle, lr_e, lr_g):
        train_loss, train_acc = net.evaluate(train_x, ds.train_y)
        test_loss, test_acc = net.evaluate(test_x, ds.test_y)
        return MetricsRecord(
            epoch=epoch,
            step=step,
            train_loss=train_loss,
            train_acc=train_acc,
            test_loss=test_loss,
            test_acc=test_acc,
            ortho_loss_total=trainer.ortho_total(),
            mean_step_angle_radians=mean_angle,
            lr_e=lr_e,
            lr_g=lr_g,
            wall_time=(time.monotonic() - started) if cfg.timing else 0.0,
        )

    step = 0
    with MetricsWriter(metrics_path) as writer:
        rec = record(0, 0, 0.0, schedule_lr(schedule_e, 0), schedule_lr(schedule_g, 0))
        records.append(rec)
        writer.write(rec)
        save_checkpoint(checkpoint_path, trainer)
        for epoch in range(cfg.epochs):
            lr_e = schedule_lr(schedule_e, epoch)
            lr_g = schedule_lr(schedule_g, epoch)
            stats = trainer.train_epoch(train_x, ds.train_y, cfg.batch_size, lr_g, lr_e)
            step += stats.steps
            rec = record(epoch + 1, step, stats.mean_angle, lr_e, lr_g)
            records.append(rec)
            writer.write(rec)
            save_checkpoint(checkpoint_path, trainer)

    paths = {"metrics": metrics_path, "checkpoint": checkpoint_path, "out_dir": out_dir}
    return records, paths


COMPARE_RUNS_HEADER = "optimizer,seed,final_test_error"
COMPARE_SUMMARY_HEADER = "optimizer,runs,median_final_test_error"


def run_compare(config_path, overrides, optimizers, runs: int = 5, out_dir: str | None = None):
    """Run each optimizer over seeds ``base_seed + i`` and summarize medians.

    Returns (summary_csv_text, per_run_rows). The median is the lower order
    statistic (the 3rd of 5 runs). ``runs`` below 1 and an empty, unknown or
    repeated optimizer name raise :class:`ConfigError`, and data without a test split
    (CSV, or IDX without the ``t10k`` files) :class:`ValidationError`, before
    any training and before any directory is created.
    """
    if runs < 1:
        raise ConfigError(f"compare needs runs >= 1, got {runs}")
    if len(optimizers) < 1:
        raise ConfigError("compare needs at least one optimizer name")
    unknown = [n for n in optimizers if n not in OPTIMIZERS]
    if unknown:
        raise ConfigError(f"unknown optimizer name {unknown[0]!r}, expected one of {OPTIMIZERS}")
    repeated = [n for i, n in enumerate(optimizers) if n in optimizers[:i]]
    if repeated:
        raise ConfigError(f"optimizer name {repeated[0]!r} is given more than once")
    base_cfg = load_config(config_path, overrides)
    if build_dataset(base_cfg).test_x.shape[0] == 0:
        raise ValidationError(
            f"compare needs a test split, and the {base_cfg.dataset!r} data has none"
        )
    out_dir = out_dir or resolve_out_dir(base_cfg)
    run_rows = []
    summary_rows = []
    for name in optimizers:
        errors = []
        for i in range(runs):
            run_overrides = dict(overrides or {})
            run_overrides["optimizer"] = name
            run_overrides["seed"] = str(base_cfg.seed + i)
            cfg = load_config(config_path, run_overrides)
            sub_dir = os.path.join(out_dir, "compare", name, f"seed{cfg.seed}")
            records, _ = run_training(cfg, out_dir=sub_dir)
            err = 1.0 - records[-1].test_acc
            errors.append(err)
            run_rows.append(f"{name},{cfg.seed},{err!r}")
        median = sorted(errors)[(len(errors) - 1) // 2]
        summary_rows.append(f"{name},{runs},{median!r}")

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "compare_runs.csv"), "w") as fh:
        fh.write("\n".join([COMPARE_RUNS_HEADER] + run_rows) + "\n")
    summary_text = "\n".join([COMPARE_SUMMARY_HEADER] + summary_rows) + "\n"
    with open(os.path.join(out_dir, "compare_summary.csv"), "w") as fh:
        fh.write(summary_text)
    return summary_text, run_rows
