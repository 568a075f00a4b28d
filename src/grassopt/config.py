"""Training configuration: INI-style files with strict key validation.

The format is flat ``key = value`` text grouped into sections. Every key is
globally unique so each one can be overridden by a command-line flag of the
same name. Unknown sections or keys are rejected before any training state is
allocated.
"""

import configparser
from dataclasses import dataclass, fields

from .errors import ConfigError
from .optim import OPTIMIZERS, default_eta_g

__all__ = ["TrainConfig", "SCHEMA", "load_config", "make_config", "config_to_ini"]


def _bool(text):
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _int_list(text):
    t = str(text).strip()
    if not t:
        return ()
    return tuple(int(v) for v in t.replace(" ", "").split(","))


def _optional_float(text):
    t = str(text).strip().lower()
    if t in ("", "auto", "none"):
        return None
    return float(t)


def _optional_bool(text):
    t = str(text).strip().lower()
    if t in ("", "auto", "none"):
        return None
    return _bool(t)


# section -> key -> (converter, default)
SCHEMA = {
    "model": {
        "arch": (str, "mlp"),
        "hidden": (_int_list, (16, 8)),
        "channels": (_int_list, (8, 16)),
        "freeze_bn_scale": (_bool, False),
        "bn_eps": (float, 1e-5),
        "bn_momentum": (float, 0.1),
    },
    "optimizer": {
        "optimizer": (str, "sgd-g"),
        "eta_e": (float, 0.01),
        "eta_g": (_optional_float, None),
        "gamma": (float, 0.9),
        "beta1": (float, 0.9),
        "beta2": (float, 0.99),
        "nu": (float, 0.1),
        "alpha": (float, 0.1),
        "weight_decay": (float, 0.0005),
        "nesterov": (_bool, True),
        "bn_weight_decay": (_optional_bool, None),
    },
    "schedule": {
        "milestones": (_int_list, (60, 120, 160)),
        "factor": (float, 0.2),
    },
    "train": {
        "epochs": (int, 60),
        "batch_size": (int, 32),
        "seed": (int, 0),
    },
    "data": {
        "dataset": (str, "blobs"),
        "data_path": (str, ""),
        "classes": (int, 3),
        "n_per_class": (int, 200),
        "dim": (int, 16),
        "spread": (float, 0.6),
        "noise": (float, 0.2),
        "normalize_mode": (str, "standard"),
        "label_column": (str, "label"),
    },
    "output": {
        "out_dir": (str, "runs/default"),
        "metrics_format": (str, "csv"),
        "timing": (_bool, False),
    },
}

_KEY_SECTION = {}
for _section, _keys in SCHEMA.items():
    for _key in _keys:
        if _key in _KEY_SECTION:
            raise RuntimeError(f"duplicate config key {_key!r}")
        _KEY_SECTION[_key] = _section

_ARCHS = ("mlp", "conv")
_DATASETS = ("blobs", "spirals", "idx", "csv")
_NORMALIZE_MODES = ("standard", "intensity", "none")
_METRICS_FORMATS = ("csv", "jsonl")


@dataclass(frozen=True)
class TrainConfig:
    """Fully resolved training configuration."""

    arch: str = "mlp"
    hidden: tuple = (16, 8)
    channels: tuple = (8, 16)
    freeze_bn_scale: bool = False
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1
    optimizer: str = "sgd-g"
    eta_e: float = 0.01
    eta_g: float | None = None
    gamma: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.99
    nu: float = 0.1
    alpha: float = 0.1
    weight_decay: float = 0.0005
    nesterov: bool = True
    bn_weight_decay: bool | None = None
    milestones: tuple = (60, 120, 160)
    factor: float = 0.2
    epochs: int = 60
    batch_size: int = 32
    seed: int = 0
    dataset: str = "blobs"
    data_path: str = ""
    classes: int = 3
    n_per_class: int = 200
    dim: int = 16
    spread: float = 0.6
    noise: float = 0.2
    normalize_mode: str = "standard"
    label_column: str = "label"
    out_dir: str = "runs/default"
    metrics_format: str = "csv"
    timing: bool = False

    def __post_init__(self):
        if self.arch not in _ARCHS:
            raise ConfigError(f"arch must be one of {_ARCHS}, got {self.arch!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.dataset not in _DATASETS:
            raise ConfigError(f"dataset must be one of {_DATASETS}, got {self.dataset!r}")
        if self.normalize_mode not in _NORMALIZE_MODES:
            raise ConfigError(
                f"normalize_mode must be one of {_NORMALIZE_MODES}, got {self.normalize_mode!r}"
            )
        if self.metrics_format not in _METRICS_FORMATS:
            raise ConfigError(
                f"metrics_format must be one of {_METRICS_FORMATS}, got {self.metrics_format!r}"
            )
        if self.eta_g is None:
            object.__setattr__(self, "eta_g", default_eta_g(self.optimizer))
        for name in ("eta_e", "eta_g", "nu"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0 <= self.gamma < 1:
            raise ConfigError(f"gamma must be in [0, 1), got {self.gamma}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.alpha < 0 or self.weight_decay < 0:
            raise ConfigError("alpha and weight_decay must be nonnegative")
        if not 0 < self.factor <= 1:
            raise ConfigError(f"factor must be in (0, 1], got {self.factor}")
        if any(b <= a for a, b in zip(self.milestones, self.milestones[1:])):
            raise ConfigError(f"milestones must be strictly increasing, got {self.milestones}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be nonnegative, got {self.epochs}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.classes < 2:
            raise ConfigError(f"classes must be >= 2, got {self.classes}")
        if self.dataset in ("idx", "csv") and not self.data_path:
            raise ConfigError(f"dataset {self.dataset!r} requires data_path")


def make_config(**values) -> TrainConfig:
    """Build a TrainConfig from keyword values, rejecting unknown keys."""
    known = {f.name for f in fields(TrainConfig)}
    unknown = sorted(set(values) - known)
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    return TrainConfig(**values)


def _convert(section, key, raw):
    converter, _ = SCHEMA[section][key]
    try:
        return converter(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value for {key!r}: {raw!r} ({exc})") from None


def load_config(path=None, overrides=None) -> TrainConfig:
    """Parse an INI file plus ``{key: raw-string}`` overrides into a TrainConfig.

    Every key must belong to the schema; misspelled sections or keys raise
    :class:`ConfigError` naming the offender before any state is created.
    """
    values = {}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(f"unknown config section {section!r}")
            for key, raw in parser.items(section):
                if key not in SCHEMA[section]:
                    raise ConfigError(f"unknown config key '{section}.{key}'")
                values[key] = _convert(section, key, raw)
    for key, raw in (overrides or {}).items():
        section = _KEY_SECTION.get(key)
        if section is None:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _convert(section, key, raw) if isinstance(raw, str) else raw
    return make_config(**values)


def config_to_ini(cfg: TrainConfig) -> str:
    """Render a config back to INI text (used to record resolved runs)."""
    lines = []
    for section, keys in SCHEMA.items():
        lines.append(f"[{section}]")
        for key in keys:
            value = getattr(cfg, key)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            elif value is None:
                value = "auto"
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)
