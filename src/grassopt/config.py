"""Training configuration: INI-style files with strict key validation.

The format is flat ``key = value`` text grouped into sections. Every key is
globally unique so each one can be overridden by a command-line flag of the
same name. Unknown sections or keys are rejected before any training state is
allocated. Each key is one field of :class:`TrainConfig`, which records its
section, converter and default; ``SCHEMA`` is derived from those fields.
"""

import configparser
from dataclasses import dataclass, field, fields

from .errors import ConfigError, PreconditionError
from .nn.layers import BN_EPS, BN_MOMENTUM
from .nn.training import ORTHO_ALPHA
from .optim import OPTIMIZERS, AdamGHyper, EuclideanHyper, LrSchedule, SgdGHyper, default_eta_g

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


_ARCHS = ("mlp", "conv")
_DATASETS = ("blobs", "spirals", "idx", "csv")
_NORMALIZE_MODES = ("standard", "intensity", "none")


def _key(section, converter, default):
    """One config key: its INI section, its text converter and its default."""
    return field(default=default, metadata={"section": section, "converter": converter})


def _named_rate(key, hyper, **values):
    """``hyper(**values)``, with a refused ``eta`` reported under its config key ``key``.

    The hyper objects' messages start with the field's name, and every other
    field's name is its config key.
    """
    try:
        return hyper(**values)
    except PreconditionError as exc:
        text = str(exc)
        raise PreconditionError(key + text[len("eta"):] if text.startswith("eta ") else text) from None


@dataclass(frozen=True)
class TrainConfig:
    """Fully resolved training configuration; each field is one config key."""

    arch: str = _key("model", str, "mlp")
    hidden: tuple = _key("model", _int_list, (16, 8))
    channels: tuple = _key("model", _int_list, (8, 16))
    freeze_bn_scale: bool = _key("model", _bool, False)
    bn_eps: float = _key("model", float, BN_EPS)
    bn_momentum: float = _key("model", float, BN_MOMENTUM)
    optimizer: str = _key("optimizer", str, "sgd-g")
    eta_e: float = _key("optimizer", float, EuclideanHyper.eta)
    eta_g: float | None = _key("optimizer", _optional_float, None)
    gamma: float = _key("optimizer", float, SgdGHyper.gamma)
    beta1: float = _key("optimizer", float, AdamGHyper.beta1)
    beta2: float = _key("optimizer", float, AdamGHyper.beta2)
    nu: float = _key("optimizer", float, SgdGHyper.nu)
    alpha: float = _key("optimizer", float, ORTHO_ALPHA)
    weight_decay: float = _key("optimizer", float, EuclideanHyper.weight_decay)
    nesterov: bool = _key("optimizer", _bool, EuclideanHyper.nesterov)
    bn_weight_decay: bool | None = _key("optimizer", _optional_bool, None)
    milestones: tuple = _key("schedule", _int_list, (60, 120, 160))
    factor: float = _key("schedule", float, 0.2)
    epochs: int = _key("train", int, 60)
    batch_size: int = _key("train", int, 32)
    seed: int = _key("train", int, 0)
    dataset: str = _key("data", str, "blobs")
    data_path: str = _key("data", str, "")
    classes: int = _key("data", int, 3)
    n_per_class: int = _key("data", int, 200)
    dim: int = _key("data", int, 16)
    spread: float = _key("data", float, 0.6)
    noise: float = _key("data", float, 0.2)
    normalize_mode: str = _key("data", str, "standard")
    label_column: str = _key("data", str, "label")
    out_dir: str = _key("output", str, "runs/default")
    timing: bool = _key("output", _bool, False)

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
        if self.eta_g is None:
            object.__setattr__(self, "eta_g", default_eta_g(self.optimizer))
        try:  # the hyperparameter and schedule objects check their own values
            self.optimizer_objects()
        except PreconditionError as exc:
            raise ConfigError(str(exc)) from None
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be nonnegative, got {self.epochs}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if len(self.channels) != 2:
            raise ConfigError(f"channels must be exactly 2 widths, got {self.channels}")
        for name in ("hidden", "channels"):
            if any(w < 1 for w in getattr(self, name)):
                raise ConfigError(f"{name} widths must be >= 1, got {getattr(self, name)}")
        if self.classes < 2:
            raise ConfigError(f"classes must be >= 2, got {self.classes}")
        if self.dataset in ("idx", "csv") and not self.data_path:
            raise ConfigError(f"dataset {self.dataset!r} requires data_path")

    def optimizer_objects(self):
        """The run's ``(euclid, sgdg, adamg, schedule_e, schedule_g)``; each checks its own values."""
        return (
            _named_rate("eta_e", EuclideanHyper, eta=self.eta_e, weight_decay=self.weight_decay,
                        nesterov=self.nesterov),
            _named_rate("eta_g", SgdGHyper, eta=self.eta_g, gamma=self.gamma, nu=self.nu),
            _named_rate("eta_g", AdamGHyper, eta=self.eta_g, beta1=self.beta1, beta2=self.beta2,
                        nu=self.nu),
            LrSchedule(self.eta_e, self.milestones, self.factor),
            LrSchedule(self.eta_g, self.milestones, self.factor),
        )


# section -> key -> (converter, default), in field order
SCHEMA = {}
for _f in fields(TrainConfig):
    SCHEMA.setdefault(_f.metadata["section"], {})[_f.name] = (_f.metadata["converter"], _f.default)
_KEY_SECTION = {f.name: f.metadata["section"] for f in fields(TrainConfig)}


def make_config(**values) -> TrainConfig:
    """Build a TrainConfig from keyword values, rejecting unknown keys."""
    unknown = sorted(set(values) - _KEY_SECTION.keys())
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
