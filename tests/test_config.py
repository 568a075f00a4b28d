import configparser
import os
import re

import pytest

from grassopt.config import SCHEMA, config_to_ini, load_config, make_config
from grassopt.errors import ConfigError

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_default_hyperparameters():
    cfg = make_config()
    assert cfg.optimizer == "sgd-g"
    assert cfg.eta_e == 0.01
    assert cfg.eta_g == 0.2  # resolved for sgd-g
    assert cfg.gamma == 0.9
    assert cfg.nu == 0.1
    assert cfg.alpha == 0.1
    assert cfg.weight_decay == 0.0005
    assert cfg.milestones == (60, 120, 160)
    assert cfg.factor == 0.2


def test_eta_g_default_depends_on_optimizer():
    assert make_config(optimizer="sgd-g").eta_g == 0.2
    assert make_config(optimizer="adam-g").eta_g == 0.05
    assert make_config(optimizer="adam-g", eta_g=0.07).eta_g == 0.07


def test_unknown_keyword_rejected():
    with pytest.raises(ConfigError, match="learning_rate"):
        make_config(learning_rate=0.1)


def test_file_parsing_and_overrides(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[optimizer]\noptimizer = adam-g\nnu = 0.2\n\n[train]\nepochs = 3\nseed = 5\n"
    )
    cfg = load_config(path)
    assert cfg.optimizer == "adam-g"
    assert cfg.nu == 0.2
    assert cfg.epochs == 3
    over = load_config(path, {"epochs": "7", "optimizer": "sgd"})
    assert over.epochs == 7
    assert over.optimizer == "sgd"


def test_unknown_file_key_named(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[optimizer]\nlerning_rate = 0.1\n")
    with pytest.raises(ConfigError, match="optimizer.lerning_rate"):
        load_config(path)


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad2.ini"
    path.write_text("[optimzer]\neta_e = 0.1\n")
    with pytest.raises(ConfigError, match="optimzer"):
        load_config(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.ini")


def test_invariants_enforced():
    with pytest.raises(ConfigError):
        make_config(eta_e=0.0)
    with pytest.raises(ConfigError):
        make_config(nu=-1.0)
    with pytest.raises(ConfigError):
        make_config(batch_size=1)
    with pytest.raises(ConfigError):
        make_config(factor=0.0)
    with pytest.raises(ConfigError):
        make_config(milestones=(10, 10))
    with pytest.raises(ConfigError):
        make_config(optimizer="adamw")
    with pytest.raises(ConfigError):
        make_config(dataset="csv")  # needs data_path


@pytest.mark.parametrize("key, optimizer", [("eta_e", "sgd-g"), ("eta_g", "sgd-g"), ("eta_g", "adam-g")])
def test_refused_rate_names_its_key(key, optimizer):
    with pytest.raises(ConfigError) as info:
        make_config(optimizer=optimizer, **{key: 0.0})
    assert str(info.value) == f"{key} must be positive, got 0.0"


def test_bad_value_conversion_named(tmp_path):
    path = tmp_path / "bad3.ini"
    path.write_text("[train]\nepochs = soon\n")
    with pytest.raises(ConfigError, match="epochs"):
        load_config(path)


def test_round_trip_through_ini(tmp_path):
    cfg = make_config(optimizer="adam-g", epochs=4, milestones=(2, 3), hidden=(5, 4))
    text = config_to_ini(cfg)
    path = tmp_path / "rt.ini"
    path.write_text(text)
    again = load_config(path)
    assert again == cfg


DEFAULT_INI = (
    "[model]\narch = mlp\nhidden = 16,8\nchannels = 8,16\nfreeze_bn_scale = False\nbn_eps = 1e-05\n"
    "bn_momentum = 0.1\n\n"
    "[optimizer]\noptimizer = sgd-g\neta_e = 0.01\neta_g = 0.2\ngamma = 0.9\nbeta1 = 0.9\nbeta2 = 0.99\n"
    "nu = 0.1\nalpha = 0.1\nweight_decay = 0.0005\nnesterov = True\nbn_weight_decay = auto\n\n"
    "[schedule]\nmilestones = 60,120,160\nfactor = 0.2\n\n"
    "[train]\nepochs = 60\nbatch_size = 32\nseed = 0\n\n"
    "[data]\ndataset = blobs\ndata_path = \nclasses = 3\nn_per_class = 200\ndim = 16\nspread = 0.6\n"
    "noise = 0.2\nnormalize_mode = standard\nlabel_column = label\n\n"
    "[output]\nout_dir = runs/default\n"
)


def test_default_ini_is_pinned():
    # Every default and the key order, as config.ini records them.
    assert config_to_ini(make_config()) == DEFAULT_INI


def test_readme_config_block_lists_every_key_with_its_default(tmp_path):
    text = open(README).read()
    block = re.search(r"### Config format.*?```ini\n(.*?)```", text, re.S).group(1)
    stripped = "\n".join(re.sub(r"\s+#.*$", "", line) for line in block.splitlines())
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(stripped)
    assert {s: list(parser[s]) for s in parser.sections()} == {s: list(keys) for s, keys in SCHEMA.items()}
    path = tmp_path / "readme.ini"
    path.write_text(stripped)
    assert load_config(path) == make_config()
