import os
import subprocess
import sys

import numpy as np
import pytest

from grassopt import checks, cli, manifold, runner
from grassopt.config import SCHEMA
from grassopt.data import write_idx
from grassopt.errors import ConfigError
from grassopt.metrics import METRIC_FIELDS
from grassopt.nn import load_checkpoint

FAST = [
    "--epochs", "2", "--n_per_class", "30", "--dim", "8", "--hidden", "5,4",
    "--batch_size", "16",
]


def _train(tmp_path, name, extra=()):
    out = str(tmp_path / name)
    code = cli.main(["train", "--out_dir", out, *FAST, *extra])
    return code, out


def test_train_writes_metrics_and_checkpoint(tmp_path):
    code, out = _train(tmp_path, "run")
    assert code == 0
    lines = (open(os.path.join(out, "metrics.csv"))).read().splitlines()
    assert lines[0] == (  # the header the README documents
        "epoch,step,train_loss,train_acc,test_loss,test_acc,ortho_loss_total,"
        "mean_step_angle_radians,lr_e,lr_g,wall_time"
    )
    assert len(lines) == 1 + 3  # header + initial eval + 2 epochs
    trainer = load_checkpoint(os.path.join(out, "checkpoint.npz"))
    assert trainer.optimizer == "sgd-g"
    assert os.path.exists(os.path.join(out, "config.ini"))


def test_train_epochs_zero_initial_evaluation_only(tmp_path):
    code, out = _train(tmp_path, "zero", ["--epochs", "0"])
    assert code == 0
    lines = open(os.path.join(out, "metrics.csv")).read().splitlines()
    assert len(lines) == 2  # header + initial record
    assert lines[1].startswith("0,0,")
    load_checkpoint(os.path.join(out, "checkpoint.npz"))  # valid checkpoint


def test_train_determinism_byte_identical(tmp_path):
    _, out1 = _train(tmp_path, "a", ["--seed", "3"])
    _, out2 = _train(tmp_path, "b", ["--seed", "3"])
    bytes1 = open(os.path.join(out1, "metrics.csv"), "rb").read()
    bytes2 = open(os.path.join(out2, "metrics.csv"), "rb").read()
    assert bytes1 == bytes2


def test_train_rejects_unknown_key_before_running(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[optimizer]\nmomentum_rate = 0.5\n")
    code = cli.main(["train", "--config", str(path), "--out_dir", str(tmp_path / "x")])
    assert code == 1
    assert not (tmp_path / "x").exists()  # failed before allocating outputs


def test_train_flag_value_validation(tmp_path):
    code = cli.main(["train", "--batch_size", "1", "--out_dir", str(tmp_path / "y")])
    assert code == 1


@pytest.mark.parametrize("flags, key", [
    (["--arch", "conv", "--channels", "4,8,16"], "channels"),
    (["--arch", "conv", "--channels", ""], "channels"),
    (["--hidden", "0"], "hidden"),
])
def test_train_bad_widths_are_config_errors(tmp_path, capsys, flags, key):
    # Image data, so the widths reach the network builders if nothing rejects them first.
    data = tmp_path / "data"
    data.mkdir()
    rng = np.random.default_rng(0)
    write_idx(data / "train-images-idx3-ubyte", rng.integers(0, 256, (12, 6, 6)).astype(np.uint8))
    write_idx(data / "train-labels-idx1-ubyte", (np.arange(12) % 3).astype(np.uint8))
    out = tmp_path / "widths"
    code = cli.main(["train", "--out_dir", str(out), "--dataset", "idx", "--data_path", str(data),
                     "--classes", "3", "--epochs", "1", "--batch_size", "4", *flags])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {key} ")
    assert "Traceback" not in err
    assert not out.exists()  # refused before any output is written


@pytest.mark.parametrize("flags", [
    ["--bn_momentum", "2"],
    ["--bn_eps", "0"],
    ["--n_per_class", "0"],
    ["--dim", "0"],
    ["--dataset", "spirals", "--noise", "-1"],
    ["--alpha", "-1"],
    ["--seed", "-1"],
])
def test_train_refuses_bad_values_before_any_output(tmp_path, capsys, flags):
    out = tmp_path / "refused"
    code = cli.main(["train", "--out_dir", str(out), "--epochs", "1", *flags])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()


def _parses_to_float(convert):
    try:
        return isinstance(convert("0.5"), float)
    except ValueError:
        return False


FLOAT_KEYS = [key for keys in SCHEMA.values() for key, (convert, _) in keys.items() if _parses_to_float(convert)]


def test_float_keys_are_every_float_setting():
    assert sorted(FLOAT_KEYS) == sorted([
        "bn_eps", "bn_momentum", "eta_e", "eta_g", "gamma", "beta1", "beta2", "nu", "alpha",
        "weight_decay", "factor", "spread", "noise",
    ])


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_train_refuses_a_float_setting_that_is_not_finite(tmp_path, capsys, key, value):
    # With the default optimizer and data, whether or not the run reads the key.
    out = tmp_path / "refused"
    code = cli.main(["train", "--out_dir", str(out), *FAST, f"--{key}={value}"])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith(f"error: {key} ") and value.lstrip("-") in err
    assert not out.exists()


def test_train_runtime_abort_exit_2_and_last_good_checkpoint(tmp_path):
    out = str(tmp_path / "abort")
    # an absurd Euclidean rate makes the loss overflow within an epoch
    with np.errstate(all="ignore"):
        code = cli.main([
            "train", "--out_dir", out, *FAST, "--optimizer", "sgd", "--eta_e", "1e18",
        ])
    assert code == 2
    # the initial-evaluation checkpoint survives as the last good state
    trainer = load_checkpoint(os.path.join(out, "checkpoint.npz"))
    assert trainer.optimizer == "sgd"
    lines = open(os.path.join(out, "metrics.csv")).read().splitlines()
    assert len(lines) >= 2  # header + at least the initial record (valid prefix)


def test_output_dir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv(runner.OUTPUT_DIR_ENV, str(target))
    code = cli.main(["train", *FAST])
    assert code == 0
    assert (target / "metrics.csv").exists()


def test_compare_single_optimizer(tmp_path, capsys):
    out = str(tmp_path / "cmp1")
    code = cli.main([
        "compare", "--optimizers", "sgd", "--runs", "2", "--out_dir", out, *FAST,
    ])
    assert code == 0
    text = capsys.readouterr().out
    lines = [l for l in text.splitlines() if l]
    assert lines[0] == "optimizer,runs,median_final_test_error"
    assert lines[1].startswith("sgd,2,")


def test_compare_median_is_order_statistic(tmp_path):
    out = str(tmp_path / "cmp2")
    summary, rows = runner.run_compare(
        None,
        {"epochs": "1", "n_per_class": "20", "dim": "6", "hidden": "4,3",
         "batch_size": "10", "seed": "0"},
        ["sgd-g"],
        runs=5,
        out_dir=out,
    )
    errors = sorted(float(r.split(",")[2]) for r in rows)
    median_line = summary.splitlines()[1]
    assert float(median_line.split(",")[2]) == errors[2]  # 3rd order statistic of 5
    per_run = open(os.path.join(out, "compare_runs.csv")).read().splitlines()
    assert per_run[0] == "optimizer,seed,final_test_error"
    assert len(per_run) == 6
    # seeds recorded as base_seed + i
    assert [r.split(",")[1] for r in per_run[1:]] == ["0", "1", "2", "3", "4"]


def test_compare_unknown_optimizer(tmp_path):
    code = cli.main(["compare", "--optimizers", "sgd,newton", "--runs", "1",
                     "--out_dir", str(tmp_path / "cmp3")])
    assert code == 1


@pytest.mark.parametrize("runs", ["0", "-2"])
def test_compare_refuses_runs_below_one(tmp_path, capsys, runs):
    out = tmp_path / "cmp5"
    code = cli.main(["compare", "--optimizers", "sgd", "--runs", runs, "--out_dir", str(out), *FAST])
    assert code == 1
    assert capsys.readouterr().err == f"error: compare needs runs >= 1, got {runs}\n"
    assert not out.exists()


@pytest.mark.parametrize("names", [["sgd", "bogus"], []], ids=["unknown", "empty"])
def test_run_compare_refuses_optimizer_names_before_any_output(tmp_path, names):
    out = tmp_path / "cmp6"
    with pytest.raises(ConfigError, match="bogus" if names else "at least one"):
        runner.run_compare(None, {"epochs": "1", "n_per_class": "20", "dim": "6", "hidden": "4,3",
                                  "batch_size": "10"}, names, runs=2, out_dir=str(out))
    assert not out.exists()


def test_compare_refuses_repeated_optimizer(tmp_path, capsys):
    out = tmp_path / "cmp7"
    code = cli.main(["compare", "--optimizers", "sgd,sgd", "--runs", "1", "--out_dir", str(out), *FAST])
    assert code == 1
    assert capsys.readouterr().err == "error: optimizer name 'sgd' is given more than once\n"
    assert not out.exists()


def test_run_compare_refuses_repeated_optimizer_before_any_output(tmp_path, monkeypatch):
    out = tmp_path / "cmp8"
    monkeypatch.setattr(runner, "build_dataset", lambda cfg: pytest.fail("dataset built"))
    with pytest.raises(ConfigError, match="'adam-g' is given more than once"):
        runner.run_compare(None, {"epochs": "1", "n_per_class": "20", "dim": "6", "hidden": "4,3",
                                  "batch_size": "10"}, ["adam-g", "sgd", "adam-g"], runs=1, out_dir=str(out))
    assert not out.exists()


def _csv_without_test_split(tmp_path):
    """A 60-row, 2-class CSV file: CSV data has a training split only."""
    rng = np.random.default_rng(0)
    rows = ["a,b,c,label"]
    rows += [",".join(f"{v:.17g}" for v in x) + f",{i % 2}"
             for i, x in enumerate(rng.standard_normal((60, 3)))]
    path = tmp_path / "train.csv"
    path.write_text("\n".join(rows) + "\n")
    return ["--dataset", "csv", "--data_path", str(path), "--classes", "2",
            "--epochs", "1", "--hidden", "2,1", "--batch_size", "10"]


def test_compare_refuses_data_without_test_split(tmp_path, capsys):
    out = tmp_path / "cmp4"
    code = cli.main(["compare", "--optimizers", "sgd,sgd-g", "--runs", "1",
                     "--out_dir", str(out), *_csv_without_test_split(tmp_path)])
    assert code == 1
    assert "test split" in capsys.readouterr().err
    assert not (out / "compare").exists()  # refused before any training


def test_train_without_test_split_writes_zero_test_metrics(tmp_path):
    out = tmp_path / "csv_run"
    code = cli.main(["train", "--out_dir", str(out), *_csv_without_test_split(tmp_path)])
    assert code == 0
    lines = open(out / "metrics.csv").read().splitlines()
    test_columns = [METRIC_FIELDS.index("test_loss"), METRIC_FIELDS.index("test_acc")]
    for line in lines[1:]:
        fields = line.split(",")
        assert [float(fields[i]) for i in test_columns] == [0.0, 0.0]


def test_check_command_passes():
    assert cli.main(["check"]) == 0


def test_check_refuses_negative_seed(capsys):
    assert cli.main(["check", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"


def test_check_reports_per_suite_counts(capsys):
    cli.main(["check"])
    text = capsys.readouterr().out
    assert "manifold: 7/7 properties passed" in text
    assert "regularizer:" in text
    assert "gradcheck:" in text


def test_check_detects_faulty_geodesic(monkeypatch):
    # Fault injection: a geodesic kernel whose points drift off the unit sphere
    # must trip the unit-norm property.
    real_geodesic = manifold.geodesic_columns

    def drifting_geodesic(y, d, delta=None):
        y_new, moved = real_geodesic(y, d, delta)
        return y_new * (1.0 + 1e-6), moved

    monkeypatch.setattr(manifold, "geodesic_columns", drifting_geodesic)
    results = checks.run_manifold_suite(seed=0, instances=50, dims=(8,))
    by_name = {r.name: r for r in results}
    assert not by_name["unit_norm_closure"].passed
    assert by_name["unit_norm_closure"].worst > 1e-12


def test_check_failure_exit_code(monkeypatch):
    # the CLI maps any failed property to exit 1
    monkeypatch.setattr(
        checks, "run_all",
        lambda seed=0: [checks.CheckResult("manifold", "probe", False, 1.0, 0.0, 1)],
    )
    assert cli.main(["check"]) == 1


def test_module_entry_point_exit_codes(tmp_path):
    # ``python -m grassopt`` runs the same ``main`` as the installed command, in a fresh process
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def grassopt(*args):
        return subprocess.run([sys.executable, "-m", "grassopt", *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=600)

    check = grassopt("check", "--seed", "0")
    assert check.returncode == 0, check.stderr
    assert "total: 13/13 properties passed" in check.stdout
    train = grassopt("train", "--eta_e", "0", "--out_dir", str(tmp_path / "run"))
    assert (train.returncode, train.stderr) == (1, "error: eta_e must be positive, got 0.0\n")
    assert not (tmp_path / "run").exists()
    diverging = grassopt("train", "--optimizer", "sgd", "--eta_e", "1e18", "--epochs", "2", "--n_per_class", "30",
                         "--dim", "8", "--hidden", "5,4", "--batch_size", "16", "--out_dir", str(tmp_path / "abort"))
    assert diverging.returncode == 2, diverging.stderr
    assert diverging.stderr.startswith("runtime abort: ") and diverging.stderr.count("\n") == 1
