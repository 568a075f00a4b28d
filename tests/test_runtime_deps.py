"""The runtime needs numpy only: importing the package loads no scipy, and the CLI runs without it.

Both tests run a fresh interpreter, so modules this test process has already
imported cannot hide an import.
"""

import os
import subprocess
import sys

import numpy as np

from grassopt.data import write_idx

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Runs the command line with scipy made unimportable: any ``import scipy`` raises ImportError.
_CLI_WITHOUT_SCIPY = (
    "import sys\n"
    "sys.modules['scipy'] = None\n"
    "from grassopt import cli\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


def _python(args, cwd):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=600,
    )


def test_import_loads_neither_scipy_nor_f2py(tmp_path):
    # scipy.linalg alone costs about 0.3 s and 20 MB per process, and its
    # array-API shim pulls in numpy.f2py.
    proc = _python([
        "-c",
        "import sys\n"
        "import grassopt, grassopt.cli, grassopt.runner, grassopt.checks\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'scipy' or m.startswith('numpy.f2py')))\n",
    ], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_check_and_train_run_without_scipy(tmp_path):
    check = _python(["-c", _CLI_WITHOUT_SCIPY, "check"], tmp_path)
    assert check.returncode == 0, check.stderr
    assert "total: 13/13 properties passed" in check.stdout

    rng = np.random.default_rng(4)
    data = tmp_path / "idx"
    data.mkdir()
    for split, m in (("train", 60), ("t10k", 20)):
        write_idx(data / f"{split}-images-idx3-ubyte", rng.integers(0, 256, (m, 6, 6)).astype(np.uint8))
        write_idx(data / f"{split}-labels-idx1-ubyte", (np.arange(m) % 3).astype(np.uint8))
    out = tmp_path / "run"
    train = _python([
        "-c", _CLI_WITHOUT_SCIPY, "train", "--dataset", "idx", "--data_path", str(data),
        "--classes", "3", "--epochs", "1", "--hidden", "8,4", "--batch_size", "16",
        "--out_dir", str(out),
    ], tmp_path)
    assert train.returncode == 0, train.stderr
    assert len((out / "metrics.csv").read_text().splitlines()) == 1 + 2  # header, initial, epoch 1
    assert (out / "checkpoint.npz").exists()
