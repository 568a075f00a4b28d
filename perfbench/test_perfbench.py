"""Harness test: every workload and every correctness check at tiny size.

Each case runs ``run.py --tiny`` as the benchmark is run, in its own
process, and checks the result line against ``BENCHMARK.json``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(cwd, script, *args):
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize(
    "workload,trace",
    [(w["name"], 0) for w in SPEC["workloads"]] + [("mlp-sgdg", 1), ("conv-adamg", 1)],
)
def test_tiny_run(workload, trace):
    proc = run_bench(ROOT, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[-2])["env"]
    assert env["threads"] == {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    assert env["process_threads"] == 1
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 110
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    runs = os.path.join(HERE, "_runs")
    assert not any(n.startswith(f"{workload}-s3-") for n in (os.listdir(runs) if os.path.isdir(runs) else ()))


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench(tmp_path, os.path.join("perfbench", "run.py"), "--workload", "mlp-sgd",
                     "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
