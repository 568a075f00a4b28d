"""Training benchmark for grassopt: one workload per invocation, result as one JSON line.

Usage, from the repository root (no install step; ``src`` is put on the
import path here):

    python3 perfbench/run.py --workload mlp-sgdg --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload conv-adamg --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload mlp-sgd --seed 1 --tiny

The synthetic image set is generated from ``--seed`` and written as IDX
files; the program reads only those files, through ``runner.run_training``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from a traced run. ``--tiny`` shrinks the data and the networks and caps
the run at one second, so that every workload and every check runs in a few
seconds.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the environment. When a correctness
check fails, its name goes to standard error and the exit code is 1.
"""

import os

# Pinned before numpy is imported, here and in every child process, so that a
# workload uses one core and its figures do not depend on whether BLAS threads
# find a second core free.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("mlp-sgdg", "mlp-sgd", "conv-adamg")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def child(args, mode, run_dir, tag, extra=()):
    """Run ``workload.py`` once in its own process and return its JSON result."""
    result = os.path.join(run_dir, f"{tag}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "workload.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed), "--data", os.path.join(run_dir, "data"),
        "--out", os.path.join(run_dir, tag), "--result", result, *extra,
    ] + (["--tiny"] if args.tiny else [])
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: workload process ({mode}) exited with code {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small data and networks, for the harness test")
    args = parser.parse_args(argv)
    if args.tiny:
        args.seconds = min(args.seconds, 1.0)
    if not os.path.isdir(os.path.join(SRC, "grassopt")):
        raise SystemExit(f"perfbench: no grassopt sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import synth

    run_dir = os.path.join(HERE, "_runs", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    try:
        synth.write_dataset(os.path.join(run_dir, "data"), args.seed, args.tiny)
        setup = []
        if not args.trace:
            repeats = 2 if args.tiny else SETUP_REPEATS
            setup = [child(args, "setup", run_dir, f"setup{i}")["setup_s"] for i in range(repeats)]
        extra = ("--seconds", repr(args.seconds), "--trace", str(args.trace))
        run = child(args, "run", run_dir, "run", extra)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(run_dir))  # only when no other run is using it

    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in run["metrics"].items()}
    if setup:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    failed_checks = [c for c in run["checks"] if not c["ok"]]
    for c in failed_checks:
        print(f"perfbench: check failed: {c['name']}: {c['detail']}", file=sys.stderr)
    env = environment()
    env.update(run.get("info", {}), workload=args.workload, seed=args.seed, setup_samples_s=setup)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": not failed_checks,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 1 if failed_checks else 0


if __name__ == "__main__":
    sys.exit(main())
