"""Compare the working tree's outputs with those of a git revision, byte by byte.

Usage, from anywhere in the repository:

    python3 tools/compare_parent.py HEAD~1

Exports ``REF`` (through ``git archive``) and the working tree (its tracked
and untracked, not ignored, files, uncommitted changes included) into two
temporary directories whose paths have equal length, so that path strings
cannot shift the heap layout between the two. Neither copy touches the
repository's git state. In each copy, with BLAS pinned to one thread, it runs:

- ``grassopt check --seed 0``, whose stdout is compared byte for byte;
- the default ``grassopt train``;
- 2-epoch runs on the benchmark's synthetic IDX data (``perfbench/synth``,
  seed 5, read only) of ``sgd``, ``sgd-g`` and ``adam-g`` on the MLP and on
  the convnet, built by ``perfbench/workload.make_cfg``, so the three
  benchmark configs are among them.

For each run it compares the bytes of ``metrics.csv``, compares the
checkpoint arrays that both sides hold by name (dtype, shape and bytes), and
lists the arrays and the header keys that one side has and the other has not.
It also prints the line count of the ``.py`` files under ``src/grassopt`` on
each side, as ``wc -l`` counts them.
The report goes to stdout and the copies are removed afterwards. The exit
code is 0 whatever differs: a format change differs on purpose, so this is a
review aid, not a test gate.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Run inside a copy, from its root: the 2-epoch runs on the benchmark's data.
RUNS = r'''
import dataclasses, sys
sys.path[:0] = ["src", "perfbench"]
import synth, workload
from grassopt.config import make_config
from grassopt.optim import OPTIMIZERS
from grassopt.runner import run_training

data, out = sys.argv[1], sys.argv[2]
synth.write_dataset(data, 5, False)
cfgs = {name: workload.make_cfg(name, data, 5, 2, False) for name in workload.WORKLOADS}
for cfg in list(cfgs.values()):
    for optimizer in OPTIMIZERS:
        if not any(c.arch == cfg.arch and c.optimizer == optimizer for c in cfgs.values()):
            values = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
            values.update(optimizer=optimizer, eta_g=None)  # the optimizer's default rate
            cfgs[f"{cfg.arch}-{optimizer}"] = make_config(**values)
for name, cfg in cfgs.items():
    run_training(cfg, out_dir=f"{out}/{name}")
print("\n".join(cfgs))
'''


def git(*args, cwd):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True).stdout


def export_ref(root, ref, dest):
    archive = git("archive", "--format=tar", ref, cwd=root)
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def export_tree(root, dest):
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard", cwd=root).split(b"\0")
    for name in filter(None, (n.decode() for n in names)):
        src = os.path.join(root, name)
        if os.path.isfile(src):  # a tracked file deleted in the tree is left out
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))


def src_lines(copy):
    """Newlines in the ``.py`` files under ``src/grassopt`` of ``copy``, subpackages included."""
    total = 0
    for directory, _, files in os.walk(os.path.join(copy, "src", "grassopt")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def run_copy(copy):
    """Run every command in ``copy``; returns ``(check stdout, {run name: output dir})``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), **{v: "1" for v in THREAD_VARS})
    env.pop("GRASSOPT_OUTPUT_DIR", None)
    out = os.path.join(copy, "_compare")

    def python(*args):
        return subprocess.run([sys.executable, *args], cwd=copy, env=env, check=True,
                              capture_output=True).stdout

    check = python("-m", "grassopt", "check", "--seed", "0")
    python("-m", "grassopt", "train", "--out_dir", os.path.join(out, "default"))
    names = python("-c", RUNS, os.path.join(out, "data"), out).decode().split()
    return check, {name: os.path.join(out, name) for name in ["default", *names]}


def read_checkpoint(path):
    with np.load(path) as archive:
        header = json.loads(bytes(archive["__header__"]).decode())
        return header, {k: archive[k] for k in archive.files if k != "__header__"}


def key_paths(value, prefix=""):
    """The dotted paths of every key in a JSON object, nested objects included."""
    if not isinstance(value, dict):
        return set()
    out = set()
    for key, item in value.items():
        out |= {prefix + key} | key_paths(item, prefix + key + ".")
    return out


def compare_run(name, ref_dir, new_dir):
    lines = []
    with open(os.path.join(ref_dir, "metrics.csv"), "rb") as a, open(os.path.join(new_dir, "metrics.csv"), "rb") as b:
        same = a.read() == b.read()
    lines.append(f"{name}: metrics.csv {'identical' if same else 'DIFFERS'}")
    ref_header, ref_arrays = read_checkpoint(os.path.join(ref_dir, "checkpoint.npz"))
    new_header, new_arrays = read_checkpoint(os.path.join(new_dir, "checkpoint.npz"))
    common = sorted(ref_arrays.keys() & new_arrays.keys())
    differ = [k for k in common if ref_arrays[k].dtype != new_arrays[k].dtype
              or ref_arrays[k].shape != new_arrays[k].shape
              or ref_arrays[k].tobytes() != new_arrays[k].tobytes()]
    lines.append(f"  checkpoint arrays held by both: {len(common)}, byte-identical: {len(common) - len(differ)}"
                 + (f", differ: {differ}" if differ else ""))
    for label, keys in (("only in REF", ref_arrays.keys() - new_arrays.keys()),
                        ("only in the tree", new_arrays.keys() - ref_arrays.keys())):
        if keys:
            lines.append(f"  arrays {label}: {len(keys)} ({', '.join(sorted(keys)[:6])}{', ...' if len(keys) > 6 else ''})")
    ref_keys, new_keys = key_paths(ref_header), key_paths(new_header)
    lines.append(f"  header keys removed: {sorted(ref_keys - new_keys)}; added: {sorted(new_keys - ref_keys)}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("ref", help="the git revision to compare with, e.g. HEAD~1")
    args = parser.parse_args(argv)
    root = git("rev-parse", "--show-toplevel", cwd=os.getcwd()).decode().strip()
    base = tempfile.mkdtemp(prefix="grassopt-compare-")
    ref_copy, new_copy = os.path.join(base, "ref"), os.path.join(base, "new")  # equal lengths
    try:
        os.makedirs(ref_copy)
        os.makedirs(new_copy)
        export_ref(root, args.ref, ref_copy)
        export_tree(root, new_copy)
        ref_lines, new_lines = src_lines(ref_copy), src_lines(new_copy)
        ref_check, ref_runs = run_copy(ref_copy)
        new_check, new_runs = run_copy(new_copy)
        print(f"REF {args.ref} against the working tree of {root}")
        print(f"src/grassopt lines: REF {ref_lines}, tree {new_lines} ({new_lines - ref_lines:+d})")
        print(f"check --seed 0 stdout: {'identical' if ref_check == new_check else 'DIFFERS'}")
        for name in ref_runs.keys() | new_runs.keys():
            if name not in ref_runs or name not in new_runs:
                print(f"{name}: run only in {'REF' if name in ref_runs else 'the tree'}")
        for name in (n for n in new_runs if n in ref_runs):
            print("\n".join(compare_run(name, ref_runs[name], new_runs[name])))
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
