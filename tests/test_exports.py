"""The public surface: every exported name resolves, and the README example runs."""

import importlib
import os
import re

import numpy as np
import pytest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


@pytest.mark.parametrize("module", [
    "grassopt", "grassopt.manifold", "grassopt.optim", "grassopt.nn", "grassopt.regularizer",
    "grassopt.gradcheck", "grassopt.metrics",
])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_readme_example_converges_to_bottom_eigenvalue(capsys):
    blocks = re.findall(r"```python\n(.*?)```", open(README).read(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], README, "exec"), namespace)
    y, a = namespace["y"], namespace["a"]
    assert abs(np.linalg.norm(y) - 1.0) < 1e-12
    assert abs(float(y @ a @ y) - np.linalg.eigvalsh(a)[0]) < 1e-9
    assert capsys.readouterr().out.strip()
