import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import amrfv

MODULES = ["amrfv"] + sorted(f"amrfv.{m.name}" for m in pkgutil.iter_modules(amrfv.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which the module does not define"


def test_readme_library_sketch_runs(tmp_path):
    # the README's python block, run as written with the checkout's src on the path and
    # output under a scratch directory, so a trim of the API cannot break the documented example
    root = Path(__file__).resolve().parent.parent
    blocks = re.findall(r"^```python\n(.*?)^```", (root / "README.md").read_text(), re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", blocks[0]], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    leaves, l1 = done.stdout.split()
    assert int(leaves) > 0 and float(l1) > 0
