import ast
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


# underscore names one amrfv module may read of another: the density check
# and the pressure-and-speed closure, which callers run on their own rows
SHARED_PRIVATE = {"eos._check_density", "eos._pressure_and_speed"}


def private_reads(source: str) -> set[str]:
    """``module._name`` for every underscore name of an amrfv module that ``source`` imports or reads."""
    tree = ast.parse(source)
    modules = {}  # local name -> amrfv module path
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "amrfv":
            for alias in node.names:
                if node.module == "amrfv":
                    modules[alias.asname or alias.name] = f"amrfv.{alias.name}"
                elif alias.name.startswith("_"):
                    found.add(f"{node.module[len('amrfv.'):]}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "amrfv":  # import amrfv.eos binds amrfv, ... as e binds amrfv.eos
                    modules[alias.asname or "amrfv"] = alias.name if alias.asname else "amrfv"

    def dotted(node):
        if isinstance(node, ast.Name):
            return modules.get(node.id)
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            return base and f"{base}.{node.attr}"

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.startswith("__"):
            base = dotted(node.value)
            if base and base.startswith("amrfv."):
                found.add(f"{base[len('amrfv.'):]}.{node.attr}")
    return found


def test_private_reads_are_found():
    source = (
        "import amrfv.forest\nimport amrfv.morton as m\nfrom amrfv import eos as e, solver\n"
        "from amrfv.partition import _component_counts, adjacency\n"
        "e._closure(1); solver._ARENA.take(1); amrfv.forest._x; m._y; e.__name__; e.solve_alpha; self._z\n"
    )
    assert private_reads(source) == {
        "eos._closure", "solver._ARENA", "forest._x", "morton._y", "partition._component_counts"
    }


def test_modules_read_no_other_private_names():
    # a module that reaches into another's internals ties the two together;
    # a name outside SHARED_PRIVATE should be made public or not be read
    src = Path(amrfv.__file__).resolve().parent
    reads = {path.stem: private_reads(path.read_text()) - SHARED_PRIVATE for path in sorted(src.glob("*.py"))}
    assert not {k: v for k, v in reads.items() if v}
