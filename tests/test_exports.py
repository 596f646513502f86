import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import imulab

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(imulab.__path__))
PACKAGE_DIR = Path(imulab.__file__).resolve().parent


@pytest.mark.parametrize("module_name", ["imulab", *(f"imulab.{m}" for m in SUBMODULES)])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined attributes: {missing}"


def test_package_import_loads_no_submodule():
    """``import imulab`` defines ``__version__`` only: the API is imported
    from its submodules, so the package root loads none of them, nor numpy."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")]))}
    code = "import sys, imulab; print(*sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    loaded = set(out.stdout.split())
    assert "imulab" in loaded
    assert not {m for m in loaded if m.startswith("imulab.")}
    assert "numpy" not in loaded


def test_pyproject_version_is_the_package_version():
    # The recording-stats cache key embeds imulab.__version__; the
    # distribution must carry the same string, not a copy of it.
    from setuptools.config.pyprojecttoml import read_configuration

    with warnings.catch_warnings():  # [tool.setuptools] support is "beta"
        warnings.simplefilter("ignore")
        config = read_configuration(Path(__file__).resolve().parents[1] / "pyproject.toml")
    assert "version" in config["project"]["dynamic"]
    assert config["project"]["version"] == imulab.__version__


@pytest.mark.parametrize("module_name", SUBMODULES)
def test_every_imported_name_is_used_or_exported(module_name):
    """No linter runs on the package, so an import left behind by a change
    is caught here."""
    tree = ast.parse((PACKAGE_DIR / f"{module_name}.py").read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    unused = imported - used - exported
    assert not unused, f"{module_name}.py imports and never uses {sorted(unused)}"
