import ast
import functools
import importlib
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import imulab

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(imulab.__path__))
PACKAGE_DIR = Path(imulab.__file__).resolve().parent
TESTS_DIR = Path(__file__).resolve().parent


@pytest.mark.parametrize("module_name", ["imulab", *(f"imulab.{m}" for m in SUBMODULES)])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined attributes: {missing}"


@functools.cache
def _outside_uses() -> dict[str, set[str]]:
    """Submodule -> the names that other package modules import from it and
    that test modules import from it or read as ``<module>.<name>``."""
    uses = {m: set() for m in SUBMODULES}
    for path in PACKAGE_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in uses:
                uses[node.module].update(alias.name for alias in node.names)
    for path in TESTS_DIR.glob("*.py"):
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> the submodule it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "imulab":
                modules.update((a.asname or a.name, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("imulab."):
                uses[node.module.split(".")[1]].update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                modules.update((a.asname, a.name.split(".")[1]) for a in node.names
                               if a.asname and a.name.startswith("imulab."))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and modules.get(node.value.id) in uses):
                uses[modules[node.value.id]].add(node.attr)
    return uses


@pytest.mark.parametrize("module_name", SUBMODULES)
def test_every_exported_name_has_an_outside_user(module_name):
    """A name in ``__all__`` is imported by another package module or used
    by a test; one that nothing outside its module uses is a helper, so it
    leaves ``__all__`` (and takes a leading underscore if its module alone
    reads it)."""
    exported = getattr(importlib.import_module(f"imulab.{module_name}"), "__all__", [])
    unused = [name for name in exported if name not in _outside_uses()[module_name]]
    assert not unused, f"imulab.{module_name}.__all__ names that nothing outside uses: {unused}"


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


def _project() -> dict:
    """The ``[project]`` table of pyproject.toml as setuptools reads it
    (``tomllib`` is not in Python 3.10)."""
    from setuptools.config.pyprojecttoml import read_configuration

    with warnings.catch_warnings():  # [tool.setuptools] support is "beta"
        warnings.simplefilter("ignore")
        config = read_configuration(Path(__file__).resolve().parents[1] / "pyproject.toml")
    return config["project"]


def test_pyproject_version_is_the_package_version():
    # The recording-stats cache key embeds imulab.__version__; the
    # distribution must carry the same string, not a copy of it.
    project = _project()
    assert "version" in project["dynamic"]
    assert project["version"] == imulab.__version__


def test_dependencies_are_the_third_party_modules_imported():
    """``[project].dependencies`` names exactly the top-level modules outside
    the standard library that the package imports (each distribution here
    is named as its module), so a dependency is neither missing nor left
    over."""
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group() for req in _project()["dependencies"]}
    imported = set()
    for path in PACKAGE_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert declared == imported - set(sys.stdlib_module_names)


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


@pytest.mark.parametrize("module_name", SUBMODULES)
def test_no_module_imports_a_private_name_of_another(module_name):
    """A ``_name`` is a helper of its own module: another package module
    imports only public names, so a helper can change with its module."""
    tree = ast.parse((PACKAGE_DIR / f"{module_name}.py").read_text())
    private = [
        f"{'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert not private, f"{module_name}.py imports private names: {private}"


@pytest.mark.parametrize("module_name", SUBMODULES)
def test_every_private_module_name_is_loaded(module_name):
    """A module-level ``_name`` (function, class or constant) is a helper of
    its own module, so one that the module never loads was left behind by a
    deletion."""
    tree = ast.parse((PACKAGE_DIR / f"{module_name}.py").read_text())
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    private = {n for n in defined if n.startswith("_") and not n.startswith("__")}
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = private - loaded
    assert not unused, f"{module_name}.py defines and never loads {sorted(unused)}"
