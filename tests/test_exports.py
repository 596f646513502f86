import importlib
import pkgutil
import warnings
from pathlib import Path

import pytest

import imulab

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(imulab.__path__))


@pytest.mark.parametrize("module_name", ["imulab", *(f"imulab.{m}" for m in SUBMODULES)])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined attributes: {missing}"


def test_pyproject_version_is_the_package_version():
    # The recording-stats cache key embeds imulab.__version__; the
    # distribution must carry the same string, not a copy of it.
    from setuptools.config.pyprojecttoml import read_configuration

    with warnings.catch_warnings():  # [tool.setuptools] support is "beta"
        warnings.simplefilter("ignore")
        config = read_configuration(Path(__file__).resolve().parents[1] / "pyproject.toml")
    assert "version" in config["project"]["dynamic"]
    assert config["project"]["version"] == imulab.__version__
