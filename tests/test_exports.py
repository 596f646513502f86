import importlib
import pkgutil

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
