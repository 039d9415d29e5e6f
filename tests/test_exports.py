"""Every public export resolves.

Each name in ``__all__`` of every ``repro`` module that declares one
must import, so a deletion cannot leave a stale name behind in an
export list.
"""

import importlib
import pkgutil

import pytest

import repro


def _modules_with_all():
    names = ["repro"] + [info.name for info in pkgutil.walk_packages(
        repro.__path__, prefix="repro.")]
    return sorted(name for name in names
                  if hasattr(importlib.import_module(name), "__all__"))


MODULES = _modules_with_all()


def test_package_boundaries_are_covered():
    assert {"repro", "repro.api", "repro.obs", "repro.core"} <= set(MODULES)


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_imports(module_name):
    module = importlib.import_module(module_name)
    exported = list(module.__all__)
    assert exported
    assert len(exported) == len(set(exported)), "duplicate export"
    namespace = {}
    exec(f"from {module_name} import *", namespace)
    missing = sorted(set(exported) - set(namespace))
    assert not missing, missing
