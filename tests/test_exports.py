"""Every public export resolves.

Each name in ``__all__`` of the package boundaries must import, so a
deletion cannot leave a stale name behind in an export list.
"""

import importlib

import pytest

MODULES = ("repro", "repro.api", "repro.obs", "repro.core")


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
