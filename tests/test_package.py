import importlib
import pkgutil

import pytest

import fcab

MODULES = ["fcab", *(f"fcab.{m.name}" for m in pkgutil.iter_modules(fcab.__path__))]


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_resolves(module):
    # A stale entry in __all__ breaks ``from module import *``.
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert [name for name in names if not hasattr(mod, name)] == []
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    assert set(names) <= set(namespace)
