import importlib
import pkgutil

import pytest

import acy

MODULES = ["acy"] + [f"acy.{m.name}" for m in pkgutil.iter_modules(acy.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    # a stale entry would only break `from <module> import *`
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}"
