"""Every exported name resolves: a stale `__all__` entry fails here, not in use."""

import importlib
import pkgutil

import pytest

import prismconn

MODULES = [prismconn] + [
    importlib.import_module(f"prismconn.{info.name}")
    for info in pkgutil.iter_modules(prismconn.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
