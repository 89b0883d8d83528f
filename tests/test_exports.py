"""Every exported name resolves and every private function is called: a stale
`__all__` entry or an orphaned helper fails here, not in use."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_every_private_function_has_a_caller_in_src():
    # A private helper whose last caller left `src/` is dead code, even when
    # a test still imports it.
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted(Path(prismconn.__file__).parent.glob("*.py"))
    }
    defined = {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }
    used = set()
    for tree in trees.values():
        for top in tree.body:
            # A function's use of its own name (recursion) is not a caller.
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and name != own:
                    used.add(name)
    assert sorted(f"{module}:{name}" for module, name in defined if name not in used) == []
