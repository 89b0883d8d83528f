"""Every exported name resolves and has a user, and every private function is
called: a stale `__all__` entry, an orphaned helper or a public name nothing
calls fails here, not in use."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import prismconn

SRC = Path(prismconn.__file__).parent
PERFBENCH = SRC.parents[1] / "perfbench"
# Public names kept with no caller in src/ or perfbench/: independent oracles
# that only the tests compare against.
KEPT_ORACLES: set[str] = set()

MODULES = [prismconn] + [
    importlib.import_module(f"prismconn.{info.name}")
    for info in pkgutil.iter_modules(prismconn.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def _trees(directory: Path) -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(directory.glob("*.py"))}


def _names_used(trees, strings: bool = False) -> set[str]:
    """Names read anywhere in the trees, outside the definition that binds them.

    A function's or class's use of its own name (recursion, annotations) is
    not a caller, and neither is an assignment target or an `__all__` string.
    With `strings`, each dotted part of a string constant counts too: the
    benchmark's tracer names the functions it wraps or skips by string.
    """
    used = set()
    for tree in trees:
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(getattr(node, "ctx", None), ast.Store):
                    continue
                if strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.update(node.value.split("."))
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and name != own:
                    used.add(name)
    return used


def test_every_private_function_has_a_caller_in_src():
    # A private helper whose last caller left `src/` is dead code, even when
    # a test still imports it.
    trees = _trees(SRC)
    defined = {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }
    used = _names_used(trees.values())
    assert sorted(f"{module}:{name}" for module, name in defined if name not in used) == []


def test_every_public_name_has_a_caller_in_src_or_perfbench():
    # Re-exporting a name from the package's __init__ does not call it.
    trees = _trees(SRC)
    used = _names_used(tree for module, tree in trees.items() if module != "__init__.py")
    used |= _names_used(_trees(PERFBENCH).values(), strings=True)
    exported = {
        (module.__name__, name)
        for module in MODULES[1:]
        for name in getattr(module, "__all__", ())
    }
    unused = sorted(
        f"{module}:{name}" for module, name in exported if name not in used | KEPT_ORACLES
    )
    assert unused == []


LINK_MODELS = {"SimoMiso", "Mimo", "UnitDisk"}


def test_only_linkmodels_asks_a_link_model_its_type():
    # Model dispatch uses the models' own methods; what a link is, and what
    # it can answer, is decided in `linkmodels` alone.
    calls = []
    for module, tree in _trees(SRC).items():
        if module == "linkmodels.py":
            continue
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"):
                continue
            names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[-1])}
            if names & LINK_MODELS:
                calls.append(f"{module}:{node.lineno}")
    assert calls == []
