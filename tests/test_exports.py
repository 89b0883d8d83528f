"""Every exported name resolves and has a user, and every private function is
called: a stale `__all__` entry, an orphaned helper or a public name nothing
calls fails here, not in use."""

import ast
import importlib
import pkgutil
import typing
from pathlib import Path

import pytest

import prismconn
from prismconn import cli, linkmodels

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


def _isinstance_calls(tree: ast.Module, names: set[str]) -> list[int]:
    """Lines of the `isinstance` calls in the tree whose type argument names one of `names`."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "isinstance"
        and names & {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[-1])}
    ]


def test_only_linkmodels_asks_a_link_model_its_type():
    # Model dispatch uses the models' own methods; what a link is, and what
    # it can answer, is decided in `linkmodels` alone.
    calls = [
        f"{module}:{line}"
        for module, tree in _trees(SRC).items()
        if module != "linkmodels.py"
        for line in _isinstance_calls(tree, LINK_MODELS)
    ]
    assert calls == []


def test_linkmodels_asks_whether_a_model_reads_beta_r_eta_in_one_place():
    # the distance check and the support search both ask `_r_eta_overflows`
    assert len(_isinstance_calls(_trees(SRC)["linkmodels.py"], {"UnitDisk"})) == 1


def test_specfun_imports_nothing_from_scipy():
    # scipy's and math's functions are called directly where they are used;
    # specfun holds only what they lack
    imported = [
        alias.name if isinstance(node, ast.Import) else node.module
        for node in ast.walk(_trees(SRC)["specfun.py"])
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert [name for name in imported if name and name.split(".")[0] == "scipy"] == []


@pytest.mark.parametrize("model", typing.get_args(linkmodels.ConnectionModel))
def test_every_link_model_answers_the_protocol(model):
    # `assemble` reads `moment` and `inverse_length`, `mass_quadrature` `h`
    # and `step_radius`, and `McConfig` `h` through `support_radius`; the
    # field and the blocked H size their workspace by `H_WORK`; each model
    # defines all five
    names = ("h", "H_WORK", "inverse_length", "moment", "step_radius")
    assert [name for name in names if name not in vars(model)] == []


def test_only_linkmodels_and_cli_raise_capability_errors():
    # `linkmodels` refuses what a model does not implement, and `cli` what a
    # command does not accept; the library between them takes what it is given
    raising = {
        module
        for module, tree in _trees(SRC).items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and "CapabilityError" in {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}
    }
    assert raising - {"linkmodels.py", "cli.py"} == set()


def _functions(tree: ast.Module, prefix: str) -> dict[str, ast.FunctionDef]:
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith(prefix)
    }


def _callers(tree: ast.Module, name: str) -> list[str]:
    """The top-level functions of the tree that call `name`."""
    return sorted(
        top.name
        for top in tree.body
        if isinstance(top, ast.FunctionDef)
        and any(
            isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
            for node in ast.walk(top)
        )
    )


def test_only_main_resolves_a_commands_parameters_and_writes_its_manifest():
    tree = _trees(SRC)["cli.py"]
    assert _callers(tree, "_resolve") == ["main"]
    assert _callers(tree, "_write_manifest") == ["main"]


def test_pfc_and_simulate_build_their_expansion_in_one_place():
    tree = _trees(SRC)["cli.py"]
    assert _callers(tree, "_expansion") == ["cmd_pfc", "cmd_simulate"]
    assert [
        top.name
        for top in tree.body
        if isinstance(top, ast.FunctionDef)
        and any(getattr(node, "attr", None) == "assemble" for node in ast.walk(top))
    ] == ["_expansion"]


def test_only_the_package_main_runs_as_a_script():
    # the entries are `python -m prismconn` and the `prismconn` script
    assert [
        name
        for name, tree in _trees(SRC).items()
        if any(isinstance(top, ast.If) and "__main__" in ast.unparse(top.test)
               for top in tree.body)
    ] == ["__main__.py"]


def test_every_command_takes_its_arguments_and_resolved_parameters():
    commands = _functions(_trees(SRC)["cli.py"], "cmd_")
    assert sorted(commands) == sorted(f"cmd_{name}" for name in cli._PARAMS)
    for name, node in commands.items():
        assert [arg.arg for arg in node.args.args] == ["args", "params"], name


def test_no_check_builds_its_own_result():
    # `run_checks` names each result by the check's key in `_CHECKS`
    checks = _functions(_trees(SRC)["validation.py"], "_check_")
    assert checks
    assert [
        name
        for name, node in checks.items()
        if "CheckResult" in {getattr(n, "id", None) for n in ast.walk(node)}
    ] == []


def test_every_required_parameter_defaults_to_none():
    required = [
        (command, key, param.default)
        for command, table in cli._PARAMS.items()
        for key, param in table.items()
        if param.required
    ]
    assert {(command, key) for command, key, _ in required} == {
        ("mass", "model"), ("pfc", "rho"), ("simulate", "rho"), ("simulate", "seed"),
        ("field", "rho"), ("field", "seed"),
    }
    assert [default for *_, default in required] == [None] * len(required)
