"""Every name a module of the package imports is used in that module,
no function decides a run setting a second time, every public
function has a caller in the package, and only workers.py starts
processes.

Stdlib-ast checks, so they need no linter.  __init__.py is left out of
the import and caller checks: its imports are the package's public
names, not uses of them.
"""

import ast
import dataclasses
import pathlib

import pytest

import rrgas
from rrgas.config import RunConfig

PACKAGE = pathlib.Path(rrgas.__file__).resolve().parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names source binds by import but never references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom a.b import c, d as e\nnp.ones(c)\n"
    assert unused_imports(source) == ["os (line 1)", "e (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


# RunConfig field -> its default, for the fields that have a plain one.
RUN_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunConfig)
                if f.default is not dataclasses.MISSING}


def shadowed_settings(source: str) -> list[str]:
    """The keyword defaults in source that repeat the default of the
    RunConfig field of the same name: a second home for a run setting."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
        pairs += [(arg, default) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                  if default is not None]
        for arg, default in pairs:
            if arg.arg not in RUN_DEFAULTS:
                continue
            try:
                value = ast.literal_eval(default)
            except ValueError:
                continue
            if value == RUN_DEFAULTS[arg.arg]:
                found.append(f"{node.name}({arg.arg}) (line {node.lineno})")
    return found


def test_shadowed_settings_are_found():
    source = ("def f(dt, v_floor=1e-8, *, newton_max_iter=50, theta_floor=0.0):\n    pass\n"
              "def g(t_end=0.4, n_cells=RunConfig.n_cells, newton_tol=None):\n    pass\n")
    assert RUN_DEFAULTS["v_floor"] == 1e-8 and RUN_DEFAULTS["newton_max_iter"] == 50
    assert shadowed_settings(source) == ["f(v_floor) (line 1)", "f(newton_max_iter) (line 1)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_keeps_run_settings_in_run_config(path):
    assert shadowed_settings(path.read_text()) == []


# Public functions the package keeps for verification, with no caller in
# the package itself: the explicit reference integrator, the semi-discrete
# residual check and the readers of the files a run writes.
VERIFICATION_TOOLS = {
    "explicit.run_explicit", "explicit.stable_dt", "mms.discrete_residual",
    "output.read_snapshot", "output.read_diagnostics",
}


def unreferenced_functions(sources: dict) -> list[str]:
    """The public module-level functions in sources (module name ->
    source) that no code references by name: neither another module, nor
    their own module outside their def."""
    trees = {module: ast.parse(source) for module, source in sources.items()}

    def names(node):
        return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))}

    statements = {module: [names(top) for top in tree.body] for module, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        elsewhere = set().union(*(used for other, tops in statements.items() if other != module
                                  for used in tops))
        for i, node in enumerate(tree.body):
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            own = set().union(*(used for j, used in enumerate(statements[module]) if j != i))
            if node.name not in elsewhere | own:
                found.append(f"{module}.{node.name}")
    return found


def test_unreferenced_functions_are_found():
    sources = {
        "a": "def used():\n    pass\ndef own():\n    pass\ndef alone():\n    alone()\n"
             "def _private():\n    pass\nown()\n",
        "b": "from .a import used\ndef main():\n    used()\n"
             "if __name__ == '__main__':\n    main()\n",
        "c": "import b\ndef dead():\n    b.helper()\n",
    }
    assert unreferenced_functions(sources) == ["a.alone", "c.dead"]


def test_every_public_function_has_a_caller_in_the_package():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert sorted(set(unreferenced_functions(sources)) - VERIFICATION_TOOLS) == []


PROCESS_MODULES = ("multiprocessing", "concurrent.futures")


def process_imports(source: str) -> list[str]:
    """The imports in source of a module of PROCESS_MODULES, or of one
    inside them."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(module == name or module.startswith(name + ".")
               for module in modules for name in PROCESS_MODULES):
            found.append(f"line {node.lineno}")
    return found


def test_process_imports_are_found():
    source = ("import os\nimport multiprocessing\nfrom concurrent.futures import Executor\n"
              "import concurrent.futures.process as p\nfrom concurrent import futures\n"
              "from . import workers\nimport multiprocessing_extra\n")
    assert process_imports(source) == ["line 2", "line 3", "line 4", "line 5"]


# workers.py holds the one fork policy; no other module starts a process.
@pytest.mark.parametrize("path", [path for path in sorted(PACKAGE.glob("*.py"))
                                  if path.name != "workers.py"], ids=lambda path: path.name)
def test_only_workers_starts_processes(path):
    assert process_imports(path.read_text()) == []
