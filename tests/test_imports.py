"""Every name a module of the package imports is used in that module,
and no function decides a run setting a second time.

Stdlib-ast checks, so they need no linter.  __init__.py is left out of
the import check: its imports are the package's public names.
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
