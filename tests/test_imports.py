"""Every name a module of the package imports is used in that module,
no function decides a run setting a second time, every public
function has a caller in the package, only workers.py starts
processes or decides where they may run, only solver.py decides how
often a step is retried, only driver.py and solver.py step a run, and
only solver.py loads native code, so the CLI starts without scipy.

Stdlib-ast checks, so they need no linter, and one start-up check in a
fresh interpreter.  __init__.py is checked like every module: it
re-exports nothing, since each public name is imported from its own
module, so a re-export would be an unused import.
"""

import ast
import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

import rrgas
from rrgas.config import RunConfig

PACKAGE = pathlib.Path(rrgas.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


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
NATIVE_MODULES = ("scipy", "ctypes")


def imports_of(source: str, packages) -> list[str]:
    """The imports in source of a module of packages, or of one inside
    them."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(module == name or module.startswith(name + ".")
               for module in modules for name in packages):
            found.append(f"line {node.lineno}")
    return found


def test_process_imports_are_found():
    source = ("import os\nimport multiprocessing\nfrom concurrent.futures import Executor\n"
              "import concurrent.futures.process as p\nfrom concurrent import futures\n"
              "from . import workers\nimport multiprocessing_extra\n")
    assert imports_of(source, PROCESS_MODULES) == ["line 2", "line 3", "line 4", "line 5"]


# workers.py holds the one fork policy; no other module starts a process.
@pytest.mark.parametrize("path", [path for path in sorted(PACKAGE.glob("*.py"))
                                  if path.name != "workers.py"], ids=lambda path: path.name)
def test_only_workers_starts_processes(path):
    assert imports_of(path.read_text(), PROCESS_MODULES) == []


def test_native_imports_are_found():
    source = ("import numpy as np\nimport ctypes\nfrom scipy.linalg.lapack import dptsv\n"
              "import scipy.optimize\nfrom ctypes import c_void_p\nfrom . import solver\n"
              "import scipyx\n")
    assert imports_of(source, NATIVE_MODULES) == ["line 2", "line 3", "line 4", "line 5"]


# solver.py holds the one LAPACK binding, numpy's OpenBLAS through
# ctypes or scipy's where numpy has none; no other module loads either.
@pytest.mark.parametrize("path", [path for path in sorted(PACKAGE.glob("*.py"))
                                  if path.name != "solver.py"], ids=lambda path: path.name)
def test_only_solver_loads_native_code(path):
    assert imports_of(path.read_text(), NATIVE_MODULES) == []


START_UP = """\
import json, sys
scipy_modules = lambda: sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
from rrgas.cli import main
imported = scipy_modules()
code = main(["run", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([imported, code, scipy_modules()]))
"""


def test_cli_starts_and_runs_without_scipy(configs_dir, tmp_path):
    # A fresh interpreter: this test session has imported scipy itself.
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run([sys.executable, "-c", START_UP, str(configs_dir / "equilibrium.ini"),
                             str(tmp_path / "out")], env=env, capture_output=True, text=True,
                            check=True)
    summary, modules = result.stdout.splitlines()
    assert summary.startswith("run ")
    assert json.loads(modules) == [[], 0, []]


def references(source: str, name: str) -> list[str]:
    """The lines of source that name `name`: as a variable, an attribute,
    an imported name, a parameter or a keyword argument."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named = any(name in (alias.name.rpartition(".")[2], alias.asname)
                        for alias in node.names)
        else:
            named = (isinstance(node, ast.Name) and node.id == name
                     or isinstance(node, ast.Attribute) and node.attr == name
                     or isinstance(node, ast.arg) and node.arg == name
                     or isinstance(node, ast.keyword) and node.arg == name)
        if named:
            lines.add(node.lineno)
    return [f"line {line}" for line in sorted(lines)]


def test_references_are_found():
    source = ("from .solver import DT_MIN, MAX_REJECTIONS\nimport solver as s\n"
              "x = s.MAX_REJECTIONS\nfrom a import b as MAX_REJECTIONS\n"
              "MAX_REJECTIONS_SEEN = 1\nprint('MAX_REJECTIONS')\n")
    assert references(source, "MAX_REJECTIONS") == ["line 1", "line 3", "line 4"]


# solver.step holds the one retry policy: a rejected attempt is retried
# at half the dt up to MAX_REJECTIONS times; a batch step is one attempt.
@pytest.mark.parametrize("path", [path for path in sorted(PACKAGE.glob("*.py"))
                                  if path.name != "solver.py"], ids=lambda path: path.name)
def test_only_solver_names_the_retry_limit(path):
    assert references(path.read_text(), "MAX_REJECTIONS") == []


FORK_RULE_NAMES = ("CAN_FORK", "sched_getaffinity")


def test_fork_rule_names_are_found():
    source = ("import os\nfrom .workers import CAN_FORK\nn = len(os.sched_getaffinity(0))\n"
              "if workers.CAN_FORK:\n    pass\nCAN_FORK_SEEN = 1\nprint('sched_getaffinity')\n")
    assert [references(source, name) for name in FORK_RULE_NAMES] == [["line 2", "line 4"],
                                                                      ["line 3"]]


# workers.may_fork holds the one fork rule: the platform forks and the
# process may run on more than one CPU; no other module reads either.
@pytest.mark.parametrize("path", [path for path in sorted(PACKAGE.glob("*.py"))
                                  if path.name != "workers.py"], ids=lambda path: path.name)
def test_only_workers_names_the_fork_rule(path):
    assert [references(path.read_text(), name) for name in FORK_RULE_NAMES] == [[], []]


def test_laws_names_are_found():
    source = ("laws = state.laws\nfrom .mesh import laws\nstate.laws = None\n"
              "_energy_laws(theta)\nlaws_seen = 1\nprint('laws')\n")
    assert references(source, "laws") == ["line 1", "line 2", "line 3"]


# A step leaves the law values it evaluated on its new state
# (mesh.State.laws), which solver and diagnostics.record read; a state
# carries levels, not states, so no other module frees or reads them.
@pytest.mark.parametrize("path", [path for path in sorted(PACKAGE.glob("*.py"))
                                  if path.name not in ("mesh.py", "solver.py", "diagnostics.py")],
                         ids=lambda path: path.name)
def test_only_mesh_solver_and_diagnostics_name_the_carried_laws(path):
    assert references(path.read_text(), "laws") == []


def test_history_names_are_found():
    source = ("levels = state.history\nnew.history = ()\ndef f(state, history=()):\n"
              "    pass\nstep(state, history=levels)\nhistory_seen = 1\nprint('history')\n")
    assert references(source, "history") == ["line 1", "line 2", "line 3", "line 5"]


# A step leaves the levels Newton's next start point is extrapolated
# through on its new state (mesh.State.history), and indexing a state
# cuts them; no other module builds, cuts or hands them over.
@pytest.mark.parametrize("path", [path for path in sorted(PACKAGE.glob("*.py"))
                                  if path.name not in ("mesh.py", "solver.py")],
                         ids=lambda path: path.name)
def test_only_mesh_and_solver_name_the_history(path):
    assert references(path.read_text(), "history") == []


def test_select_calls_are_found():
    source = ("params = params.select(going)\nfrom .constitutive import select\n"
              "def select(self, index):\n    pass\nselected = 1\nprint('select')\n")
    assert references(source, "select") == ["line 1", "line 2"]


# The solver steps whatever members it is given; only the driver picks
# which members a batch holds (PhysParams.select).
@pytest.mark.parametrize("path", [path for path in sorted(PACKAGE.glob("*.py"))
                                  if path.name != "driver.py"], ids=lambda path: path.name)
def test_only_driver_selects_batch_members(path):
    assert references(path.read_text(), "select") == []


STEP_NAMES = ("step", "step_batch")


def test_step_names_are_found():
    source = ("from .solver import step, step_batch as advance\nimport solver\n"
              "new, _ = solver.step(state, config, history=history)\nsteps = 1\n"
              "advance(batch, config, dt=dt)\nprint('step_batch')\n")
    assert [references(source, name) for name in STEP_NAMES] == [["line 1", "line 3"],
                                                                  ["line 1"]]


# Every time loop lives in driver.py, which hands solver.step and
# solver.step_batch the state to step from and nothing else; no other
# module steps a run.
@pytest.mark.parametrize("path", [path for path in sorted(PACKAGE.glob("*.py"))
                                  if path.name not in ("driver.py", "solver.py")],
                         ids=lambda path: path.name)
def test_only_driver_and_solver_name_the_step(path):
    assert [references(path.read_text(), name) for name in STEP_NAMES] == [[], []]
