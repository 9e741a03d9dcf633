import contextlib
import io
import multiprocessing
import pathlib

import pytest

from rrgas.cli import main
from rrgas.config import load_config

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS_DIR = REPO_ROOT / "configs"


@pytest.fixture
def configs_dir():
    return CONFIGS_DIR


@pytest.fixture
def shipped_config():
    """Loader for the example configurations shipped with the package."""

    def load(name):
        return load_config(CONFIGS_DIR / f"{name}.ini")

    return load


@pytest.fixture(scope="session")
def mms_table():
    """(exit code, stdout) of `rrgas mms <case> --levels 2`, computed once
    per case and session: the layout and golden-hash tests share it."""
    tables = {}

    def run(case):
        if case not in tables:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["mms", case, "--levels", "2"])
            tables[case] = (code, out.getvalue())
        return tables[case]

    return run


@pytest.fixture(autouse=True)
def no_leaked_child_processes():
    """Fails a test that leaves a child process running (a snapshot
    writer or a sweep worker that was never joined)."""
    yield
    leaked = multiprocessing.active_children()
    for child in leaked:
        child.terminate()
        child.join()
    assert not leaked, f"child processes left running: {leaked}"
