"""Do a workload's set-up and nothing else, so its wall time is setup_s.

    python3 perfbench/setup_probe.py WORKLOAD [INPUT.ini]

Set-up is what every invocation pays before its first step: starting
the interpreter, importing the CLI, parsing the config or manifest, and
building the initial state(s).
"""

from __future__ import annotations

import sys

from rrgas.cli import main  # noqa: F401  (the import the CLI itself pays)
from rrgas.config import init_state, load_config
from rrgas.mms import CASES
from rrgas.sweep import expand, load_manifest


def setup(workload: str, path: str | None) -> None:
    if workload == "mms-trig":
        CASES["trig"]().initial_state(64)
    elif workload == "sweep-jobs2":
        base, items = load_manifest(path)
        for _, config in expand(base, items):
            init_state(config)
    else:
        init_state(load_config(path))


if __name__ == "__main__":
    setup(sys.argv[1], sys.argv[2] if len(sys.argv) > 2 else None)
