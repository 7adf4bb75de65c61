"""History reads never ask for cells: the cliff stays shut.

In the style of ``test_statements_never_ask_for_cells``: ``tests/history``
(the pinned record and the reference model included) and
``tests/cooking`` run again in a child pytest with ``SciArray.cells``
patched to raise whenever code in ``repro.history`` is on the call stack.
Every history read — ``get``, ``cell_history``, ``latest_cells``,
``snapshot``, ``history_sizes``, version reads, recovery — is a plane
reduction; test code, and other packages such as cooking's opaque
compositing, may still ask an array for its cells.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.tier1

TESTS = Path(__file__).resolve().parents[1]

CHILD = """
import sys

import pytest

from repro.core.array import SciArray

walk = SciArray.cells


def cells(self, *args, **kwargs):
    frame = sys._getframe(1)
    while frame is not None:
        if frame.f_globals.get("__name__", "").startswith("repro.history"):
            raise AssertionError("a history read asked SciArray.cells")
        frame = frame.f_back
    return walk(self, *args, **kwargs)


SciArray.cells = cells
sys.exit(pytest.main(sys.argv[1:]))
"""


def test_history_and_cooking_pass_with_cells_raising_under_history():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [
            sys.executable, "-c", CHILD, "-p", "no:cacheprovider",
            str(TESTS / "history"), str(TESTS / "cooking"),
            f"--ignore={__file__}",
        ],
        cwd=TESTS.parent, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert " passed" in proc.stdout
