"""The child-pytest runner behind the cliff tests.

A cliff test runs a set of test directories again in a child pytest with
``cells`` patched, on the named classes of ``repro.core.array``, to raise
whenever code in one package is on the call stack.  The package's reads
must be plane reductions; test code, and other packages, may still ask an
array for its cells.  A child process keeps the patch out of this one.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

TESTS = Path(__file__).resolve().parent

CHILD = """
import sys

import pytest

from repro.core import array

package, classes = sys.argv[1], sys.argv[2].split(",")


def refusing(name, walk):
    def cells(self, *args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_globals.get("__name__", "").startswith(package):
                raise AssertionError(f"a {package} read asked {name}.cells")
            frame = frame.f_back
        return walk(self, *args, **kwargs)

    return cells


for name in classes:
    cls = getattr(array, name)
    cls.cells = refusing(name, cls.cells)
sys.exit(pytest.main(sys.argv[3:]))
"""


def assert_passes_with_cells_raising(package, classes, paths, caller):
    """Run *paths* (directories under ``tests/``) in a child pytest with
    ``cells`` of each of *classes* raising under *package*; the calling
    test file *caller* is left out."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [
            sys.executable, "-c", CHILD, package, ",".join(classes),
            "-p", "no:cacheprovider", *(str(TESTS / p) for p in paths),
            f"--ignore={caller}",
        ],
        cwd=TESTS.parent, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert " passed" in proc.stdout
