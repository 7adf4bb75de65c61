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

import pytest

from tests.cliff import assert_passes_with_cells_raising

pytestmark = pytest.mark.tier1


def test_history_and_cooking_pass_with_cells_raising_under_history():
    assert_passes_with_cells_raising(
        "repro.history", ["SciArray"], ["history", "cooking"], __file__
    )
