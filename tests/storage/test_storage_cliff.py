"""Storage reads never ask for cells: the cliff stays shut.

``tests/storage`` (the pinned source record included) runs again in a
child pytest with ``SciArray.cells`` and ``Chunk.cells`` (so
``Bucket.cells``) patched to raise whenever code in ``repro.storage`` is
on the call stack.  Every storage source — ``PersistentArray``, the
container reader and the in-situ adaptors — answers ``blocks(window)``,
and its cells, ``get``, ``count`` and load are the shared readers of
``core.array.BlockSource``, which walk planes with ``block_cells`` itself.
"""

import pytest

from tests.cliff import assert_passes_with_cells_raising

pytestmark = pytest.mark.tier1


def test_storage_passes_with_cells_raising_under_storage():
    assert_passes_with_cells_raising(
        "repro.storage", ["SciArray", "Chunk"], ["storage"], __file__
    )
