"""``core.array.coalesce``: a partition's blocks as one block.

Writing ``coalesce(blocks)`` with ``set_region`` must leave the same
array as one ``set_region`` per block, in order — NULL cells, a
``string`` attribute, read-only broadcast planes (value pruning's
all-NULL blocks), overlapping boxes and boxes that do not tile — and a
union box over twice the blocks' volume comes back unchanged.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import define_array
from repro.core.array import Chunk, SciArray, coalesce
from repro.core.cells import CellState
from repro.query.stats import BucketStats
from repro.storage.bucket import Bucket
from repro.storage.manager import _null_blocks

pytestmark = pytest.mark.tier1

SCHEMA = define_array(
    "T", {"v": "float", "n": "int", "s": "string"}, ["x", "y"]
).bind([40, 40])


def planes_for(rng, shape):
    words = np.array(["a", "bb", "ccc", None], dtype=object)
    return {
        "v": rng.normal(size=shape),
        "n": rng.integers(-99, 99, size=shape),
        "s": words[rng.integers(0, len(words), size=shape)],
    }


@st.composite
def block_lists(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    spread = draw(st.integers(1, 32))  # near: one block; far: unchanged
    blocks = []
    for _ in range(draw(st.integers(1, 7))):
        shape = tuple(rng.integers(1, 9, size=2).tolist())
        origin = tuple(rng.integers(1, min(spread, 41 - s) + 1).item() for s in shape)
        state = rng.choice(
            [CellState.EMPTY, CellState.PRESENT, CellState.NULL],
            size=shape, p=[0.3, 0.5, 0.2],
        ).astype(np.uint8)
        planes = planes_for(rng, shape)
        if rng.random() < 0.3:  # value pruning's read-only broadcast planes
            planes = {
                name: np.broadcast_to(plane.flat[0], shape)
                for name, plane in planes.items()
            }
        blocks.append(Chunk(origin, shape, state, planes))
    return blocks


def written(blocks):
    out = SciArray(SCHEMA, name="out")
    for b in blocks:
        out.set_region(b.origin, b.data, b.state)
    return sorted(
        (c, None if cell is None else cell.values)
        for c, cell in out.cells(include_null=True)
    ), out.count_present(), out.count_occupied()


@settings(max_examples=150, deadline=None)
@given(block_lists())
def test_one_block_writes_what_the_blocks_write(blocks):
    merged = coalesce(blocks)
    assert written(merged) == written(blocks)
    assert len(merged) == 1 or merged is blocks


def test_blocks_that_tile_become_one_block():
    rng = np.random.default_rng(3)
    blocks = [
        Chunk((x, y), (8, 8), np.ones((8, 8), np.uint8), planes_for(rng, (8, 8)))
        for x in (1, 9, 17) for y in (1, 9)
    ]
    (one,) = coalesce(blocks)
    assert (one.origin, one.shape) == ((1, 1), (24, 16))
    assert written([one]) == written(blocks)


def test_a_union_box_over_twice_the_volume_comes_back_unchanged():
    rng = np.random.default_rng(4)
    apart = [
        Chunk((1, 1), (4, 4), np.ones((4, 4), np.uint8), planes_for(rng, (4, 4))),
        Chunk((30, 30), (4, 4), np.ones((4, 4), np.uint8), planes_for(rng, (4, 4))),
    ]
    assert coalesce(apart) is apart
    single = apart[:1]
    assert coalesce(single) is single


def test_value_pruned_footprints_read_as_null_cells():
    """``_null_blocks`` builds its all-NULL blocks (broadcast, read-only
    planes) and merges them with the same helper."""
    rng = np.random.default_rng(5)
    footprints, expect = [], set()
    for i, origin in enumerate([(1, 1), (1, 9), (9, 1), (9, 9)]):
        state = (rng.random((8, 8)) < 0.6).astype(np.uint8)
        cells = [
            (tuple(int(c) for c in np.add(at, origin)), (1.0, 2, "x"))
            for at in np.argwhere(state)
        ]
        expect.update(c for c, _ in cells)
        footprints.append(BucketStats.from_bucket(Bucket.from_cells(SCHEMA, cells), i))
    blocks = _null_blocks(SCHEMA, footprints)
    cells, present, occupied = written(blocks)
    assert {c for c, values in cells if values is None} == expect
    assert present == 0 and occupied == len(expect)
    assert len(blocks) == 1  # they tile a 16x16 box
    with pytest.raises(ValueError):
        footprints[0].occupied()[0, 0] = True  # decoded once, read-only
    assert footprints[0].occupied() is footprints[0].occupied()
