"""Edge-case coverage for SciArray: the unchecked writer, masked region
writes, and high-dimensional arrays."""

import numpy as np
import pytest

from repro import BoundsError, SciArray, define_array
from repro.core.cells import CellState


class TestSetUnchecked:
    def test_matches_checked_writes(self):
        schema = define_array("E", {"a": "float", "b": "int32"}, ["x", "y"])
        checked = schema.create("c", [8, 8])
        fast = schema.create("f", [8, 8])
        rng = np.random.default_rng(0)
        for _ in range(30):
            coords = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            values = (float(rng.normal()), int(rng.integers(0, 9)))
            checked.set(coords, values)
            fast.set_unchecked(coords, values)
        assert fast.content_equal(checked)

    def test_null_via_unchecked(self):
        schema = define_array("E", {"v": "float"}, ["x"])
        arr = schema.create("a", [4])
        arr.set_unchecked((2,), None)
        assert arr.exists(2) and arr[2] is None

    def test_bumps_high_water(self):
        schema = define_array("E", {"v": "float"}, ["t"])
        arr = schema.create("a", ["*"])
        arr.set_unchecked((77,), (1.0,))
        assert arr.high_water("t") == 77


class TestMaskedRegionWrites:
    def test_state_plane_sets_null_cells(self):
        schema = define_array("E", {"v": "float"}, ["x", "y"])
        arr = schema.create("a", [4, 4])
        block = np.arange(16.0).reshape(4, 4)
        mask = block < 8  # first half NULL
        state = np.where(mask, CellState.NULL, CellState.PRESENT)
        arr.set_region((1, 1), {"v": block}, state)
        assert arr[1, 1] is None
        assert arr[4, 4].v == 15.0
        assert arr.count_present() == 8
        assert arr.count_occupied() == 16

    def test_mask_across_chunks(self):
        schema = define_array("E", {"v": "float"}, ["x", "y"])
        arr = SciArray(schema.bind([20, 20]), chunk_shape=(7, 7))
        block = np.ones((20, 20))
        mask = np.zeros((20, 20), dtype=bool)
        mask[::2, :] = True
        state = np.where(mask, CellState.NULL, CellState.PRESENT)
        arr.set_region((1, 1), {"v": block}, state)
        assert arr[1, 1] is None  # row 1 masked
        assert arr[2, 1].v == 1.0
        assert arr.count_present() == 200

    def test_empty_state_leaves_cells_and_chunks_unwritten(self):
        schema = define_array("E", {"v": "float"}, ["x", "t"])
        arr = SciArray(schema.bind([20, None]), chunk_shape=(7, 7))
        state = np.zeros((20, 20), dtype=np.uint8)
        state[2, 3] = CellState.PRESENT
        state[9, 11] = CellState.NULL
        arr.set_region((1, 1), {"v": np.ones((20, 20))}, state)
        assert arr.count_occupied() == 2 and arr.chunk_count() == 2
        assert arr[3, 4].v == 1.0 and arr[10, 12] is None
        assert not arr.exists(1, 1)
        # the unbounded dimension's high-water is the farthest occupied cell
        assert arr.bounds == (20, 12)

    def test_empty_state_entries_do_not_erase_stored_cells(self):
        schema = define_array("E", {"v": "float"}, ["x"])
        arr = schema.create("a", [6])
        arr[2] = 7.0
        arr.set_null(3)
        state = np.array(
            [CellState.PRESENT, CellState.EMPTY, CellState.EMPTY, CellState.NULL],
            dtype=np.uint8,
        )
        arr.set_region((1,), {"v": np.full(4, 9.0)}, state)
        assert arr[1].v == 9.0 and arr[4] is None
        assert arr[2].v == 7.0 and arr[3] is None  # kept, value and state

    def test_blocks_are_the_allocated_chunks_trimmed_to_the_bounds(self):
        schema = define_array("E", {"v": "float", "n": "int32"}, ["x", "t"])
        arr = SciArray(schema.bind([10, None]), chunk_shape=(4, 4))
        arr[10, 1] = (1.5, 7)          # chunk (2, 0): rows 9..12, bound 10
        arr.set_null((1, 6))           # chunk (0, 1): columns 5..8, high-water 6
        blocks = list(arr.blocks(["n"]))
        assert [origin for origin, _, _ in blocks] == [(1, 5), (9, 1)]
        (_, planes, state), (_, planes2, state2) = blocks
        assert set(planes) == {"n"} and planes["n"].dtype == np.int32
        assert state.shape == (4, 2) and state[0, 1] == CellState.NULL
        assert state2.shape == (2, 4) and planes2["n"][1, 0] == 7
        assert planes2["n"].base is not None  # a view, not a copy

    def test_planes_round_trip_states_and_values(self):
        schema = define_array("E", {"v": "float", "n": "int32"}, ["x", "y"])
        arr = SciArray(schema.bind([9, 9]), chunk_shape=(4, 4))
        arr[2, 2] = (1.5, 7)
        arr.set_null((5, 6))
        planes, state = arr.planes((2, 2), (6, 11), attrs=["n"])
        assert set(planes) == {"n"} and planes["n"].dtype == np.int32
        assert state.shape == (5, 10)
        assert state[0, 0] == CellState.PRESENT and planes["n"][0, 0] == 7
        assert state[3, 4] == CellState.NULL
        assert np.count_nonzero(state) == 2  # past the bounds: EMPTY


class TestHighDimensional:
    def test_5d_round_trip(self):
        dims = ["a", "b", "c", "d", "e"]
        schema = define_array("H5", {"v": "float"}, dims)
        data = np.arange(32.0).reshape(2, 2, 2, 2, 2)
        arr = SciArray.from_numpy(schema, data)
        np.testing.assert_array_equal(arr.to_numpy("v"), data)
        assert arr[2, 2, 2, 2, 2].v == 31.0

    def test_5d_operators(self):
        from repro.core import ops

        dims = ["a", "b", "c", "d", "e"]
        schema = define_array("H5", {"v": "float"}, dims)
        arr = SciArray.from_numpy(
            schema, np.arange(32.0).reshape(2, 2, 2, 2, 2)
        )
        agg = ops.aggregate(arr, ["a"], "sum")
        assert agg[1].sum + agg[2].sum == pytest.approx(np.arange(32.0).sum())
        sub = ops.subsample(arr, {"c": 1})
        assert sub.bounds == (2, 2, 1, 2, 2)


class TestChunkStateAccounting:
    def test_states_consistent_after_mixed_ops(self):
        schema = define_array("E", {"v": "float"}, ["x"])
        arr = schema.create("a", [10])
        arr[1] = 1.0
        arr.set_null((2,))
        arr[3] = 3.0
        arr.delete((3,))
        states = {}
        for chunk in arr.chunks():
            for off in np.ndindex(*chunk.shape):
                coord = chunk.origin[0] + off[0]
                if coord <= 10:
                    states[coord] = int(chunk.state[off])
        assert states[1] == CellState.PRESENT
        assert states[2] == CellState.NULL
        assert states[3] == CellState.EMPTY

    def test_region_rejects_inverted_box(self):
        schema = define_array("E", {"v": "float"}, ["x"])
        arr = schema.create("a", [10])
        with pytest.raises(BoundsError):
            arr.region((5,), (3,))
