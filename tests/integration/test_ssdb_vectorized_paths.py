"""Cross-checks of the engine's plane kernels on SS-DB data.

The numpy bodies (block apply, compiled filter, full-dimension sjoin,
remove_dimension, aggregate_all) must agree with the table backend and
with each operator's definition, including at sizes that don't divide
evenly into chunks or regrid factors and with NULL cells in the way.
"""

import numpy as np
import pytest

from repro import SciArray, define_array
from repro.core import ops
from repro.core.ops.content import aggregate_all
from repro.bench.ssdb import SSDB


@pytest.mark.parametrize("side,epochs", [(7, 2), (16, 3), (25, 5)])
class TestBackendsAgreeAtOddSizes:
    def test_all_queries(self, side, epochs):
        db = SSDB(side=side, epochs=epochs, seed=side)
        native = db.run_all("native")
        table = db.run_all("table")
        assert native["Q1"] == pytest.approx(table["Q1"])
        assert native["Q3"] == pytest.approx(table["Q3"])
        assert native["Q4"] == pytest.approx(table["Q4"])
        assert native["Q5"] == table["Q5"]
        assert native["Q6"] == table["Q6"]
        assert native["Q7"] == pytest.approx(table["Q7"])
        assert native["Q8"] == pytest.approx(table["Q8"])


class TestKernelsVsReference:
    """Each plane kernel against the operator's definition computed
    straight from the numpy data the array was built from (NaN marks a
    NULL cell, a missing key an EMPTY one)."""

    def make(self, shape=(9, 13), seed=1, holes=()):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=shape)
        schema = define_array("V", {"v": "float"}, ["x", "y", "z"][: len(shape)])
        arr = SciArray.from_numpy(schema, data)
        for coords in holes:
            arr.set_null(coords)
            data[tuple(c - 1 for c in coords)] = np.nan
        return arr, data

    @staticmethod
    def cells_of(arr, attr):
        return {
            c: None if cell is None else getattr(cell, attr)
            for c, cell in arr.cells()
        }

    @staticmethod
    def expected(data, keep=lambda v: True, value=lambda v: v):
        return {
            tuple(i + 1 for i in idx):
                value(v) if not np.isnan(v) and keep(v) else None
            for idx, v in np.ndenumerate(data)
        }

    def test_block_apply_matches_cell_apply_and_reference(self):
        arr, data = self.make(holes=[(2, 3)])
        cellwise = ops.apply(arr, lambda c: c.v * 3 + 1, [("w", "float")])
        blockwise = ops.apply(
            arr, output=[("w", "float")], block_fn=lambda b: b["v"] * 3 + 1
        )
        want = self.expected(data, value=lambda v: v * 3 + 1)
        assert self.cells_of(blockwise, "w") == pytest.approx(want)
        assert blockwise.content_equal(cellwise)

    def test_compiled_filter_matches_reference(self):
        from repro.query.ast import AttrPredicate, PredicateConjunction

        arr, data = self.make(holes=[(9, 13), (1, 1)])
        out = ops.filter(
            arr, PredicateConjunction((AttrPredicate("v", ">", 0),))
        )
        assert self.cells_of(out, "v") == self.expected(data, lambda v: v > 0)
        # the opaque per-cell route agrees
        assert out.content_equal(ops.filter(arr, lambda c: c.v > 0))

    def test_aggregate_all_skips_null_cells(self):
        arr, data = self.make(shape=(11, 11), seed=2)
        dense_avg = aggregate_all(arr, "avg")
        assert dense_avg == pytest.approx(data.mean())
        arr.set_null((1, 1))
        data[0, 0] = np.nan
        sparse_avg = aggregate_all(arr, "avg")
        assert sparse_avg == pytest.approx(np.nanmean(data))
        assert dense_avg != pytest.approx(sparse_avg)
        assert aggregate_all(arr, "stdev") == pytest.approx(np.nanstd(data))

    def test_sjoin_matches_reference_at_odd_sizes(self):
        rng = np.random.default_rng(3)
        a_schema = define_array("A", {"a": "float"}, ["x", "y"])
        b_schema = define_array("B", {"b": "float"}, ["x", "y"])
        da, db_ = rng.normal(size=(5, 9)), rng.normal(size=(6, 7))
        a = SciArray.from_numpy(a_schema, da)
        b = SciArray.from_numpy(b_schema, db_)
        a.set_null((5, 7))
        joined = ops.sjoin(a, b, on=[("x", "x"), ("y", "y")])
        want = {
            (i + 1, j + 1): (da[i, j], db_[i, j])
            for i in range(5) for j in range(7)  # the overlap of 5x9 and 6x7
        }
        want[(5, 7)] = None
        got = {
            c: None if cell is None else (cell.a, cell.b)
            for c, cell in joined.cells()
        }
        assert got == want

    def test_remove_dimension_matches_reference(self):
        arr, data = self.make(shape=(4, 6, 1), seed=4, holes=[(4, 6, 1)])
        out = ops.remove_dimension(arr, "z")
        assert out.dim_names == ("x", "y")
        assert self.cells_of(out, "v") == self.expected(data[:, :, 0])
