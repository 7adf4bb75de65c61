"""Unit tests for distributed Filter / Apply / Regrid on the grid
(Section 2.7's shared-nothing operator execution)."""

import numpy as np
import pytest

from repro import SchemaError, define_array
from repro.cluster import Grid, HashPartitioner, BlockPartitioner
from repro.storage.loader import LoadRecord


@pytest.fixture
def loaded(tmp_path):
    grid = Grid(4, tmp_path)
    schema = define_array("D", {"v": "float"}, ["x", "y"]).bind([20, 20])
    arr = grid.create_array("data", schema, HashPartitioner(4))
    rng = np.random.default_rng(0)
    recs = []
    for x in range(1, 21):
        for y in range(1, 21):
            recs.append(LoadRecord((x, y), (float(rng.normal(10, 3)),)))
    arr.load(recs)
    return grid, arr


class TestDistributedFilter:
    def test_no_movement(self, loaded):
        grid, arr = loaded
        grid.ledger.reset()
        out = arr.filter(lambda c: c.v > 10.0)
        # Only coordination-free local work: no join/repartition traffic.
        assert grid.ledger.total_bytes("join_shuffle") == 0
        assert grid.ledger.total_bytes("repartition") == 0
        mat = out.materialize()
        local = arr.materialize()
        for coords, cell in local.cells(include_null=False):
            if cell.v > 10.0:
                assert mat[coords].v == cell.v
            else:
                assert mat[coords] is None

    def test_same_partitioner(self, loaded):
        grid, arr = loaded
        out = arr.filter(lambda c: True, output_name="kept")
        assert out.partitioner == arr.partitioner
        assert grid.get_array("kept") is out

    def test_original_untouched(self, loaded):
        """No-overwrite even across the grid: Filter makes a new array."""
        grid, arr = loaded
        before = arr.cell_count()
        arr.filter(lambda c: False)
        assert arr.cell_count() == before


class TestDistributedApply:
    def test_matches_local_apply(self, loaded):
        grid, arr = loaded
        out = arr.apply(lambda c: c.v * 2.0, output=[("w", "float")])
        mat = out.materialize()
        for coords, cell in arr.materialize().cells(include_null=False):
            assert mat[coords].w == pytest.approx(cell.v * 2.0)

    def test_multi_output(self, loaded):
        grid, arr = loaded
        out = arr.apply(
            lambda c: (c.v, -c.v), output=[("pos", "float"), ("neg", "float")]
        )
        mat = out.materialize()
        (coords, cell), *_ = list(mat.cells(include_null=False))
        assert cell.pos == -cell.neg


class TestDistributedRegrid:
    def test_matches_local_regrid(self, loaded):
        grid, arr = loaded
        out = arr.regrid([5, 5], "sum")
        from repro.core import ops

        local = ops.regrid(arr.materialize(), [5, 5], "sum")
        for coords, cell in local.cells():
            assert out[coords].sum == pytest.approx(cell.sum)

    def test_moves_partials_not_cells(self, loaded):
        grid, arr = loaded
        grid.ledger.reset()
        arr.regrid([5, 5], "sum")
        partial_bytes = grid.ledger.total_bytes("regrid")
        raw_bytes = arr.cell_count() * arr.cell_nbytes
        assert 0 < partial_bytes < raw_bytes

    def test_holistic_ships_cells_and_matches_local(self, loaded):
        from repro import define_aggregate
        from repro.core import ops

        define_aggregate("dist_median_test", lambda: [],
                         lambda s, v: s + [v],
                         lambda s: sorted(s)[len(s) // 2] if s else None,
                         replace=True)
        grid, arr = loaded
        grid.ledger.reset()
        out = arr.regrid([5, 5], "dist_median_test")
        local = ops.regrid(arr.materialize(), [5, 5], "dist_median_test")
        assert list(out.cells()) == list(local.cells())
        assert grid.ledger.total_bytes("regrid") == 400 * arr.cell_nbytes

    def test_factor_validation(self, loaded):
        grid, arr = loaded
        with pytest.raises(SchemaError):
            arr.regrid([5], "sum")

    def test_unbounded_extent(self, tmp_path):
        grid = Grid(2, tmp_path / "u")
        schema = define_array("U", {"v": "float"}, ["t"]).bind(["*"])
        arr = grid.create_array("u", schema, HashPartitioner(2))
        arr.load([LoadRecord((t,), (1.0,)) for t in range(1, 11)])
        out = arr.regrid([5], "count")
        assert out[1].count == 5 and out[2].count == 5


class TestPipelineAcrossGrid:
    def test_filter_then_apply_then_regrid(self, loaded):
        """A whole analysis staying distributed until the final gather."""
        grid, arr = loaded
        hot = arr.filter(lambda c: c.v > 10.0, output_name="hot")
        scaled = hot.apply(lambda c: c.v - 10.0, output=[("excess", "float")],
                           output_name="excess")
        summary = scaled.regrid([10, 10], "sum")
        # Validate against a fully local computation.
        from repro.core import ops

        local = arr.materialize()
        expected = {}
        for coords, cell in local.cells(include_null=False):
            if cell.v > 10.0:
                key = tuple((c - 1) // 10 + 1 for c in coords)
                expected[key] = expected.get(key, 0.0) + (cell.v - 10.0)
        for key, total in expected.items():
            assert summary[key].sum == pytest.approx(total)


class TestNodeLocalOutputSurvivesRebuild:
    def test_filter_and_apply_output_come_back_whole_at_k1(self, tmp_path):
        """Node-local output is stored through the node's WAL like any
        other cell: with no replica to copy from (k=1), rebuilding every
        node from its WAL alone brings filter and apply output back."""
        grid = Grid(4, tmp_path)
        schema = define_array("E", {"v": "float"}, ["x", "y"]).bind([8, 8])
        arr = grid.create_array("e", schema, HashPartitioner(4), stride=(4, 4))
        arr.load(
            LoadRecord((x, y), (float(x * 8 + y),))
            for x in range(1, 9) for y in range(1, 9)
        )
        outputs = (
            arr.filter(lambda c: c.v > 40.0, output_name="kept"),
            arr.apply(lambda c: c.v * 2.0, output=[("w", "float")],
                      output_name="twice"),
        )

        def contents():
            return [
                sorted(
                    (c, None if cell is None else tuple(cell.values))
                    for c, cell in a.scan()
                )
                for a in (arr, *outputs)
            ]

        before = contents()
        assert [len(cells) for cells in before] == [64, 64, 64]
        for node in grid.nodes:
            node.fail()
            grid.rebuild_node(node.node_id)
        assert contents() == before
