"""Unit tests for the simulated grid, movement ledger, co-partitioning and
the PanSTARRS-style uncertain load (Sections 2.7, 2.13)."""

import numpy as np
import pytest

from repro import PositionUncertainty, define_array
from repro.core.errors import PartitioningError, SchemaError
from repro.cluster import (
    BlockPartitioner,
    Grid,
    HashPartitioner,
    RangePartitioner,
    is_copartitioned,
)
from repro.storage.loader import LoadRecord


@pytest.fixture
def schema():
    return define_array("sky", {"flux": "float"}, ["x", "y"]).bind([100, 100])


@pytest.fixture
def grid(tmp_path):
    return Grid(4, tmp_path)


def records(n, seed=0):
    rng = np.random.default_rng(seed)
    seen = set()
    out = []
    while len(out) < n:
        c = (int(rng.integers(1, 101)), int(rng.integers(1, 101)))
        if c in seen:
            continue
        seen.add(c)
        out.append(LoadRecord(c, (float(rng.normal()),)))
    return out


class TestLoadAndScan:
    def test_cells_routed_by_partitioner(self, grid, schema):
        p = BlockPartitioner(4, bounds=[100, 100], blocks=[2, 2])
        arr = grid.create_array("sky", schema, p)
        arr.load(records(80))
        counts = arr.cells_per_node()
        assert sum(counts) == 80
        # All four quadrants populated.
        assert all(c > 0 for c in counts)

    def test_scan_returns_everything(self, grid, schema):
        arr = grid.create_array("sky", schema, HashPartitioner(4))
        recs = records(60)
        arr.load(recs)
        got = {c: cell.flux for c, cell in arr.scan()}
        assert got == {r.coords: r.values[0] for r in recs}

    def test_window_scan(self, grid, schema):
        arr = grid.create_array("sky", schema, HashPartitioner(4))
        arr.load(records(200, seed=1))
        window = ((1, 1), (30, 30))
        out = arr.subsample(window)
        for coords, _ in out.cells():
            assert coords[0] <= 30 and coords[1] <= 30

    def test_load_metered(self, grid, schema):
        arr = grid.create_array("sky", schema, HashPartitioner(4))
        arr.load(records(50))
        assert grid.ledger.total_bytes("load") == 50 * arr.cell_nbytes

    def test_imbalance_metric(self, grid, schema):
        # Route everything to one node: imbalance = n_nodes.
        p = RangePartitioner(4, dim=0, boundaries=[1000, 2000, 3000])
        arr = grid.create_array("sky", schema, p)
        arr.load(records(40))
        assert arr.imbalance() == pytest.approx(4.0)

    def test_partitioner_site_count_checked(self, grid, schema):
        with pytest.raises(PartitioningError):
            grid.create_array("sky", schema, HashPartitioner(2))

    def test_duplicate_name(self, grid, schema):
        grid.create_array("sky", schema, HashPartitioner(4))
        with pytest.raises(PartitioningError):
            grid.create_array("sky", schema, HashPartitioner(4))

    def test_get_array(self, grid, schema):
        arr = grid.create_array("sky", schema, HashPartitioner(4))
        assert grid.get_array("sky") is arr
        with pytest.raises(PartitioningError):
            grid.get_array("nope")


class TestDistributedAggregate:
    def test_algebraic_matches_local(self, grid, schema):
        arr = grid.create_array("sky", schema, HashPartitioner(4))
        recs = records(100, seed=2)
        arr.load(recs)
        out = arr.aggregate(["x"], "sum")
        expected = {}
        for r in recs:
            expected[r.coords[0]] = expected.get(r.coords[0], 0.0) + r.values[0]
        for x, total in expected.items():
            assert out[x].sum == pytest.approx(total)

    def test_avg_merges_correctly(self, grid, schema):
        arr = grid.create_array("sky", schema, HashPartitioner(4))
        arr.load(records(100, seed=3))
        out = arr.aggregate(["y"], "avg")
        gathered = {}
        for c, cell in arr.scan():
            gathered.setdefault(c[1], []).append(cell.flux)
        for y, vals in gathered.items():
            assert out[y].avg == pytest.approx(sum(vals) / len(vals))

    def test_partials_move_less_than_raw(self, grid, schema, tmp_path):
        arr = grid.create_array("sky", schema, HashPartitioner(4))
        arr.load(records(400, seed=4))
        grid.ledger.reset()
        arr.aggregate(["x"], "sum")
        algebraic_bytes = grid.ledger.total_bytes("aggregate")

        from repro import define_aggregate

        define_aggregate("grid_median_test", lambda: [],
                         lambda s, v: s + [v],
                         lambda s: sorted(s)[len(s) // 2] if s else None,
                         replace=True)
        grid.ledger.reset()
        arr.aggregate(["x"], "grid_median_test")
        holistic_bytes = grid.ledger.total_bytes("aggregate")
        assert algebraic_bytes < holistic_bytes


class TestCopartitionedJoin:
    def test_zero_shuffle_when_copartitioned(self, grid, schema):
        schema_b = define_array("mask", {"ok": "float"}, ["x", "y"]).bind(
            [100, 100]
        )
        p = BlockPartitioner(4, bounds=[100, 100], blocks=[2, 2])
        a = grid.create_array("sky", schema, p)
        b = grid.create_array("mask", schema_b, p)
        assert is_copartitioned(a, b)
        recs = records(50, seed=5)
        a.load(recs)
        b.load([LoadRecord(r.coords, (1.0,)) for r in recs])
        grid.ledger.reset()
        out = a.sjoin(b)
        assert grid.ledger.total_bytes("join_shuffle") == 0
        assert out.count_occupied() == 50

    def test_shuffle_when_not_copartitioned(self, grid, schema):
        schema_b = define_array("mask", {"ok": "float"}, ["x", "y"]).bind(
            [100, 100]
        )
        a = grid.create_array(
            "sky", schema, BlockPartitioner(4, bounds=[100, 100], blocks=[2, 2])
        )
        b = grid.create_array("mask", schema_b, HashPartitioner(4))
        assert not is_copartitioned(a, b)
        recs = records(50, seed=6)
        a.load(recs)
        b.load([LoadRecord(r.coords, (1.0,)) for r in recs])
        grid.ledger.reset()
        out = a.sjoin(b)
        assert grid.ledger.total_bytes("join_shuffle") > 0
        assert out.count_occupied() == 50

    def test_join_results_identical_either_way(self, grid, schema, tmp_path):
        schema_b = define_array("mask", {"ok": "float"}, ["x", "y"]).bind(
            [100, 100]
        )
        p = BlockPartitioner(4, bounds=[100, 100], blocks=[2, 2])
        a = grid.create_array("sky", schema, p)
        b = grid.create_array("mask", schema_b, p)
        recs = records(30, seed=7)
        a.load(recs)
        b.load([LoadRecord(r.coords, (2.0,)) for r in recs])
        local = a.sjoin(b)

        grid2 = Grid(4, tmp_path / "g2")
        a2 = grid2.create_array("sky", schema, p)
        b2 = grid2.create_array("mask", schema_b, HashPartitioner(4))
        a2.load(recs)
        b2.load([LoadRecord(r.coords, (2.0,)) for r in recs])
        shuffled = a2.sjoin(b2)
        assert local.content_equal(shuffled)

    def test_partial_dim_join_rejected(self, grid, schema):
        schema_b = define_array("ts", {"v": "float"}, ["x"]).bind([100])
        a = grid.create_array("sky", schema, HashPartitioner(4))
        b = grid.create_array("ts", schema_b, HashPartitioner(4))
        with pytest.raises(SchemaError):
            a.sjoin(b)


class TestRepartition:
    def test_moves_only_misplaced_cells(self, grid, schema):
        p1 = RangePartitioner(4, dim=0, boundaries=[25, 50, 75])
        arr = grid.create_array("sky", schema, p1)
        arr.load(records(100, seed=8))
        grid.ledger.reset()
        moved = arr.repartition(p1)  # same scheme: nothing moves
        assert moved == 0
        assert grid.ledger.total_bytes("repartition") == 0

    def test_repartition_preserves_data(self, grid, schema):
        p1 = RangePartitioner(4, dim=0, boundaries=[25, 50, 75])
        arr = grid.create_array("sky", schema, p1)
        recs = records(100, seed=9)
        arr.load(recs)
        before = {c: cell.flux for c, cell in arr.scan()}
        moved = arr.repartition(HashPartitioner(4))
        assert moved > 0
        after = {c: cell.flux for c, cell in arr.scan()}
        assert before == after
        assert arr.partitioner == HashPartitioner(4)

    def test_repartition_improves_balance_on_skew(self, grid, schema):
        # Hotspot: every record in x <= 25 -> all on site 0 under ranges.
        p1 = RangePartitioner(4, dim=0, boundaries=[25, 50, 75])
        arr = grid.create_array("sky", schema, p1)
        rng = np.random.default_rng(10)
        recs = []
        seen = set()
        while len(recs) < 80:
            c = (int(rng.integers(1, 26)), int(rng.integers(1, 101)))
            if c not in seen:
                seen.add(c)
                recs.append(LoadRecord(c, (1.0,)))
        arr.load(recs)
        skew_before = arr.imbalance()
        arr.repartition(HashPartitioner(4))
        assert arr.imbalance() < skew_before


class TestUncertainLoad:
    """Section 2.13: redundant placement of boundary observations."""

    def test_boundary_observations_replicated(self, grid, schema):
        p = BlockPartitioner(4, bounds=[100, 100], blocks=[2, 2])
        arr = grid.create_array("sky", schema, p)
        pu = PositionUncertainty((1.0, 1.0))
        # Observation near the quadrant boundary at x=50/51.
        n = arr.load_uncertain([((50.4, 10.0), (5.0,))], pu)
        assert n == 1
        assert grid.ledger.total_bytes("replication") > 0
        # Stored on both site 0 (x<=50 block) and site 2 (x>50 block).
        counts = arr.cells_per_node()
        assert sum(1 for c in counts if c > 0) == 2

    def test_interior_observation_not_replicated(self, grid, schema):
        p = BlockPartitioner(4, bounds=[100, 100], blocks=[2, 2])
        arr = grid.create_array("sky", schema, p)
        pu = PositionUncertainty((1.0, 1.0))
        arr.load_uncertain([((25.0, 25.0), (5.0,))], pu)
        assert grid.ledger.total_bytes("replication") == 0
        assert sum(arr.cells_per_node()) == 1

    def test_scan_deduplicates_replicas(self, grid, schema):
        p = BlockPartitioner(4, bounds=[100, 100], blocks=[2, 2])
        arr = grid.create_array("sky", schema, p)
        pu = PositionUncertainty((1.0, 1.0))
        arr.load_uncertain([((50.4, 50.4), (5.0,))], pu)
        cells = list(arr.scan())
        assert len(cells) == 1

    def test_uncertain_join_local_with_replication(self, grid, schema):
        """The point of replication: uncertain spatial joins need no
        movement because every candidate partition holds a replica."""
        schema_b = define_array("cat", {"mag": "float"}, ["x", "y"]).bind(
            [100, 100]
        )
        p = BlockPartitioner(4, bounds=[100, 100], blocks=[2, 2])
        a = grid.create_array("sky", schema, p)
        b = grid.create_array("cat", schema_b, p)
        pu = PositionUncertainty((1.0, 1.0))
        a.load_uncertain([((50.4, 10.0), (5.0,))], pu)
        b.load_uncertain([((50.4, 10.0), (17.0,))], pu)
        grid.ledger.reset()
        out = a.sjoin(b)
        assert grid.ledger.total_bytes("join_shuffle") == 0
        assert out.count_occupied() >= 1
        (coords, cell), *_ = list(out.cells())
        assert cell.flux == 5.0 and cell.mag == 17.0


class TestPartitionStrideSurvives:
    """A partition re-created after the array was (rebuild, added node,
    repartition) buckets with the creation stride, not the 64-per-dimension
    default — so statistics pruning keeps its granularity."""

    STRIDE = (8, 8)

    def loaded(self, tmp_path, partitioner):
        grid = Grid(4, tmp_path, default_replication=2)
        sky = define_array("sky", {"flux": "float"}, ["x", "y"]).bind([48, 48])
        arr = grid.create_array("sky", sky, partitioner, stride=self.STRIDE)
        # flux is clustered along x in bands one stride wide: a selective
        # range predicate rules out five of every six buckets.
        arr.load(
            LoadRecord((x, y), (float((x - 1) // 8) + y / 100,))
            for x in range(1, 49) for y in range(1, 49)
        )
        arr.flush()
        return grid, arr

    @staticmethod
    def top_band(grid, arr):
        """(buckets value-pruned, cells read) of a ``flux >= 5`` gather —
        a pruned bucket's cells come back NULL, unread."""
        from repro.query.stats import Interval

        def pruned():
            return sum(
                n.partition(arr.name).stats.buckets_value_pruned
                for n in grid.alive_nodes()
            )

        before = pruned()
        out = arr.materialize(attr_ranges={"flux": Interval(lo=5.0)})
        assert out.count_occupied() == 48 * 48
        return pruned() - before, out.count_present()

    def test_rebuild_node_keeps_stride_and_pruning(self, tmp_path):
        grid, arr = self.loaded(tmp_path, HashPartitioner(4))
        pruned_before, cells_before = self.top_band(grid, arr)
        assert pruned_before > 0 and cells_before == 8 * 48
        grid.nodes[1].fail()
        grid.rebuild_node(1)
        arr.flush()
        assert grid.nodes[1].partition("sky").stride == self.STRIDE
        assert self.top_band(grid, arr) == (pruned_before, cells_before)

    def test_added_node_keeps_stride(self, tmp_path):
        from repro.cluster import ConsistentHashPartitioner

        grid, arr = self.loaded(
            tmp_path, ConsistentHashPartitioner(4, members=range(4))
        )
        nid, _ = grid.add_node(max_transfer_cells_per_tick=10**9)
        arr.flush()
        added = grid.nodes[nid].partition("sky")
        assert added.stride == self.STRIDE
        assert added.live_cells > 0
        before = added.stats.buckets_value_pruned
        _, cells = self.top_band(grid, arr)
        assert cells == 8 * 48
        # the new member's buckets are stride-sized, so it prunes too
        assert added.stats.buckets_value_pruned > before

    def test_repartition_keeps_stride(self, tmp_path):
        grid, arr = self.loaded(tmp_path, HashPartitioner(4))
        arr.repartition(
            BlockPartitioner(4, bounds=[48, 48], blocks=[2, 2])
        )
        assert all(
            n.partition("sky").stride == self.STRIDE for n in grid.alive_nodes()
        )
        pruned, cells = self.top_band(grid, arr)
        assert pruned > 0 and cells == 8 * 48

    def test_filter_and_apply_outputs_keep_stride(self, tmp_path):
        grid, arr = self.loaded(tmp_path, HashPartitioner(4))
        kept = arr.filter(lambda cell: True)
        copied = arr.apply(
            lambda cell: cell.flux, [("flux", "float")], output_name="copy"
        )
        for out in (kept, copied):
            assert out.stride == self.STRIDE
            assert all(
                n.partition(out.name).stride == self.STRIDE
                for n in grid.alive_nodes()
            )
            pruned, cells = self.top_band(grid, out)
            assert pruned > 0 and cells == 8 * 48
