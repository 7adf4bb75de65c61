"""Rebalancing placed per block, and the defects that went with the per-cell one.

* ``TestPlanAttachesFirst``: a cell written between the plan's read and
  the attach of the migration was neither dual-written nor known, so the
  cutover left it at its old homes only; the plan now attaches first.  A
  plan over a fully dead old chain still raises ``QuorumError`` — the
  dual-resolve fallback waits until the plan has read the population.
* ``TestPlacementPerBlock``: one ``add_node`` on a 48x48 four-node k=2
  array makes at most two ``site_of`` calls per stored cell (each box's
  site plane, once per partitioner), not one per cell per step.
* ``TestStaleCopies``: what the mid-rebalance state machine
  (``test_rebalance_machine.py``) found.  A node rebuilt after missing a
  write to a cell it held kept the old value and served it; and a new
  home that missed a dual write kept a copy this migration had delivered
  earlier, still trusted, and served it after the cutover.
* ``TestRebuildKeepsTheNewest``: a rebuilt node takes a replica's copy
  over its own only for a delivery it missed while down; a replica that
  lost a write in flight is not the newer copy.
* ``TestRollback``: an abort, or a plan whose read raises, deletes every
  copy the migration delivered off the old chain — also one a later dual
  write missed (untrusted, but still delivered).
* ``TestPlanes``: the migration's cell sets group coordinates by stride
  box in one sort, and a sparse set's planes span its cells, not whole
  boxes (a stride-less array's default box is 64 cells on a side).
"""

import numpy as np

import pytest

from repro import define_array
from repro.cluster import ConsistentHashPartitioner, FaultInjector, Grid
from repro.cluster import rebalance
from repro.cluster.array import Planes
from repro.core.errors import QuorumError
from repro.storage.loader import LoadRecord

pytestmark = pytest.mark.tier1

SCHEMA = define_array("sky", {"flux": "float"}, ["x", "y"])


def ring_grid(directory, side=8, members=(0, 1, 2), rows=None):
    grid = Grid(4, directory, default_replication=2, parallelism=1)
    arr = grid.create_array(
        "sky", SCHEMA.bind([side, side]),
        ConsistentHashPartitioner(4, members=members), stride=(4, 4),
    )
    rows = side if rows is None else rows
    model = {(x, y): float(x * side + y) for x in range(1, rows + 1)
             for y in range(1, side + 1)}
    arr.load(LoadRecord(c, (v,)) for c, v in model.items())
    return grid, arr, model


def content(arr):
    return {c: cell.flux for c, cell in arr.scan()}


def at_homes(grid, arr, model):
    """Cells some site of their chain lacks, or holds with another value."""
    held = [{c: cell.flux for c, cell in node.scan_partition("sky")}
            for node in grid.nodes]
    return [
        (c, s) for c, v in sorted(model.items()) for s in arr.replica_sites(c)
        if held[s].get(c) != v
    ]


class TestPlanAttachesFirst:
    def test_a_write_during_the_plan_read_is_not_lost(self, tmp_path, monkeypatch):
        grid, arr, model = ring_grid(tmp_path, rows=7)
        late = {(8, y): 500.0 + y for y in range(1, 9)}
        read = rebalance.read_partitions

        def read_then_write(*args, **kwargs):
            out = read(*args, **kwargs)
            for c, v in late.items():
                arr.write(c, (v,))
            return out

        monkeypatch.setattr(rebalance, "read_partitions", read_then_write)
        rb = grid.start_rebalance(
            "sky", arr.partitioner.with_member(3), max_transfer_cells_per_tick=1000
        )
        monkeypatch.undo()
        report = rb.run()
        model.update(late)
        assert not report.aborted
        assert content(arr) == model
        assert at_homes(grid, arr, model) == []

    def test_a_plan_over_a_dead_chain_still_raises(self, tmp_path):
        grid, arr, model = ring_grid(tmp_path)
        target = arr.partitioner.with_member(3)
        grid.nodes[0].fail()
        grid.nodes[1].fail()
        with pytest.raises(QuorumError):
            grid.start_rebalance("sky", target)
        assert arr._migration is None and grid.active_rebalancers == []
        grid.rebuild_node(0)
        grid.rebuild_node(1)
        report = grid.rebalance("sky", target)
        assert not report.aborted
        assert content(arr) == model


class TestPlacementPerBlock:
    def test_add_node_takes_each_site_from_a_box_plane(self, tmp_path, monkeypatch):
        grid = Grid(4, tmp_path, default_replication=2)
        schema = define_array("e20", {"flux": "float", "err": "float"}, ["x", "y"])
        arr = grid.create_array(
            "e20", schema.bind([48, 48]), ConsistentHashPartitioner(4),
            stride=(16, 16),
        )
        model = {(x, y): (float(x), float(y)) for x in range(1, 49)
                 for y in range(1, 49)}
        arr.load(LoadRecord(c, v) for c, v in model.items())
        calls = []
        site_of = ConsistentHashPartitioner.site_of

        def counted(self, coords):
            calls.append(coords)
            return site_of(self, coords)

        monkeypatch.setattr(ConsistentHashPartitioner, "site_of", counted)
        _node, (report,) = grid.add_node()
        monkeypatch.undo()
        assert not report.aborted and report.cells_total == len(model)
        assert len(calls) <= 2 * len(model)
        assert {c: tuple(cell.values) for c, cell in arr.scan()} == model


class TestStaleCopies:
    def test_a_rebuilt_node_refreshes_a_cell_written_while_it_was_down(self, tmp_path):
        """The machine's shrunk example: ring add planned, node 1 fails,
        (1, 1) is rewritten, node 1 is rebuilt from its WAL."""
        grid, arr, _ = ring_grid(tmp_path, side=6, rows=0)
        model = {(1, 1): 0.0, (1, 2): 1.0, (1, 3): 2.0, (2, 1): 3.0}
        arr.load(LoadRecord(c, (v,)) for c, v in model.items())
        rb = grid.start_rebalance(
            "sky", arr.partitioner.with_member(3), max_transfer_cells_per_tick=1
        )
        grid.nodes[1].fail()
        arr.write((1, 1), (101.0,))
        model[(1, 1)] = 101.0
        grid.rebuild_node(1)
        assert content(arr) == model
        rb.abort("the old placement keeps serving")
        assert content(arr) == model
        assert at_homes(grid, arr, model) == []

    def test_a_new_home_that_misses_a_dual_write_is_sent_it_again(self, tmp_path):
        grid, arr, model = ring_grid(tmp_path)
        rb = grid.start_rebalance(
            "sky", arr.partitioner.with_member(3), max_transfer_cells_per_tick=1000
        )
        rb.tick()
        c = next(c for c in sorted(model) if rb.migration.new_chain(c)[0] == 3)
        grid.nodes[3].fail()
        arr.write(c, (9.0,))
        model[c] = 9.0
        grid.rebuild_node(3)
        assert not rb.finalize()  # verify re-queues the stale copy
        rb.tick()
        assert rb.finalize()
        assert content(arr) == model
        assert at_homes(grid, arr, model) == []


class TestRebuildKeepsTheNewest:
    def test_a_write_its_replica_missed_survives_the_primary_rebuild(
        self, tmp_path, monkeypatch
    ):
        grid, arr, model = ring_grid(tmp_path)
        c = (1, 1)
        primary, replica = arr.replica_sites(c)
        faults = FaultInjector().attach(grid)
        monkeypatch.setattr(faults, "intercept", lambda src, dst, nbytes, reason, values: (
            "drop" if dst == replica else "deliver", values))
        arr.write(c, (77.0,))
        monkeypatch.undo()
        model[c] = 77.0
        grid.nodes[primary].fail()
        grid.rebuild_node(primary)
        held = dict(grid.nodes[primary].scan_partition("sky"))
        assert held[c].flux == 77.0
        assert content(arr) == model


class TestRollback:
    def test_an_abort_deletes_a_delivered_copy_a_dual_write_missed(self, tmp_path):
        grid, arr, model = ring_grid(tmp_path)
        rb = grid.start_rebalance(
            "sky", arr.partitioner.with_member(3), max_transfer_cells_per_tick=1000
        )
        rb.tick()
        c = next(c for c in sorted(model) if 3 in rb.migration.new_chain(c))
        grid.nodes[3].fail()
        arr.write(c, (9.0,))  # misses node 3, which holds the older copy
        model[c] = 9.0
        grid.rebuild_node(3)
        rb.abort("rolled back")
        assert list(grid.nodes[3].scan_partition("sky")) == []
        assert content(arr) == model
        assert at_homes(grid, arr, model) == []

    def test_a_plan_whose_read_raises_rolls_back_its_dual_writes(
        self, tmp_path, monkeypatch
    ):
        grid, arr, model = ring_grid(tmp_path)
        late = {(x, 1): 500.0 + x for x in range(1, 9)}

        def write_then_raise(*args, **kwargs):
            for c, v in late.items():
                arr.write(c, (v,))
            raise QuorumError("the read lost its last replica")

        monkeypatch.setattr(rebalance, "read_partitions", write_then_raise)
        with pytest.raises(QuorumError):
            grid.start_rebalance("sky", arr.partitioner.with_member(3))
        monkeypatch.undo()
        model.update(late)
        assert arr._migration is None
        assert list(grid.nodes[3].scan_partition("sky")) == []
        assert content(arr) == model


class TestPlanes:
    def test_many_boxes_group_in_one_pass(self):
        coords = np.argwhere(np.ones((256, 256), dtype=bool)) + 1
        cells = Planes((4, 4))
        cells.add(coords[::2])
        assert len(cells.planes) == 64 * 64 and len(cells) == len(coords) // 2
        assert cells.contains(coords).tolist() == [True, False] * (len(coords) // 2)
        cells.add(coords[::4], False)
        assert len(cells) == len(coords) // 4

    def test_a_sparse_set_spans_its_cells(self):
        cells = Planes((64, 64, 64))
        cells.add([(1, 1, 1), (3, 2, 1), (200, 9, 9)])
        assert sorted(box.shape for box in cells.boxes()) == [(1, 1, 1), (3, 2, 1)]
        (box,) = cells.boxes({(0, 0, 0)})
        assert box.origin == (1, 1, 1) and box.state.sum() == 2
        assert cells.contains(np.array([(3, 2, 1), (2, 2, 1), (64, 64, 64)])).tolist() == [
            True, False, False]
