"""Writes racing an online rebalance are never lost.

A write routes under the old placement and lands in the migration's new
homes too (the dual write); a cutover swaps the placement and deletes
the old copies.  Were the cutover to land between a write's old-chain
delivery and its dual write, the write would reach neither of the homes
that serve after the cutover.  Routing plus dual write, a tick's
read-and-deliver, and the cutover's swap therefore run under the grid's
one delivery lock.

``TestCutoverRace`` stages that interleaving deterministically: a hook
between the old-chain delivery and the dual write starts the cutover on
another thread and waits until it has either finished or is held off by
the write.  ``TestRebalanceConcurrency`` runs a writer thread sweeping
the array while a throttled rebalance migrates it, with a short switch
interval, and checks every replica copy afterwards.

``TestRunProgress`` stages what made ``Rebalancer.run`` abort a healthy
migration: writes between ticks place every queued cell, so a tick's
cells owed nothing by the time it took them, and ``run`` counted the
tick as no progress.  ``TestRunConcurrency`` drives ``run`` itself, not
hand ticks, beside a writer thread: no abort, no lost write.
"""

import sys
import threading

import pytest

from repro import define_array
from repro.cluster import ConsistentHashPartitioner, Grid
from repro.cluster.writepath import WritableArray
from repro.storage.loader import LoadRecord

pytestmark = pytest.mark.tier1

SIDE = 16
CELLS = [(x, y) for x in range(1, SIDE + 1) for y in range(1, SIDE + 1)]


def build(directory):
    """A 4-node k=2 grid whose ring has 3 members, loaded with zeros."""
    grid = Grid(4, directory, default_replication=2, parallelism=2)
    schema = define_array("sky", {"flux": "float"}, ["x", "y"])
    arr = grid.create_array(
        "sky", schema.bind([SIDE, SIDE]),
        ConsistentHashPartitioner(4, members=(0, 1, 2)), stride=(4, 4),
    )
    arr.load(LoadRecord(c, (0.0,)) for c in CELLS)
    return grid, arr


def copies(grid, arr, coords):
    """The value every site of *coords*' serving chain holds."""
    out = []
    for site in arr.replica_sites(coords):
        cell = grid.nodes[site].partition(arr.name).get(coords)
        out.append(None if cell is None else cell.values[0])
    return out


class _Watched:
    """The grid's delivery lock, noting when another thread must wait."""

    def __init__(self, lock):
        self.lock = lock
        self.contended = threading.Event()

    def __enter__(self):
        if not self.lock.acquire(blocking=False):
            self.contended.set()
            self.lock.acquire()
        return self

    def __exit__(self, *exc):
        self.lock.release()


class TestCutoverRace:
    def test_cutover_between_old_chain_delivery_and_dual_write(
        self, tmp_path, monkeypatch
    ):
        grid, arr = build(tmp_path)
        rb = grid.start_rebalance(
            "sky", arr.partitioner.with_member(3),
            max_transfer_cells_per_tick=10**6,
        )
        rb.tick()  # every copy made: the next finalize cuts over
        mig = rb.migration
        target = next(
            c for c in CELLS if set(mig.new_chain(c)) - set(mig.old_chain(c))
        )
        watched = _Watched(grid._deliver_lock)
        grid._deliver_lock = watched
        dual_write = WritableArray._dual_write
        cutovers, threads = [], []

        def cutover_first(self, coords, values):
            t = threading.Thread(target=lambda: cutovers.append(rb.finalize()))
            threads.append(t)
            t.start()
            # Until the cutover has finished, or waits for this write.
            while t.is_alive() and not watched.contended.wait(0.005):
                pass
            return dual_write(self, coords, values)

        monkeypatch.setattr(WritableArray, "_dual_write", cutover_first)
        arr.write(target, (1.0,))
        monkeypatch.undo()
        (t,) = threads
        t.join(timeout=30)
        assert not t.is_alive()
        assert cutovers == [True]
        assert arr.partitioner is mig.new_partitioner
        assert copies(grid, arr, target) == [1.0, 1.0]
        assert arr.materialize()[target].flux == 1.0


class TestRebalanceConcurrency:
    TRIALS = 6

    def test_writes_racing_a_rebalance_are_never_lost(self, tmp_path):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(self.TRIALS):
                self.trial(tmp_path / f"t{trial}")
        finally:
            sys.setswitchinterval(interval)

    def trial(self, directory):
        grid, arr = build(directory)
        last = {c: 0.0 for c in CELLS}
        stop = threading.Event()

        def writer():
            sweep = 0
            while not stop.is_set():
                sweep += 1
                for c in CELLS:
                    if stop.is_set():
                        return
                    arr.write(c, (float(sweep),))
                    last[c] = float(sweep)

        t = threading.Thread(target=writer, daemon=True)
        t.start()
        try:
            # Ticked by hand: ``run`` would count a tick whose cells the
            # writer's dual writes had already placed as no progress.
            rb = grid.start_rebalance(
                "sky", arr.partitioner.with_member(3),
                max_transfer_cells_per_tick=4,
            )
            for _ in range(10_000):
                if rb.finalize():
                    break
                rb.tick()
        finally:
            stop.set()
            t.join(timeout=60)
        assert not t.is_alive()
        assert rb.finished and not rb.aborted
        assert 3 in arr.partitioner.members
        got = {c: cell.flux for c, cell in arr.scan()}
        assert got == last
        stale = [c for c in CELLS if copies(grid, arr, c) != [last[c]] * 2]
        assert stale == []


class TestRunProgress:
    """``run`` counts a tick whose cells writes had already placed as
    progress: owed cells were settled, whoever settled them."""

    def test_writes_that_place_every_cell_do_not_abort_the_run(self, tmp_path):
        grid = Grid(4, tmp_path, default_replication=2)
        schema = define_array("sky", {"flux": "float"}, ["x", "y"])
        arr = grid.create_array(
            "sky", schema.bind([8, 8]),
            ConsistentHashPartitioner(4, members=(0, 1, 2)), stride=(4, 4),
        )
        cells = [(x, y) for x in range(1, 9) for y in range(1, 9)]
        arr.load(LoadRecord(c, (0.0,)) for c in cells)
        sweeps = []

        def rewrite_every_cell():
            sweeps.append(float(len(sweeps) + 1))
            for c in cells:
                arr.write(c, (sweeps[-1],))

        report = grid.rebalance(
            "sky", arr.partitioner.with_member(3),
            max_transfer_cells_per_tick=4, interleave=rewrite_every_cell,
        )
        assert (report.aborted, report.reason) == (False, "")
        assert report.dual_writes == 64 * len(sweeps)
        assert {c: cell.flux for c, cell in arr.scan()} == dict.fromkeys(
            cells, sweeps[-1]
        )
        assert [c for c in cells if copies(grid, arr, c) != [sweeps[-1]] * 2] == []


class TestRunConcurrency:
    TRIALS = 2

    def test_run_beside_a_writer_never_aborts_or_loses_a_write(self, tmp_path):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(self.TRIALS):
                self.trial(tmp_path / f"t{trial}")
        finally:
            sys.setswitchinterval(interval)

    def trial(self, directory):
        grid, arr = build(directory)
        last = {c: 0.0 for c in CELLS}
        stop = threading.Event()

        def writer():
            sweep = 0
            while not stop.is_set():
                sweep += 1
                for c in CELLS:
                    if stop.is_set():
                        return
                    arr.write(c, (float(sweep),))
                    last[c] = float(sweep)

        t = threading.Thread(target=writer, daemon=True)
        t.start()
        try:
            report = grid.rebalance(
                "sky", arr.partitioner.with_member(3),
                max_transfer_cells_per_tick=4,
            )
        finally:
            stop.set()
            t.join(timeout=60)
        assert not t.is_alive()
        assert (report.aborted, report.reason) == (False, "")
        assert 3 in arr.partitioner.members
        got = {c: cell.flux for c, cell in arr.scan()}
        assert got == last
        stale = [c for c in CELLS if copies(grid, arr, c) != [last[c]] * 2]
        assert stale == []
