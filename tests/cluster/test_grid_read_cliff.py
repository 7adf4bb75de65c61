"""The grid's read path never asks for cells: the cliff stays shut.

In the style of ``test_statements_never_ask_for_cells``: the six
statement classes of the benchmark run on the fault-free 4-node k=2 grid
of ``test_grid_read_record`` (a rewritten cell, a tombstone, buffered
cells, value-pruned buckets, a window straddling buckets) with every
block→cells walk — ``Chunk.cells`` (so ``Bucket.cells``),
``PersistentArray.scan`` and ``core.array.block_cells`` — patched to raise
whenever code in ``repro.cluster`` is on the call stack.  They must still
answer, and move, exactly what the record pinned.  Holistic user
aggregates and the mid-migration fallback are the only grid paths that
walk cells, and neither runs here.

Last, many threads reading the same fresh (just decoded) buckets at
once, with a short switch interval, must answer what a lone reader does.
"""

import sys
import threading

import pytest

from repro import SciDB
from repro.cluster import HashPartitioner, RangePartitioner
from repro.core import array as core_array
from repro.core.array import Chunk
from repro.storage.manager import PersistentArray
from tests.cluster.test_grid_read_record import (
    BUFFERED,
    PINNED,
    REWRITTEN,
    SIDE,
    SKY,
    SPREAD,
    STATEMENTS,
    TOMBSTONE,
    canonical,
    digest,
    records,
)

pytestmark = pytest.mark.tier1


def refusing(walk):
    def guarded(*args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_globals.get("__name__", "").startswith("repro.cluster"):
                raise AssertionError(f"the grid read path called {walk.__name__}")
            frame = frame.f_back
        return walk(*args, **kwargs)

    return guarded


def build(tmp_path):
    """The record's grid and storage states, before any read."""
    db = SciDB(tmp_path)
    grid = db.create_grid("g", n_nodes=4, replication=2)
    for name, scale, part in (
        ("sky", 1.0, HashPartitioner(4)),
        ("ref", 2.0, HashPartitioner(4)),
        ("cat", 3.0, RangePartitioner(4, dim=0, boundaries=[4, 8, 12])),
    ):
        arr = grid.create_array(name, SKY.bind([SIDE, SIDE]), part, stride=(4, 4))
        db.register(name, arr)
        arr.load_checkpointed(records(scale))
    sky = grid.get_array("sky")
    sky.write(REWRITTEN, (999.5, 0.25))
    sky.flush()
    for site in sky.replica_sites(TOMBSTONE):
        assert grid.nodes[site].delete("sky", TOMBSTONE)
    for coords, values in BUFFERED.items():
        sky.write(coords, values)
    return db, grid


@pytest.fixture
def walks_refused(monkeypatch):
    monkeypatch.setattr(Chunk, "cells", refusing(Chunk.cells))
    monkeypatch.setattr(PersistentArray, "scan", refusing(PersistentArray.scan))
    monkeypatch.setattr(core_array, "block_cells", refusing(core_array.block_cells))


def test_the_six_classes_pass_with_cell_walks_raising_under_cluster(
    tmp_path, walks_refused
):
    db, grid = build(tmp_path)
    for cls, text in STATEMENTS.items():
        cells = canonical(db.query(text))  # read back outside repro.cluster
        assert (
            digest(cells), len(cells), grid.ledger.by_reason(),
            len(grid.ledger.transfers), grid.scheduler.tasks,
        ) == PINNED[cls], cls


def test_the_guard_bites(tmp_path, walks_refused):
    """A holistic user aggregate still walks cells on the grid, so it
    must trip the same guard."""
    _db, grid = build(tmp_path)
    with pytest.raises(AssertionError, match="grid read path called cells"):
        grid.get_array("sky").aggregate(["y"], SPREAD, "flux")


def test_racing_first_reads_answer_what_a_lone_reader_does(tmp_path):
    def reads(db, grid):
        sky = grid.get_array("sky")
        return {
            "window": canonical(sky.subsample(((3, 2), (10, 11)))),
            "gather": canonical(sky.materialize()),
            "aggregate": canonical(sky.aggregate(["x"], "sum", "flux")),
            "shuffle_join": canonical(sky.sjoin(grid.get_array("cat"))),
        }

    want = reads(*build(tmp_path / "alone"))
    db, grid = build(tmp_path / "raced")
    got, errors = [], []

    def reader():
        try:
            got.append(reads(db, grid))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(got) == 8
    assert all(answer == want for answer in got)
