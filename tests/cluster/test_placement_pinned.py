"""The placement of work, pinned.

``cluster/`` was taken apart along its seams (ledger, read path, write
path, operators) on the promise that *where* work runs and *what* moves
did not change.  This module makes that a test: one fixed 4-node k=2
disk grid is driven through a checkpointed load, the six statement
classes of the benchmark, a failover read with a node down and a node
rebuild, and the movement ledger, its transfer count and the scheduler's
task count after every step are compared with the values recorded at the
commit before the split.

The second test guards the traced benchmark run: ``perf/tracing.py``
wraps seven ``DistributedArray`` methods and sums their time into
``cluster.grid.op_ms``, so none of the seven may be implemented by
calling another — shared bodies are private helpers.
"""

import threading

import pytest

from repro import SciDB, define_array
from repro.cluster import HashPartitioner
from repro.cluster.grid import DistributedArray
from repro.storage.loader import LoadRecord

pytestmark = pytest.mark.tier1

SIDE = 16
SKY = define_array("Sky", {"flux": "float", "err": "float"}, ["x", "y"])

STATEMENTS = {
    "window": "select subsample(sky, x >= 3 and x <= 9 and y >= 5 and y <= 12)",
    "filter": "select filter(sky, flux > 100)",
    "aggregate": "select aggregate(sky, {x}, sum(flux))",
    "scan": "select filter(sky, flux > 0.5)",
    "regrid": "select regrid(sky, [4, 4], avg(flux))",
    "sjoin": "select sjoin(sky, ref, sky.x = ref.x and sky.y = ref.y)",
}

#: (ledger.by_reason(), len(ledger.transfers), scheduler.tasks) after each
#: step, recorded at the parent of the commit that split cluster/grid.py.
PINNED = {
    "load": ({"load": 15360, "replication": 15360}, 960, 0),
    "window": (
        {"load": 15360, "replication": 15360, "gather": 1792}, 964, 4,
    ),
    "filter": (
        {"load": 15360, "replication": 15360, "gather": 9472}, 968, 8,
    ),
    "aggregate": (
        {"load": 15360, "replication": 15360, "gather": 9472,
         "aggregate": 1440}, 1028, 12,
    ),
    "scan": (
        {"load": 15360, "replication": 15360, "gather": 17152,
         "aggregate": 1440}, 1032, 16,
    ),
    "regrid": (
        {"load": 15360, "replication": 15360, "gather": 17152,
         "aggregate": 1440, "regrid": 1536}, 1096, 20,
    ),
    "sjoin": (
        {"load": 15360, "replication": 15360, "gather": 32512,
         "aggregate": 1440, "regrid": 1536}, 1100, 32,
    ),
    "write_while_down": (
        {"load": 15456, "replication": 15424, "gather": 32512,
         "aggregate": 1440, "regrid": 1536}, 1105, 32,
    ),
    "failover_read": (
        {"load": 15456, "replication": 15424, "gather": 40320,
         "aggregate": 2952, "regrid": 1536}, 1172, 40,
    ),
    "rebuild": (
        {"load": 15456, "replication": 15424, "gather": 40320,
         "aggregate": 2952, "regrid": 1536, "rebuild": 96}, 1175, 44,
    ),
}


def records(scale: float):
    """Rows 1..15 of the 16x16 box; row 16 is written while a node is down."""
    for x in range(1, SIDE):
        for y in range(1, SIDE + 1):
            yield LoadRecord((x, y), (scale * (x * SIDE + y), 0.5))


def drive(tmp_path):
    """Run the fixed scenario; the observed triple after every step."""
    db = SciDB(tmp_path)
    grid = db.create_grid("g", n_nodes=4, replication=2)
    arrays = {}
    for name, scale in (("sky", 1.0), ("ref", 2.0)):
        arrays[name] = grid.create_array(
            name, SKY.bind([SIDE, SIDE]), HashPartitioner(4), stride=(8, 8)
        )
        db.register(name, arrays[name])
        report = arrays[name].load_checkpointed(records(scale))
        assert report.records_loaded == (SIDE - 1) * SIDE
    seen = {}

    def snapshot(step):
        seen[step] = (
            grid.ledger.by_reason(),
            len(grid.ledger.transfers),
            grid.scheduler.tasks,
        )

    snapshot("load")
    for cls, text in STATEMENTS.items():
        db.execute(text)
        snapshot(cls)
    grid.nodes[1].fail()
    # Cells written while node 1 is down are what its rebuild must copy
    # from replicas (its WAL never saw them).
    for coords in ((16, 1), (16, 7), (16, 9), (16, 16)):
        arrays["sky"].write(coords, (-1.0, 0.25))
    arrays["sky"].flush()
    snapshot("write_while_down")
    db.execute(STATEMENTS["aggregate"])
    db.execute(STATEMENTS["filter"])
    snapshot("failover_read")
    report = grid.rebuild_node(1)
    assert report.cells_from_replicas * 32 == report.bytes_moved > 0
    snapshot("rebuild")
    return seen


def test_placement_of_work_is_what_the_parent_recorded(tmp_path):
    seen = drive(tmp_path)
    assert list(seen) == list(PINNED)
    for step, want in PINNED.items():
        assert seen[step] == want, step


TRACED = (
    "subsample", "aggregate", "regrid", "sjoin", "materialize", "filter",
    "load_checkpointed",
)


def test_traced_operators_do_not_enter_one_another(tmp_path, monkeypatch):
    """Every name the tracer wraps exists, and a call to one never runs
    inside a call to another (their time would be counted twice)."""
    lock = threading.Lock()
    open_calls: list[str] = []
    nested: list[tuple[str, ...]] = []

    def watched(name, fn):
        def wrapper(*args, **kwargs):
            with lock:
                open_calls.append(name)
                if len(open_calls) > 1:
                    nested.append(tuple(open_calls))
            try:
                return fn(*args, **kwargs)
            finally:
                with lock:
                    open_calls.remove(name)
        return wrapper

    for name in TRACED:
        monkeypatch.setattr(
            DistributedArray, name, watched(name, getattr(DistributedArray, name))
        )
    drive(tmp_path)
    grid = SciDB(tmp_path / "direct").create_grid("g", replication=2)
    arr = grid.create_array(
        "sky", SKY.bind([SIDE, SIDE]), HashPartitioner(4), stride=(8, 8)
    )
    arr.load_checkpointed(records(1.0))
    arr.filter(lambda cell: cell.flux > 100)
    arr.materialize()
    assert nested == []
