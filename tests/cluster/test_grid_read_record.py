"""What the grid's read path returns and moves, pinned before it exchanged
blocks instead of cells.

One 4-node k=2 disk grid holds ``sky`` and a co-partitioned ``ref`` (16x16,
stride 4x4, values multiples of 1/4 so every sum is exact in any order)
and ``cat``, partitioned by range, so a join against it shuffles.  Before
any read, ``sky`` gets the storage states a partition read must resolve:

* a cell rewritten across two spills — the newer copy must win;
* a cell deleted with ``Node.delete`` on every replica site (a tombstone);
* cells written after the last spill and left in the write buffer,
  one of them rewriting a spilled cell and one of them NULL;
* buckets whose statistics prove ``flux > 100`` cannot match, so the
  ``filter`` statement value-prunes them.

Then the six statement classes of the benchmark run (the ``window`` box
straddles buckets on both axes), followed by a full ``scan``, a holistic
user aggregate, a join that shuffles, and an aggregate with a node down.
After every step the test compares the result's cells (a SHA-256 digest of
their canonical text, plus the count and a few cells spelled out), the
ledger's ``by_reason()``, ``len(ledger.transfers)`` and
``scheduler.tasks`` with the values recorded at the commit before the
change.
"""

import hashlib

import pytest

from repro import SciDB, define_array
from repro.cluster import HashPartitioner, RangePartitioner
from repro.core.udf import UserAggregate
from repro.storage.loader import LoadRecord

pytestmark = pytest.mark.tier1

SIDE = 16
SKY = define_array("Sky", {"flux": "float", "err": "float"}, ["x", "y"])

STATEMENTS = {
    "window": "select subsample(sky, x >= 3 and x <= 10 and y >= 2 and y <= 11)",
    "filter": "select filter(sky, flux > 100)",
    "aggregate": "select aggregate(sky, {x}, sum(flux))",
    "scan": "select filter(sky, flux > 0.5)",
    "regrid": "select regrid(sky, [4, 4], avg(flux))",
    "sjoin": "select sjoin(sky, ref, sky.x = ref.x and sky.y = ref.y)",
}

REWRITTEN = (2, 3)  # spilled twice; the second copy is 999.5
TOMBSTONE = (7, 8)  # deleted on every replica site
BUFFERED = {(16, 4): (3.25, 0.5), (9, 9): (-2.5, 0.75), (10, 10): None}

#: step -> (cell digest, cell count, ledger.by_reason(),
#: len(ledger.transfers), scheduler.tasks), recorded at the parent commit.
PINNED = {
    'window': (
        '5b162722cdb3b736', 79,
        {'load': 23168, 'replication': 23168, 'gather': 2528},
        1452, 4,
    ),
    'filter': (
        'e4eb170387739988', 240,
        {'load': 23168, 'replication': 23168, 'gather': 10208},
        1456, 8,
    ),
    'aggregate': (
        'fa3ffc8e30b91cf9', 16,
        {'load': 23168,
         'replication': 23168,
         'gather': 10208,
         'aggregate': 1464},
        1517, 12,
    ),
    'scan': (
        '39787b30618dbb03', 240,
        {'load': 23168,
         'replication': 23168,
         'gather': 17888,
         'aggregate': 1464},
        1521, 16,
    ),
    'regrid': (
        '58078ddfbcbaee66', 16,
        {'load': 23168,
         'replication': 23168,
         'gather': 17888,
         'aggregate': 1464,
         'regrid': 1536},
        1585, 20,
    ),
    'sjoin': (
        'b534151582fed704', 239,
        {'load': 23168,
         'replication': 23168,
         'gather': 33184,
         'aggregate': 1464,
         'regrid': 1536},
        1589, 32,
    ),
    'materialize': (
        'f19c751202679f37', 240,
        {'load': 23168,
         'replication': 23168,
         'gather': 40864,
         'aggregate': 1464,
         'regrid': 1536},
        1593, 36,
    ),
    'spread': (
        '064df0af33541d4a', 16,
        {'load': 23168,
         'replication': 23168,
         'gather': 40864,
         'aggregate': 9112,
         'regrid': 1536},
        1832, 40,
    ),
    'shuffle_join': (
        'a92b2fea683f262a', 239,
        {'load': 23168,
         'replication': 23168,
         'gather': 56160,
         'aggregate': 9112,
         'regrid': 1536,
         'join_shuffle': 5696},
        2014, 52,
    ),
    'failover_aggregate': (
        '36e11b20344c452e', 16,
        {'load': 23168,
         'replication': 23168,
         'gather': 56160,
         'aggregate': 10648,
         'regrid': 1536,
         'join_shuffle': 5696},
        2078, 56,
    ),
}


def spread(values):
    """A holistic aggregate: no merge, so the grid ships raw cells."""
    return max(values) - min(values) if values else None


SPREAD = UserAggregate(
    "spread", lambda: [], lambda s, v: s + [v], spread,
)


def records(scale):
    for x in range(1, SIDE):
        for y in range(1, SIDE + 1):
            yield LoadRecord((x, y), (scale * (x * SIDE + y) / 4, 0.5))


def canonical(arr):
    return sorted(
        (coords, None if cell is None else tuple(cell.values))
        for coords, cell in arr.cells()
    )


def digest(cells):
    return hashlib.sha256(repr(cells).encode()).hexdigest()[:16]


def drive(tmp_path):
    db = SciDB(tmp_path)
    grid = db.create_grid("g", n_nodes=4, replication=2)
    arrays = {}
    for name, scale, part in (
        ("sky", 1.0, HashPartitioner(4)),
        ("ref", 2.0, HashPartitioner(4)),
        ("cat", 3.0, RangePartitioner(4, dim=0, boundaries=[4, 8, 12])),
    ):
        arrays[name] = grid.create_array(
            name, SKY.bind([SIDE, SIDE]), part, stride=(4, 4)
        )
        db.register(name, arrays[name])
        arrays[name].load_checkpointed(records(scale))
    sky = arrays["sky"]
    sky.write(REWRITTEN, (999.5, 0.25))
    sky.flush()
    for site in sky.replica_sites(TOMBSTONE):
        assert grid.nodes[site].delete("sky", TOMBSTONE)
    for coords, values in BUFFERED.items():
        sky.write(coords, values)  # no flush: these stay buffered
    seen, results = {}, {}

    def snapshot(step, result):
        cells = canonical(result)
        results[step] = dict(cells)
        seen[step] = (
            digest(cells), len(cells), grid.ledger.by_reason(),
            len(grid.ledger.transfers), grid.scheduler.tasks,
        )

    for cls, text in STATEMENTS.items():
        snapshot(cls, db.query(text))
    snapshot("materialize", sky.materialize())
    snapshot("spread", sky.aggregate(["y"], SPREAD, "flux"))
    snapshot("shuffle_join", sky.sjoin(arrays["cat"]))
    grid.nodes[2].fail()
    snapshot("failover_aggregate", sky.aggregate(["y"], "avg", "flux"))
    return seen, results


def test_grid_reads_return_and_move_what_the_parent_recorded(tmp_path):
    seen, _results = drive(tmp_path)
    assert list(seen) == list(PINNED)
    for step, want in PINNED.items():
        assert seen[step] == want, step


def test_storage_states_resolve_as_recorded(tmp_path):
    _seen, results = drive(tmp_path)
    gathered = results["materialize"]
    assert gathered[REWRITTEN] == (999.5, 0.25)
    assert TOMBSTONE not in gathered
    assert gathered[(16, 4)] == (3.25, 0.5)
    assert gathered[(9, 9)] == (-2.5, 0.75)
    assert gathered[(10, 10)] is None
    assert len(gathered) == (SIDE - 1) * SIDE  # -tombstone, +(16, 4)
    window = results["window"]  # rebased: box corner (3, 2) is (1, 1)
    assert set(window) == {
        (x - 2, y - 1) for x in range(3, 11) for y in range(2, 12)
    } - {(TOMBSTONE[0] - 2, TOMBSTONE[1] - 1)}
    filtered = results["filter"]
    assert filtered[REWRITTEN] == (999.5, 0.25)
    assert filtered[(3, 4)] is None  # a value-pruned bucket's cell
    assert results["aggregate"][(2,)] == (
        sum((2 * SIDE + y) / 4 for y in range(1, SIDE + 1))
        - (2 * SIDE + 3) / 4 + 999.5,
    )
