"""What history and version reads return, pinned before the as-of rule
became one reduction over the store's blocks.

A seeded script of 44 commits runs on an 8x8 updatable array with a float
and an int32 attribute.  It sets, NULLs and deletes cells at random,
deletes one cell and inserts it again, and writes one cell (E3's cold cell)
once at history 1 and never again; 44 commits run past one 32-deep
history chunk.  Pinned: ``get``/``exists`` at every history value from 0
to one past the last, ``cell_history``, ``latest_cells``, ``snapshot``,
``history_sizes`` and ``delta_count``; ``Version.get``/``cells`` for
versions off the base under both ``follow_parent`` values; and what
``SciDB.recover`` rebuilds from the write-ahead log.  Large tables are
pinned as SHA-256 digests of their canonical text, with a few cells
spelled out.  The values were recorded at the commit before a deletion
became a delta in the store.
"""

import hashlib
import random

import pytest

from repro import EmptyCellError, SciDB, define_array
from repro.history import (
    DELETED, UpdatableArray, VersionTree, cell_history, snapshot,
)
from repro.history.timetravel import history_sizes

pytestmark = pytest.mark.tier1

SIDE = 8
COMMITS = 44
COLD = (8, 8)  # written once, at history 1
REINSERT = (1, 2)  # written at 2, deleted at 10, written again at 12
CELLS = [(x, y) for x in range(1, SIDE + 1) for y in range(1, SIDE + 1)]
HORIZONS = range(0, COMMITS + 2)


def schema():
    return define_array(
        "Hist", {"v": "float", "n": "int32"}, ["x", "y"], updatable=True
    )


def script(seed=25):
    """The commits, oldest first: dicts of coords -> values, None or DELETED."""
    rng = random.Random(seed)
    pool = [c for c in CELLS if c not in (COLD, REINSERT)]
    commits = []
    for h in range(1, COMMITS + 1):
        writes = {}
        for _ in range(rng.randint(1, 6)):
            kind = rng.random()
            c = rng.choice(pool)
            if kind < 0.6:
                writes[c] = (rng.randint(-99, 99) / 4, rng.randint(-999, 999))
            elif kind < 0.8:
                writes[c] = None
            else:
                writes[c] = DELETED
        if h == 1:
            writes[COLD] = (7.0, 7)
        if h in (2, 12):
            writes[REINSERT] = (float(h), h)
        if h == 10:
            writes[REINSERT] = DELETED
        commits.append(writes)
    return commits


def commit(target, writes):
    txn = target.begin()
    for c, value in writes.items():
        if value is DELETED:
            txn.delete(c)
        elif value is None:
            txn.set_null(c)
        else:
            txn.set(c, value)
    return txn.commit()


def run(target, commits):
    for writes in commits:
        commit(target, writes)
    return target


def shown(value):
    if value is DELETED:
        return "DELETED"
    if value is None:
        return "NULL"
    return tuple(value.values)


def read(target, c, **as_of):
    try:
        return shown(target.get(c, **as_of))
    except EmptyCellError:
        return "EMPTY"


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def reads_table(arr):
    return [
        (c, h, read(arr, c, as_of=h), arr.exists(c, as_of=h))
        for c in CELLS
        for h in HORIZONS
    ]


def histories(arr):
    return {c: [(h, shown(v)) for h, v in cell_history(arr, c)] for c in CELLS}


def new_base():
    return UpdatableArray(schema(), bounds=[SIDE, SIDE, "*"], name="hist")


@pytest.fixture(scope="module")
def arr():
    return run(new_base(), script())


READS = "9888ea45ea386eaf"
HISTORIES = "719356e751e82d63"
SIZES = {
    1: 5, 2: 4, 3: 5, 4: 6, 5: 5, 6: 3, 7: 5, 8: 5, 9: 3, 10: 5, 11: 3,
    12: 6, 13: 2, 14: 3, 15: 5, 16: 2, 17: 2, 18: 1, 19: 6, 20: 4, 21: 6,
    22: 6, 23: 4, 24: 2, 25: 4, 26: 4, 27: 2, 28: 1, 29: 1, 30: 6, 31: 5,
    32: 5, 33: 3, 34: 5, 35: 3, 36: 6, 37: 5, 38: 1, 39: 5, 40: 3, 41: 1,
    42: 1, 43: 5, 44: 3,
}
DELTAS = 167


class TestUpdatableArray:
    def test_reads_at_every_history(self, arr):
        assert arr.current_history == COMMITS
        assert digest(reads_table(arr)) == READS

    def test_cold_cell_and_reinsert(self, arr):
        assert [read(arr, COLD, as_of=h) for h in HORIZONS] == (
            ["EMPTY"] + [(7.0, 7)] * (COMMITS + 1)
        )
        assert [read(arr, REINSERT, as_of=h) for h in range(0, 14)] == (
            ["EMPTY", "EMPTY"] + [(2.0, 2)] * 8 + ["EMPTY", "EMPTY"]
            + [(12.0, 12)] * 2
        )
        assert read(arr, REINSERT) == (12.0, 12)
        assert arr.get_or_none(REINSERT, as_of=11) is None
        assert not arr.exists(REINSERT, as_of=10)

    def test_cell_history(self, arr):
        assert digest(histories(arr)) == HISTORIES
        assert histories(arr)[COLD] == [(1, (7.0, 7))]
        assert histories(arr)[REINSERT] == [
            (2, (2.0, 2)), (10, "DELETED"), (12, (12.0, 12)),
        ]
        assert list(arr.cell_history(REINSERT))[1] == (10, DELETED)

    def test_latest_cells(self, arr):
        table = [
            [(c, shown(cell)) for c, cell in arr.latest_cells(as_of=h)]
            for h in HORIZONS
        ]
        assert digest(table) == "bea4023ce43c690f"
        assert [
            (c, shown(cell)) for c, cell in arr.latest_cells()
        ] == table[COMMITS]

    def test_snapshots(self, arr):
        table = []
        for h in [None, *HORIZONS]:
            snap = snapshot(arr, as_of=h)
            table.append((
                snap.name, snap.schema.name, snap.dim_names, snap.bounds,
                sorted((c, shown(cell)) for c, cell in snap.cells()),
            ))
        assert digest(table) == "373d25399a898bf7"
        assert table[0][:4] == (
            "hist@44", "Hist_snapshot", ("x", "y"), (SIDE, SIDE)
        )

    def test_history_sizes_and_delta_count(self, arr):
        assert history_sizes(arr) == SIZES
        assert arr.delta_count() == DELTAS == sum(SIZES.values())


def versioned(follow_parent):
    """A version made at history 30, given its own commits, then 14 more
    base commits."""
    commits = script()
    base = run(new_base(), commits[:30])
    v = VersionTree(base).create("v", follow_parent=follow_parent)
    commit(v, {(1, 1): (-1.0, -1), (2, 2): None, (3, 3): DELETED})
    commit(v, {(1, 1): (-2.0, -2), (4, 4): DELETED, REINSERT: (-3.0, -3)})
    commit(v, {(5, 5): (-5.0, -5), COLD: DELETED})
    run(base, commits[30:])
    return v


def version_table(v):
    return (
        [(c, read(v, c), v.exists(c)) for c in CELLS],
        sorted((c, shown(cell)) for c, cell in v.cells()),
    )


class TestVersions:
    @pytest.mark.parametrize("follow_parent, pinned", [
        ("creation", "787711ed1223563b"),
        ("latest", "971a00f5a172c5c5"),
    ])
    def test_version_reads(self, follow_parent, pinned):
        v = versioned(follow_parent)
        assert v.created_at == 30
        assert v.delta_count() == 8
        assert v.delta.current_history == 3
        gets, cells = version_table(v)
        assert digest((gets, cells)) == pinned
        assert read(v, (1, 1)) == (-2.0, -2)
        assert read(v, (2, 2)) == "NULL"
        assert read(v, COLD) == "EMPTY"
        assert dict(cells) == {c: r for c, r, _ in gets if r != "EMPTY"}


class TestRecover:
    def test_recover_rebuilds_history(self, tmp_path):
        db = SciDB(tmp_path)
        live = db.create_updatable(schema(), bounds=[SIDE, SIDE, "*"], name="hist")
        run(live, script())
        again = SciDB(tmp_path)
        assert again.recover() == ["hist"]
        got = again.updatable("hist")
        assert got.current_history == COMMITS
        assert digest(reads_table(got)) == READS
        assert digest(histories(got)) == HISTORIES
        assert history_sizes(got) == SIZES
        assert got.delta_count() == DELTAS
