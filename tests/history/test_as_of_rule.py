"""One as-of rule for every history read, held to an independent model.

The first part is four wrong answers the per-cell read paths gave, one
regression each: a version of a version that was not pinned at its
creation, wall-clock reads that changed across ``recover``, a rejected
commit that had already written, and a negative horizon that raised a
different error per entry point.

The second part is the reference model.  A dict-of-lists replay of the
paper's rules (Section 2.5: the newest delta at or before the horizon,
a deletion flag hides the cell; Section 2.11: a version looks in its own
delta, then in its parent as of its creation or, following the parent,
its latest state) uses nothing from ``repro.history`` but the
:data:`DELETED` token.  Hypothesis
draws scripts of set, NULL, delete and re-insert deep enough that one
cell's history spans two history chunks, with version trees one to three
deep, and every as-of read must equal the model, before and after
``SciDB.recover``.  Extents are drawn bounded and unbounded, with cells
in two chunks, and a last test spreads deltas over a 10^7 x 10^7 extent.
"""

import bisect
import datetime as dt
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    EmptyCellError, SchemaError, SciDB, TransactionError, define_array,
)
from repro.core.array import DEFAULT_CHUNK_SIDE
from repro.core.errors import BoundsError, TypeMismatchError
from repro.history import DELETED, UpdatableArray, VersionTree, snapshot
from repro.history.timetravel import history_sizes, snapshot_at_time

pytestmark = pytest.mark.tier1


def one_d():
    return define_array("Obs", {"v": "float"}, ["x"], updatable=True)


def values(cells):
    return sorted((c, None if v is None else v.values) for c, v in cells)


class TestVersionOfVersionIsPinned:
    def tree(self, follow_parent):
        base = UpdatableArray(one_d(), bounds=[4, "*"], name="base")
        with base.begin() as t:
            t.set((1,), 1.0)
            t.set((2,), 2.0)
        tree = VersionTree(base)
        v1 = tree.create("v1")
        with v1.begin() as t:
            t.set((1,), 100.0)
        child = tree.create("child", parent=v1, follow_parent=follow_parent)
        with v1.begin() as t:
            t.set((1,), 200.0)
            t.set((2,), 222.0)
        return child

    def test_child_reads_its_parent_as_of_creation(self):
        child = self.tree("creation")
        assert child.created_at == 1
        assert child.get(1).v == 100.0
        assert child.get(2).v == 2.0
        assert values(child.cells()) == [((1,), (100.0,)), ((2,), (2.0,))]

    def test_following_child_reads_its_parent_latest(self):
        child = self.tree("latest")
        assert child.get(1).v == 200.0
        assert values(child.cells()) == [((1,), (200.0,)), ((2,), (222.0,))]


class TestWallClockSurvivesRecover:
    def test_as_of_time_is_the_same_after_recover(self, tmp_path):
        db = SciDB(tmp_path)
        obs = db.create_updatable(one_d(), bounds=[4, "*"], name="obs")
        for year, v in ((2020, 1.0), (2021, 2.0)):
            with obs.begin() as t:
                t.set((1,), v)
                t.commit(timestamp=dt.datetime(year, 1, 1))
        mid = dt.datetime(2020, 6, 1)
        assert obs.get_as_of_time((1,), mid).v == 1.0
        again = SciDB(tmp_path)
        again.recover()
        got = again.updatable("obs")
        assert got.get_as_of_time((1,), mid).v == 1.0
        assert snapshot_at_time(got, mid)[1].v == 1.0
        assert got.wallclock.from_basic((1, 2)) == (1, dt.datetime(2021, 1, 1))

    def test_a_record_without_a_timestamp_replays_untimed(self, tmp_path):
        """Commit records written before they carried a timestamp replay
        at the synthetic time an untimed commit gets."""
        (tmp_path / "wal.log").write_text(
            '{"op": "create_updatable", "array": "obs", "dims": [{"name": "x",'
            ' "size": 4}], "attrs": [{"name": "v", "type": "float"}]}\n'
            '{"op": "commit", "array": "obs", "history": 1, "writes":'
            ' [{"coords": [1], "values": [1.0]}, {"coords": [2], "deleted": true}]}\n'
        )
        db = SciDB(tmp_path)
        assert db.recover() == ["obs"]
        got = db.updatable("obs")
        assert got.get(1).v == 1.0 and not got.exists(2)
        assert got.wallclock.from_basic((1, 1)) == (1, dt.datetime(2009, 1, 1, 0, 0, 1))


class TestRejectedCommitLeavesNoTrace:
    def committed(self, tmp_path):
        db = SciDB(tmp_path)
        obs = db.create_updatable(one_d(), bounds=[4, "*"], name="obs")
        txn = obs.begin()
        txn.set((1,), 1.0)
        txn.commit(timestamp=dt.datetime(2020, 1, 1))
        return db, obs

    def assert_untouched(self, db, obs, tmp_path):
        assert obs.current_history == 1
        assert obs.get(1).v == 1.0
        assert not obs.exists(2)
        assert obs.delta_count() == 1
        assert history_sizes(obs) == {1: 1}
        txn = obs.begin()  # the failed transaction is finished
        txn.set((1,), 3.0)
        assert txn.commit(timestamp=dt.datetime(2022, 1, 1)) == 2
        again = SciDB(tmp_path)
        again.recover()
        got = again.updatable("obs")
        assert got.current_history == 2
        assert [got.get(1, as_of=h).v for h in (1, 2)] == [1.0, 3.0]

    def test_backwards_timestamp(self, tmp_path):
        db, obs = self.committed(tmp_path)
        txn = obs.begin()
        txn.set((1,), 2.0)
        txn.set((2,), 2.0)
        with pytest.raises(SchemaError):
            txn.commit(timestamp=dt.datetime(2019, 1, 1))
        self.assert_untouched(db, obs, tmp_path)

    @pytest.mark.parametrize("bad, error", [
        ((9,), BoundsError),  # past the declared extent
        ((2,), TypeMismatchError),  # a value of the wrong type
    ])
    def test_bad_write_fails_before_any_write(self, tmp_path, bad, error):
        db, obs = self.committed(tmp_path)
        txn = obs.begin()
        txn.set((2,), 2.0)
        txn.set(bad, 5.0 if error is BoundsError else "five")
        with pytest.raises(error):
            txn.commit()
        self.assert_untouched(db, obs, tmp_path)


class TestNegativeHorizon:
    @pytest.fixture
    def obs(self):
        obs = UpdatableArray(one_d(), bounds=[4, "*"], name="obs")
        with obs.begin() as t:
            t.set((1,), 1.0)
        return obs

    @pytest.mark.parametrize("read", [
        lambda a: a.get(1, as_of=-1),
        lambda a: a.get_or_none(1, as_of=-1),
        lambda a: a.exists(1, as_of=-1),
        lambda a: list(a.latest_cells(as_of=-1)),
        lambda a: snapshot(a, as_of=-1),
    ], ids=["get", "get_or_none", "exists", "latest_cells", "snapshot"])
    def test_one_typed_error(self, obs, read):
        with pytest.raises(TransactionError, match="invalid history horizon"):
            read(obs)

    def test_zero_is_before_the_first_commit(self, obs):
        assert not obs.exists(1, as_of=0)
        assert snapshot(obs, as_of=0).count_occupied() == 0


# -- the reference model -------------------------------------------------------


class Model:
    """Section 2.5 and 2.11 as a dict-of-lists replay."""

    def __init__(self, parent=None, created_at=0, follow_parent="creation"):
        self.deltas = {}  # coords -> [(history, tuple | None | DELETED)]
        self.history = 0
        self.parent = parent
        self.created_at = created_at
        self.follow_parent = follow_parent

    def commit(self, writes):
        self.history += 1
        for c, v in writes.items():
            self.deltas.setdefault(c, []).append((self.history, v))

    def read(self, c, as_of=None):
        """(found, value): a tuple, None for NULL, or absent."""
        horizon = self.history if as_of is None else as_of
        older = [v for h, v in self.deltas.get(c, []) if h <= horizon]
        if older:
            return (False, None) if older[-1] is DELETED else (True, older[-1])
        if self.parent is None:
            return False, None
        pin = None if self.follow_parent == "latest" else self.created_at
        return self.parent.read(c, pin)


def pools(bounds):
    """Cell coordinates per dimension: all of a small bounded extent, or
    a spread over two chunks of an unbounded one."""
    return [list(range(1, b + 1)) if b != "*" else [1, 3, 40] for b in bounds]


@st.composite
def scripts(draw):
    bounds = [draw(st.sampled_from([2, "*"])), draw(st.sampled_from([3, "*"]))]
    xs, ys = pools(bounds)
    cell = st.tuples(st.sampled_from(xs), st.sampled_from(ys))
    value = st.one_of(
        st.tuples(st.integers(-50, 50).map(float), st.integers(-9, 9)),
        st.none(),
        st.just(DELETED),
    )
    writes = st.dictionaries(cell, value, min_size=1, max_size=3)
    depth = draw(st.integers(DEFAULT_CHUNK_SIDE + 1, DEFAULT_CHUNK_SIDE + 8))
    steps = []
    versions = []  # (parent index or None, depth)
    for _ in range(depth):
        steps.append(("base", draw(writes)))
        if len(versions) < 3 and draw(st.integers(0, 9)) == 0:
            parents = [None] + [
                i for i, (_, d) in enumerate(versions) if d < 3
            ]
            parent = draw(st.sampled_from(parents))
            versions.append(
                (parent, 1 if parent is None else versions[parent][1] + 1)
            )
            steps.append((
                "branch", parent,
                draw(st.sampled_from(["creation", "latest"])),
            ))
        if versions and draw(st.booleans()):
            steps.append((
                "version", draw(st.integers(0, len(versions) - 1)),
                draw(writes),
            ))
    return bounds, xs, ys, steps


def apply(target, writes, when=None):
    txn = target.begin()
    for c, v in writes.items():
        if v is DELETED:
            txn.delete(c)
        elif v is None:
            txn.set_null(c)
        else:
            txn.set(c, v)
    return txn.commit(timestamp=when)


def as_read(target, c, **as_of):
    try:
        v = target.get(c, **as_of)
    except EmptyCellError:
        return False, None
    return True, None if v is None else v.values


def assert_base_matches(arr, model, cells, times):
    H = model.history
    assert arr.current_history == H
    for h in range(0, H + 2):
        expect = {}
        for c in cells:
            found, v = model.read(c, h)
            assert as_read(arr, c, as_of=h) == (found, v), (c, h)
            assert arr.exists(c, as_of=h) == found
            if found:
                expect[c] = v
        assert values(arr.latest_cells(as_of=h)) == sorted(expect.items())
        snap = snapshot(arr, as_of=h)
        assert {c: as_read(snap, c) for c in expect} == {
            c: (True, v) for c, v in expect.items()
        }
        assert snap.count_occupied() == len(expect)
    for when in sorted(set(times)):
        h = bisect.bisect_right(times, when)  # the last commit at or before
        for c in cells:
            assert as_read_time(arr, c, when) == model.read(c, h)
    for c in cells:
        assert [
            (h, v if v is None or v is DELETED else v.values)
            for h, v in arr.cell_history(c)
        ] == model.deltas.get(c, [])
    sizes = {h: 0 for h in range(1, H + 1)}
    for deltas in model.deltas.values():
        for h, _ in deltas:
            sizes[h] += 1
    assert history_sizes(arr) == sizes
    assert arr.delta_count() == sum(sizes.values())


def as_read_time(arr, c, when):
    try:
        v = arr.get_as_of_time(c, when)
    except EmptyCellError:
        return False, None
    return True, None if v is None else v.values


class TestReferenceModel:
    @settings(
        max_examples=25, derandomize=True, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(scripts())
    def test_every_as_of_read_equals_the_replay(self, script):
        bounds, xs, ys, steps = script
        cells = [(x, y) for x in xs for y in ys]
        schema = define_array(
            "R", {"v": "float", "n": "int32"}, ["x", "y"], updatable=True
        )
        with tempfile.TemporaryDirectory() as where:
            db = SciDB(where)
            base = db.create_updatable(schema, bounds=bounds, name="r")
            model = Model()
            tree = VersionTree(base)
            versions, models, times = [], [], []
            for step in steps:
                if step[0] == "base":
                    # Irregular gaps, some of them zero, in wall-clock time.
                    when = dt.datetime(2020, 1, 1) + dt.timedelta(
                        hours=len(times) // 2 * 5
                    )
                    apply(base, step[1], when)
                    model.commit(step[1])
                    times.append(when)
                elif step[0] == "branch":
                    _, parent, follow = step
                    v = tree.create(
                        f"v{len(versions)}",
                        parent=None if parent is None else versions[parent],
                        follow_parent=follow,
                    )
                    pm = model if parent is None else models[parent]
                    versions.append(v)
                    models.append(Model(pm, pm.history, follow))
                else:
                    _, i, writes = step
                    apply(versions[i], writes)
                    models[i].commit(writes)
            assert base.store.chunk_shape[-1] < model.history  # two chunks deep
            assert_base_matches(base, model, cells, times)
            for v, vm in zip(versions, models):
                expect = {}
                for c in cells:
                    found, value = vm.read(c)
                    assert as_read(v, c) == (found, value), (v.name, c)
                    if found:
                        expect[c] = value
                assert values(v.cells()) == sorted(expect.items())
            again = SciDB(where)
            assert again.recover() == ["r"]
            assert_base_matches(again.updatable("r"), model, cells, times)


class TestSparseExtent:
    def test_reads_follow_the_chunks_that_exist(self):
        """Deltas at opposite corners of a 10^7 x 10^7 extent, 40 deep: a
        dense box would be 10^14 cells per history value."""
        far = 10 ** 7
        schema = define_array("S", {"v": "float"}, ["x", "y"], updatable=True)
        arr = UpdatableArray(schema, bounds=[far, far, "*"], name="s")
        for h in range(1, 41):
            with arr.begin() as t:
                t.set((1, 1), float(h))
                if h % 3 == 0:
                    t.set((far, far), -float(h))
                if h == 35:
                    t.delete((1, 1))
        v = VersionTree(arr).create("v", follow_parent="latest")
        with v.begin() as t:
            t.set((far, 1), 0.5)
        assert values(arr.latest_cells()) == [
            ((1, 1), (40.0,)), ((far, far), (-39.0,)),
        ]
        assert values(arr.latest_cells(as_of=35)) == [((far, far), (-33.0,))]
        assert snapshot(arr, as_of=34).count_occupied() == 2
        assert values(v.cells()) == [
            ((1, 1), (40.0,)), ((far, 1), (0.5,)), ((far, far), (-39.0,)),
        ]
        assert history_sizes(arr)[36] == 2
