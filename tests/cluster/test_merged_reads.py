"""Merged grid reads against a model, alone and beside a writer.

A gather (``materialize``, a window, a value-pruned ``filter``) and both
operands of a distributed ``sjoin`` read each partition as one merged
block, which the node's chunk cache keeps keyed by the buckets it was
built from.  The property test interleaves those reads with every event
that changes what a node stores or how it is read — a buffered write, a
flush, a delete on every replica site, a merge, dropped statistics — and
checks each read against a dict model.  The concurrency test reads while
another thread writes increasing values, flushes and merges: no read may
return a cell older than one acknowledged before the read began.
"""

import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import SciDB, define_array
from repro.cluster import HashPartitioner
from repro.storage.loader import LoadRecord

pytestmark = pytest.mark.tier1

SIDE = 8
SKY = define_array("Sky", {"flux": "float", "err": "float"}, ["x", "y"])
WINDOW = ((2, 3), (6, 7))
THRESHOLD = 30.0
JOIN = "select sjoin(sky, ref, sky.x = ref.x and sky.y = ref.y)"


def build(root, side=SIDE, stride=(2, 2), sky_rows=None):
    db = SciDB(root)
    grid = db.create_grid("g", n_nodes=4, replication=2)
    arrays, models = {}, {}
    for name, scale, rows in (("sky", 1.0, sky_rows or side), ("ref", 0.5, side)):
        models[name] = {
            (x, y): (scale * (x * side + y), 0.5)
            for x in range(1, rows + 1) for y in range(1, side + 1)
        }
        arrays[name] = grid.create_array(
            name, SKY.bind([side, side]), HashPartitioner(4), stride=stride
        )
        arrays[name].load(LoadRecord(c, v) for c, v in models[name].items())
        db.register(name, arrays[name])
    return db, grid, arrays, models


def cells(arr):
    return {
        coords: None if cell is None else tuple(cell.values)
        for coords, cell in arr.cells()
    }


def expected(kind, sky, ref):
    if kind == "materialize":
        return dict(sky)
    if kind == "window":
        (x0, y0), (x1, y1) = WINDOW
        return {c: v for c, v in sky.items() if x0 <= c[0] <= x1 and y0 <= c[1] <= y1}
    if kind == "filter":
        return {c: v if v is not None and v[0] > THRESHOLD else None for c, v in sky.items()}
    return {
        c: None if v is None or ref[c] is None else v + ref[c]
        for c, v in sky.items() if c in ref
    }


def read(kind, db, sky):
    if kind == "materialize":
        return cells(sky.materialize())
    if kind == "window":
        return cells(sky.subsample(WINDOW))
    if kind == "filter":
        return cells(db.query(f"select filter(sky, flux > {THRESHOLD})"))
    return cells(db.query(JOIN))


COORDS = st.tuples(st.integers(1, SIDE), st.integers(1, SIDE))
KINDS = ("materialize", "window", "filter", "sjoin")
OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("write"), COORDS,
            st.one_of(st.none(), st.integers(0, 2 * SIDE * SIDE).map(float)),
        ),
        st.tuples(st.just("delete"), COORDS),
        st.sampled_from([("flush",), ("merge",), ("invalidate",)]),
        st.tuples(st.just("read"), st.sampled_from(KINDS)),
    ),
    min_size=1, max_size=24,
)


@settings(
    max_examples=30, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(OPS)
@example([("read", "window"), ("write", (6, 4), 1.0), ("read", "window")])
@example([("read", "sjoin"), ("write", (7, 8), 2.0), ("flush",), ("read", "sjoin")])
@example([("read", "filter"), ("delete", (5, 8)), ("read", "filter")])
def test_interleaved_reads_match_the_model(ops):
    """``sky`` holds rows 1-5 of 8: a write below them lands where no
    bucket is, a write into them overlaps one."""
    with tempfile.TemporaryDirectory() as root:
        db, grid, arrays, models = build(Path(root), sky_rows=5)
        sky, model = arrays["sky"], models["sky"]

        def every_partition(action):
            for node in grid.nodes:
                action(node.partition("sky"))

        for op in ops:
            if op[0] == "write":
                values = None if op[2] is None else (op[2], 0.25)
                sky.write(op[1], values)
                model[op[1]] = values
            elif op[0] == "delete":
                for site in sky.replica_sites(op[1]):
                    grid.nodes[site].delete("sky", op[1])
                model.pop(op[1], None)
            elif op[0] == "flush":
                sky.flush()
            elif op[0] == "merge":
                every_partition(lambda part: part.merge_small_buckets())
            elif op[0] == "invalidate":
                every_partition(lambda part: part.invalidate_stats())
            else:
                assert read(op[1], db, sky) == expected(op[1], model, models["ref"]), op
        for kind in KINDS:  # twice each: the second read is served hot
            want = expected(kind, model, models["ref"])
            assert read(kind, db, sky) == want, kind
            assert read(kind, db, sky) == want, kind


class TestReadWriteConcurrency:
    """Readers beside a writer that writes increasing values, flushes and
    merges: a merged block cached before a write is never served after
    it."""

    SIDE = 16
    ROUNDS = 12

    def test_no_read_is_older_than_an_acknowledged_write(self, tmp_path):
        db, grid, arrays, models = build(tmp_path, self.SIDE, (4, 4))
        sky = arrays["sky"]
        acked = {c: v[0] for c, v in models["sky"].items()}
        lock, done, errors = threading.Lock(), threading.Event(), []
        statements = ("select filter(sky, flux > 0.5)", "select filter(sky, flux > -1)")

        def writer():
            try:
                for r in range(1, self.ROUNDS + 1):
                    value = 1000.0 * r
                    for x in range(1, self.SIDE + 1, 2):
                        for y in range(1, self.SIDE + 1):
                            sky.write((x, y), (value + x, 0.5))
                            with lock:
                                acked[(x, y)] = value + x
                    sky.flush()
                    if r % 3 == 0:
                        for node in grid.nodes:
                            node.partition("sky").merge_small_buckets()
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)
            finally:
                done.set()

        def reader(text):
            try:
                while not done.is_set():
                    with lock:
                        floor = dict(acked)
                    got = cells(db.query(text))
                    assert set(got) == set(floor), text
                    stale = [c for c, v in floor.items() if got[c][0] < v]
                    assert not stale, (text, stale[:3])
            except Exception as exc:
                errors.append(exc)
                done.set()

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(text,)) for text in statements
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the interpreter over often
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        final = cells(db.query(statements[0]))
        assert {c: v[0] for c, v in final.items()} == acked


class TestGroupedReadConcurrency:
    """Grouped reads beside a writer that raises partition 0's values one
    cell at a time, flushes and merges.  Every other partition stays as
    loaded and partition 0 is one node's read of one snapshot (a merge
    that takes a bucket before it is loaded restarts it), so each answer
    is that of a state the writer passed through — and, values only
    rising, of one no older than the last write acknowledged before the
    read began.  Values are small integers, so every sum is exact
    whatever the bucket layout."""

    SIDE = 16
    WRITES = 48
    STATEMENTS = {
        "aggregate": ("select aggregate(sky, {x}, sum(flux))", ["x"], "sum"),
        "regrid": ("select regrid(sky, [4, 4], avg(flux))", [4, 4], "avg"),
    }

    def test_each_grouped_read_answers_as_a_serial_state(self, tmp_path):
        from repro.core.array import SciArray
        from repro.core.ops import content

        digest = self.digest
        db, grid, arrays, models = build(tmp_path, self.SIDE, (4, 4))
        sky, model = arrays["sky"], dict(models["sky"])
        mine = [c for c in sorted(model) if sky.partitioner.site_of(c) == 0]
        writes = [(mine[i % len(mine)], (1000.0 * (i + 1), 0.5))
                  for i in range(self.WRITES)]
        states = {kind: {} for kind in self.STATEMENTS}  # digest -> state index
        for k in range(len(writes) + 1):
            local = SciArray(SKY.bind([self.SIDE, self.SIDE]))
            for coords, values in model.items():
                local.set(coords, values)
            for kind, (_, groups, agg) in self.STATEMENTS.items():
                got = getattr(content, kind)(local, groups, agg, "flux")
                states[kind][digest(got)] = k
            if k < len(writes):
                model[writes[k][0]] = writes[k][1]
        acked, lock, done, errors = [0], threading.Lock(), threading.Event(), []

        def writer():
            try:
                for k, (coords, values) in enumerate(writes, 1):
                    sky.write(coords, values)
                    with lock:
                        acked[0] = k
                    if k % 4 == 0:
                        sky.flush()
                    if k % 8 == 0:
                        for node in grid.nodes:
                            node.partition("sky").merge_small_buckets()
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)
            finally:
                done.set()

        def reader(kind):
            text = self.STATEMENTS[kind][0]
            try:
                while not done.is_set():
                    with lock:
                        floor = acked[0]
                    state = states[kind].get(digest(db.query(text)))
                    assert state is not None, (kind, "not a state the writer passed")
                    assert state >= floor, (kind, state, floor)
            except Exception as exc:
                errors.append(exc)
                done.set()

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(kind,)) for kind in self.STATEMENTS
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the interpreter over often
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for kind, (text, _, _) in self.STATEMENTS.items():
            assert states[kind][digest(db.query(text))] == len(writes)

    @staticmethod
    def digest(arr):
        return hash(tuple(sorted(cells(arr).items())))
