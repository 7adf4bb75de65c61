"""Unit tests for buckets and the storage manager (Section 2.8)."""

import numpy as np
import pytest

from repro import define_array
from repro.core.errors import StorageError
from repro.storage.bucket import Bucket
from repro.storage.manager import PersistentArray, StorageManager


@pytest.fixture
def schema():
    return define_array("S", {"v": "float", "flag": "int32"}, ["x", "y"]).bind(
        [1000, 1000]
    )


def cell_stream(n, seed=0):
    rng = np.random.default_rng(seed)
    seen = set()
    out = []
    while len(out) < n:
        c = (int(rng.integers(1, 1000)), int(rng.integers(1, 1000)))
        if c in seen:
            continue
        seen.add(c)
        out.append((c, (float(rng.normal()), int(rng.integers(0, 3)))))
    return out


class TestBucket:
    def test_from_cells_tight_box(self, schema):
        cells = [((5, 7), (1.0, 0)), ((9, 3), (2.0, 1))]
        b = Bucket.from_cells(schema, cells)
        assert b.origin == (5, 3)
        assert b.shape == (5, 5)
        assert b.cell_count == 2
        assert b.occupancy == pytest.approx(2 / 25)

    def test_round_trip_bytes(self, schema):
        cells = cell_stream(50)
        b = Bucket.from_cells(schema, cells)
        again = Bucket.from_bytes(schema, b.to_bytes("zlib"))
        assert dict(
            (c, None if cell is None else cell.values) for c, cell in again.cells()
        ) == dict(cells)

    def test_round_trip_auto_codec(self, schema):
        cells = cell_stream(30, seed=2)
        b = Bucket.from_cells(schema, cells)
        again = Bucket.from_bytes(schema, b.to_bytes("auto"))
        assert again.cell_count == 30

    def test_null_cells_survive(self, schema):
        cells = [((1, 1), (1.0, 0)), ((2, 2), None)]
        b = Bucket.from_cells(schema, cells)
        again = Bucket.from_bytes(schema, b.to_bytes())
        got = dict(again.cells())
        assert got[(2, 2)] is None
        assert got[(1, 1)].v == 1.0

    def test_bad_magic(self, schema):
        with pytest.raises(StorageError):
            Bucket.from_bytes(schema, b"garbage-bytes")

    def test_empty_cells_rejected(self, schema):
        with pytest.raises(StorageError):
            Bucket.from_cells(schema, [])

    def test_merge(self, schema):
        b1 = Bucket.from_cells(schema, [((1, 1), (1.0, 0))])
        b2 = Bucket.from_cells(schema, [((10, 10), (2.0, 1))])
        m = b1.merge(b2)
        assert m.cell_count == 2
        assert m.box == ((1, 1), (10, 10))


class TestPersistentArray:
    def test_write_flush_scan(self, schema, tmp_path):
        pa = PersistentArray(schema, tmp_path / "s", memory_budget=10**9)
        cells = cell_stream(200)
        for coords, values in cells:
            pa.append(coords, values)
        pa.flush()
        assert pa.bucket_count() >= 1
        got = {c: cell.values for c, cell in pa.scan()}
        assert got == {c: v for c, v in cells}

    def test_spill_on_memory_pressure(self, schema, tmp_path):
        pa = PersistentArray(schema, tmp_path / "s", memory_budget=400,
                             stride=(64, 64))
        for coords, values in cell_stream(300):
            pa.append(coords, values)
        # Spills happened automatically before any flush call.
        assert pa.stats.spills >= 1
        assert pa.bucket_count() >= 2

    def test_buffered_cells_visible_before_flush(self, schema, tmp_path):
        pa = PersistentArray(schema, tmp_path / "s", memory_budget=10**9)
        pa.append((3, 4), (1.5, 1))
        assert pa.get((3, 4)).v == 1.5
        got = dict(pa.scan())
        assert (3, 4) in got

    def test_rewrite_latest_wins(self, schema, tmp_path):
        pa = PersistentArray(schema, tmp_path / "s", memory_budget=10**9)
        pa.append((1, 1), (1.0, 0))
        pa.flush()
        pa.append((1, 1), (2.0, 0))
        pa.flush()
        assert pa.get((1, 1)).v == 2.0
        assert sum(1 for c, _ in pa.scan() if c == (1, 1)) == 1

    def test_window_scan_prunes_buckets(self, schema, tmp_path):
        pa = PersistentArray(schema, tmp_path / "s", memory_budget=10**9,
                             stride=(100, 100))
        for coords, values in cell_stream(500, seed=1):
            pa.append(coords, values)
        pa.flush()
        total = pa.bucket_count()
        before = pa.stats.buckets_read
        hits = list(pa.scan(((1, 1), (80, 80))))
        read = pa.stats.buckets_read - before
        assert read < total
        assert pa.stats.buckets_pruned > 0
        for coords, _ in hits:
            assert coords[0] <= 80 and coords[1] <= 80

    def test_null_cells_round_trip(self, schema, tmp_path):
        pa = PersistentArray(schema, tmp_path / "s", memory_budget=10**9)
        pa.append((5, 5), None)
        pa.flush()
        assert pa.get((5, 5)) is None

    def test_to_sciarray(self, schema, tmp_path):
        pa = PersistentArray(schema, tmp_path / "s")
        cells = cell_stream(50, seed=4)
        for coords, values in cells:
            pa.append(coords, values)
        pa.flush()
        arr = pa.to_sciarray("mat")
        assert arr.count_present() == 50
        for coords, values in cells:
            assert arr[coords].v == values[0]

    def test_get_missing(self, schema, tmp_path):
        pa = PersistentArray(schema, tmp_path / "s")
        with pytest.raises(StorageError):
            pa.get((1, 1))

    def test_stride_validation(self, schema, tmp_path):
        with pytest.raises(StorageError):
            PersistentArray(schema, tmp_path / "s", stride=(10,))


class TestMerge:
    def test_merge_reduces_bucket_count(self, schema, tmp_path):
        pa = PersistentArray(schema, tmp_path / "s", memory_budget=10**9,
                             stride=(8, 8))
        # Many tiny spills -> many tiny buckets in the same neighbourhood.
        for k in range(40):
            pa.append((1 + k % 16, 1 + k // 16), (float(k), 0))
            pa.flush()
        before = pa.bucket_count()
        merges = pa.merge_small_buckets(min_cells=512, group_factor=4)
        assert merges > 0
        assert pa.bucket_count() < before
        # Data intact after merging.
        assert len(list(pa.scan())) == 40

    def test_background_merger_thread(self, schema, tmp_path):
        import time

        pa = PersistentArray(schema, tmp_path / "s", memory_budget=10**9,
                             stride=(8, 8))
        for k in range(30):
            pa.append((1 + k % 8, 1 + k // 8), (float(k), 0))
            pa.flush()
        before = pa.bucket_count()
        pa.start_background_merger(interval=0.01, min_cells=512)
        deadline = time.time() + 2.0
        while pa.bucket_count() >= before and time.time() < deadline:
            time.sleep(0.01)
        pa.stop_background_merger()
        assert pa.bucket_count() < before
        assert len(list(pa.scan())) == 30

    def test_double_start_rejected(self, schema, tmp_path):
        pa = PersistentArray(schema, tmp_path / "s")
        pa.start_background_merger(interval=10)
        try:
            with pytest.raises(StorageError):
                pa.start_background_merger(interval=10)
        finally:
            pa.stop_background_merger()


class TestReadRacingMerge:
    """A read that loses a bucket to a merge between its snapshot and its
    load answers as one state of the array, never old cells beside newer
    ones.  Staged: the first bucket load rewrites a cell the snapshot held
    buffered, writes another, and merges the file set away."""

    A, B = (1, 1), (2, 2)

    def staged(self, schema, tmp_path, **kw):
        pa = PersistentArray(schema, tmp_path / "s", stride=(4, 4), **kw)
        for coords in (self.A, self.B):
            pa.append(coords, (1.0, 0))
        pa.flush()
        pa.append(self.A, (2.0, 0))  # buffered when the read takes its snapshot
        load = pa._load_bucket

        def merge_first(bucket_id):
            pa._load_bucket = load
            pa.flush()
            pa.append(self.A, (5.0, 0))
            pa.append(self.B, (3.0, 0))
            pa.flush()
            assert pa.merge_small_buckets(min_cells=10**6) == 1
            return load(bucket_id)

        pa._load_bucket = merge_first
        return pa

    @pytest.mark.parametrize("read", ["blocks", "merged", "segmented"])
    def test_the_read_is_one_state(self, schema, tmp_path, read):
        pa = self.staged(schema, tmp_path)
        blocks = getattr(pa, read)()
        blocks = blocks[0] if read == "segmented" else blocks
        got = {c: cell.values[0] for b in blocks for c, cell in b.cells()}
        assert got in ({self.A: 2.0, self.B: 1.0}, {self.A: 5.0, self.B: 3.0})


class TestFragmentedStore:
    """Hundreds of two-cell spills (a checkpointed load's shape), some
    cells rewritten by later spills, some deleted, one rewritten in the
    buffer, and a full bucket whose rewrites a merge folds together:
    each read returns the newest copy of each live cell exactly once,
    before and after the merge, windowed or value-pruned."""

    def build(self, schema, tmp_path):
        cell_cost = 8 * schema.ndim + 16 * len(schema.attributes)
        pa = PersistentArray(
            schema, tmp_path / "s", memory_budget=2 * cell_cost, stride=(8, 8)
        )
        model = dict(cell_stream(1200, seed=5))
        for coords, values in model.items():
            pa.append(coords, values)
        for i, coords in enumerate(list(model)[::40]):
            model[coords] = (1000.0 + i, 1)  # newer copy, in a later bucket
            pa.append(coords, model[coords])
        for coords in list(model)[7::80]:
            assert pa.delete(coords)
            del model[coords]
        assert pa.bucket_count() >= 600
        pa.memory_budget = 10**9
        for x in range(993, 1001):  # one full bucket ...
            for y in range(993, 1001):
                model[(x, y)] = (float(x - y), 0)
                pa.append((x, y), model[(x, y)])
        pa.flush()
        for x in (994, 996):  # ... rewritten by two one-cell spills
            model[(x, 995)] = (7.0, 1)
            pa.append((x, 995), model[(x, 995)])
            pa.flush()
        coords = list(model)[3]  # rewritten, and still buffered
        model[coords] = (-1.0, 2)
        pa.append(coords, model[coords])
        return pa, model

    @staticmethod
    def read(pa, *args):
        cells = [(c, None if cell is None else cell.values) for c, cell in pa.scan(*args)]
        got = dict(cells)
        assert len(got) == len(cells), "a cell came back more than once"
        return got

    def test_newest_copy_of_each_live_cell(self, schema, tmp_path):
        pa, model = self.build(schema, tmp_path)
        assert self.read(pa) == model
        window = ((200, 300), (700, 900))
        assert self.read(pa, window) == {
            c: v for c, v in model.items()
            if all(lo <= x <= hi for x, lo, hi in zip(c, *window))
        }
        assert pa.merge_small_buckets(min_cells=4) > 0
        assert self.read(pa) == model
        assert self.read(pa, ((990, 990), (1000, 1000))) == {
            c: v for c, v in model.items() if min(c) >= 990
        }

    def test_value_pruned_buckets_read_null(self, schema, tmp_path):
        from repro.query.stats import Interval

        pa, model = self.build(schema, tmp_path)
        got = self.read(pa, None, {"v": Interval(lo=1.5)})
        assert pa.stats.buckets_value_pruned > 400
        assert got.keys() == model.keys()
        for coords, values in got.items():
            if values is not None or model[coords][0] >= 1.5:
                assert values == model[coords]


class TestStorageManager:
    def test_create_get_drop(self, schema, tmp_path):
        sm = StorageManager(tmp_path)
        pa = sm.create_array("survey", schema)
        assert sm.get_array("survey") is pa
        pa.append((1, 1), (1.0, 0))
        pa.flush()
        sm.drop_array("survey")
        with pytest.raises(StorageError):
            sm.get_array("survey")

    def test_duplicate_create(self, schema, tmp_path):
        sm = StorageManager(tmp_path)
        sm.create_array("a", schema)
        with pytest.raises(StorageError):
            sm.create_array("a", schema)

    def test_total_stats(self, schema, tmp_path):
        sm = StorageManager(tmp_path)
        a = sm.create_array("a", schema)
        b = sm.create_array("b", schema)
        a.append((1, 1), (1.0, 0))
        b.append((2, 2), (2.0, 1))
        a.flush()
        b.flush()
        totals = sm.total_stats()
        assert totals["cells_written"] == 2
        assert totals["buckets_written"] == 2

    def test_total_stats_never_step_back(self, schema, tmp_path):
        # Repartition drops and recreates arrays; the storage.* counters
        # exported from these totals must stay monotone through it.
        sm = StorageManager(tmp_path)
        seen = [sm.total_stats()]
        for round_ in range(2):
            pa = sm.create_array("a", schema)
            pa.append((1, 1), (1.0, 0))
            pa.flush()
            list(pa.scan())
            seen.append(sm.total_stats())
            sm.drop_array("a")
            seen.append(sm.total_stats())
        for before, after in zip(seen, seen[1:]):
            assert all(after[k] >= v for k, v in before.items())
        assert seen[-1]["cells_written"] == 2
        assert seen[-1]["buckets_read"] == 2
