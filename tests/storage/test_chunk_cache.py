"""The decompressed-chunk cache: LRU accounting, invalidation, windows.

The SS-DB observation the cache answers: cooked-data queries repeatedly
decompress the same chunks.  These tests pin the cache's correctness
envelope — byte-budgeted LRU eviction, hit/miss metering, and (most
importantly) zero stale reads across every event that deletes or reuses
bucket files: merge, drop+recreate (repartition's storage pattern), and
node restart.
"""

import numpy as np
import pytest

from repro import define_array
from repro.core.errors import StorageError
from repro.storage import Bucket, ChunkCache, PersistentArray, StorageManager


@pytest.fixture
def schema():
    return define_array("sky", {"flux": "float"}, ["x", "y"]).bind([200, 200])


def fill(arr, n=100, seed=1, offset=0.0):
    rng = np.random.default_rng(seed)
    coords = set()
    while len(coords) < n:
        coords.add((int(rng.integers(1, 201)), int(rng.integers(1, 201))))
    expect = {}
    for c in sorted(coords):
        v = float(rng.normal()) + offset
        arr.append(c, (v,))
        expect[c] = v
    arr.flush()
    return expect


class TestChunkCacheUnit:
    def make_bucket(self, schema, lo=(1, 1), n=16):
        cells = [((lo[0] + i, lo[1]), (float(i),)) for i in range(n)]
        return Bucket.from_cells(schema, cells)

    def test_budget_must_be_positive(self):
        with pytest.raises(StorageError):
            ChunkCache(0)

    def test_hit_miss_accounting(self, schema):
        cache = ChunkCache(1 << 20)
        b = self.make_bucket(schema)
        assert cache.get(("a", 0, 0)) is None
        cache.put(("a", 0, 0), b)
        assert cache.get(("a", 0, 0)) is b
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_ratio == 0.5

    def test_lru_eviction_under_byte_budget(self, schema):
        b = self.make_bucket(schema)
        cache = ChunkCache(int(b.nbytes * 2.5))  # room for two buckets
        cache.put(("a", 0, 0), b)
        cache.put(("a", 1, 0), b)
        cache.get(("a", 0, 0))  # touch 0: 1 becomes LRU
        cache.put(("a", 2, 0), b)  # evicts 1
        assert cache.get(("a", 0, 0)) is not None
        assert cache.get(("a", 2, 0)) is not None
        assert cache.get(("a", 1, 0)) is None
        assert cache.evictions == 1
        assert cache.bytes_cached <= cache.budget_bytes

    def test_oversized_bucket_not_cached(self, schema):
        b = self.make_bucket(schema)
        cache = ChunkCache(max(1, b.nbytes // 2))
        cache.put(("a", 0, 0), b)
        assert len(cache) == 0

    def test_invalidate_is_per_array(self, schema):
        cache = ChunkCache(1 << 20)
        b = self.make_bucket(schema)
        cache.put(("arr_a", 0, 0), b)
        cache.put(("arr_a", 1, 0), b)
        cache.put(("arr_b", 0, 0), b)
        assert cache.invalidate("arr_a") == 2
        assert cache.get(("arr_a", 0, 0)) is None
        assert cache.get(("arr_b", 0, 0)) is not None

    def test_invalidate_ids_names_buckets_and_merged_reads(self, schema):
        cache = ChunkCache(1 << 20)
        b = self.make_bucket(schema)
        keys = [("a", 0, 0), ("a", 1, 0), ("b", 0, 0), ("a", ((1, 2), (), None), 0),
                ("a", ((0, 2), (), None), 0), ("a", ((0, 1), (0,), None), 0)]
        for key in keys:
            cache.put(key, b)
        # Bucket 0's own entry and both merged reads that list it go.
        assert cache.invalidate("a", {0}) == 3
        assert [k for k in keys if cache.get(k) is not None] == keys[1:4]

    def test_generation_distinguishes_reused_ids(self, schema):
        cache = ChunkCache(1 << 20)
        old = self.make_bucket(schema)
        cache.put(("a", 0, 0), old)
        assert cache.get(("a", 0, 1)) is None  # new generation: miss


class TestWindowedBucketCells:
    def test_window_matches_filtered_full_iteration(self, schema):
        rng = np.random.default_rng(7)
        cells = [
            ((int(rng.integers(1, 60)), int(rng.integers(1, 60))),
             (float(rng.normal()),))
            for _ in range(200)
        ]
        bucket = Bucket.from_cells(schema, list(dict(cells).items()))
        window = ((10, 10), (35, 40))
        lo, hi = window
        full = {
            c: (None if cell is None else cell.values)
            for c, cell in bucket.cells()
            if all(l <= x <= h for x, l, h in zip(c, lo, hi))
        }
        windowed = {
            c: (None if cell is None else cell.values)
            for c, cell in bucket.cells(window)
        }
        assert windowed == full

    def test_disjoint_window_yields_nothing(self, schema):
        bucket = Bucket.from_cells(
            schema, [((i, i), (1.0,)) for i in range(1, 10)]
        )
        assert list(bucket.cells(((100, 100), (120, 120)))) == []

    def test_null_cells_survive_window(self, schema):
        bucket = Bucket.from_cells(
            schema, [((5, 5), None), ((6, 6), (2.0,))]
        )
        got = dict(bucket.cells(((5, 5), (6, 6))))
        assert got[(5, 5)] is None
        assert got[(6, 6)].flux == 2.0


class TestPersistentArrayCaching:
    def test_hot_rescan_hits_cache(self, schema, tmp_path):
        cache = ChunkCache(32 << 20)
        arr = PersistentArray(
            schema, tmp_path / "sky", memory_budget=1 << 10, cache=cache
        )
        expect = fill(arr, 120)
        cold = {c: cell.flux for c, cell in arr.scan()}
        assert cold == expect
        reads_after_cold = arr.stats.buckets_read
        hot = {c: cell.flux for c, cell in arr.scan()}
        assert hot == expect
        # Second scan decoded nothing: all buckets served from cache.
        assert arr.stats.buckets_read == reads_after_cold
        assert arr.stats.cache_hits > 0

    def test_cache_disabled_still_correct(self, schema, tmp_path):
        arr = PersistentArray(schema, tmp_path / "sky", memory_budget=1 << 10)
        expect = fill(arr, 60)
        assert {c: cell.flux for c, cell in arr.scan()} == expect
        assert arr.stats.cache_hits == 0 and arr.stats.cache_misses == 0

    def test_merge_invalidates_no_stale_reads(self, schema, tmp_path):
        cache = ChunkCache(32 << 20)
        arr = PersistentArray(
            schema, tmp_path / "sky", memory_budget=1 << 30,
            stride=(8, 8), cache=cache,
        )
        expect = fill(arr, 150)
        for c in sorted(expect)[::15]:  # rewritten in a newer spill
            expect[c] += 1000.0
            arr.append(c, (expect[c],))
        arr.flush()
        list(arr.scan())  # warm the cache on the pre-merge file set
        before = {i for _, i in arr._rtree.all_entries()}
        assert arr.merge_small_buckets(min_cells=10_000) > 0
        after = {i for _, i in arr._rtree.all_entries()}
        untouched, written = before & after, after - before
        assert untouched and written
        hits, reads = arr.stats.cache_hits, arr.stats.buckets_read
        # The merge retired only the entries of the buckets it took: the
        # scan reads the merged files (new ids), never a cached decode of a
        # deleted one, returns the newest copy of every cell, and a bucket
        # the merge did not touch still hits.
        assert {k[1] for k in cache._entries} == untouched
        assert {c: cell.flux for c, cell in arr.scan()} == expect
        assert arr.stats.cache_hits - hits == len(untouched)
        assert arr.stats.buckets_read - reads == len(written)

    def test_merge_retires_what_names_its_sources(self, schema, tmp_path):
        cache = ChunkCache(32 << 20)
        arr = PersistentArray(
            schema, tmp_path / "sky", memory_budget=1 << 30,
            stride=(8, 8), cache=cache,
        )
        expect = {(x, y): float(x * y) for x in range(1, 25) for y in range(1, 25)}
        for c, v in expect.items():
            arr.append(c, (v,))
        arr.flush()
        list(arr.scan())  # each bucket's entry
        assert len(arr.merged()) == 1  # and one merged read naming every id
        before = {i for _, i in arr._rtree.all_entries()}
        assert len(cache) == len(before) + 1
        assert arr.merge_small_buckets(min_cells=10_000) > 0
        untouched = before & {i for _, i in arr._rtree.all_entries()}
        assert {k[1] for k in cache._entries} == untouched
        assert cache.invalidations == len(before) - len(untouched) + 1
        assert {c: cell.flux for c, cell in arr.scan()} == expect

    def test_drop_and_recreate_no_stale_reads(self, schema, tmp_path):
        """Repartition's storage pattern: drop_array + create over the same
        directory resets bucket ids to 0 — cached decodes of the dropped
        files must not serve the recreated array."""
        mgr = StorageManager(tmp_path, chunk_cache_bytes=32 << 20)
        arr = mgr.create_array("sky", schema, memory_budget=1 << 10)
        fill(arr, 80, seed=3, offset=0.0)
        list(arr.scan())  # warm
        mgr.drop_array("sky")
        arr2 = mgr.create_array("sky", schema, memory_budget=1 << 10)
        expect = fill(arr2, 80, seed=3, offset=1000.0)  # same coords, new data
        got = {c: cell.flux for c, cell in arr2.scan()}
        assert got == expect
        assert all(v >= 900.0 for v in got.values())  # nothing stale

    def test_manager_cache_can_be_disabled(self, schema, tmp_path):
        mgr = StorageManager(tmp_path, chunk_cache_bytes=0)
        assert mgr.chunk_cache is None
        arr = mgr.create_array("sky", schema, memory_budget=1 << 10)
        expect = fill(arr, 40)
        assert {c: cell.flux for c, cell in arr.scan()} == expect

    def test_node_restart_gets_fresh_cache(self, schema, tmp_path):
        from repro.cluster.node import Node

        node = Node(0, tmp_path / "n0", chunk_cache_bytes=1 << 20)
        cache_before = node.storage.chunk_cache
        node.fail()
        node.restart()
        assert node.storage.chunk_cache is not cache_before


class TestCachedBlocksAreReadOnly:
    """A hot read's blocks are the cache's own, shared by every later
    read: writing into one raises, so no consumer can change what the
    next read returns."""

    def hot(self, schema, tmp_path):
        arr = PersistentArray(
            schema, tmp_path / "sky", memory_budget=1 << 30,
            stride=(8, 8), cache=ChunkCache(32 << 20),
        )
        for x in range(1, 17):
            for y in range(1, 17):
                arr.append((x, y), (float(x * y),))
        arr.flush()
        return arr, {c: cell.flux for c, cell in arr.scan()}

    def test_writing_a_hot_bucket_plane_raises(self, schema, tmp_path):
        arr, before = self.hot(schema, tmp_path)
        block = next(iter(arr.blocks()))
        with pytest.raises(ValueError):
            block.data["flux"][0, 0] = -1.0
        with pytest.raises(ValueError):
            block.state[0, 0] = 0
        assert {c: cell.flux for c, cell in arr.scan()} == before

    def test_writing_a_hot_merged_block_raises(self, schema, tmp_path):
        arr, before = self.hot(schema, tmp_path)
        arr.merged()
        (block,) = arr.merged()
        assert arr.merged()[0] is block  # one cache hit per read
        with pytest.raises(ValueError):
            block.data["flux"][0, 0] = -1.0
        with pytest.raises(ValueError):
            block.state[0, 0] = 0
        assert {c: cell.flux for c, cell in arr.scan()} == before
        (again,) = arr.merged()
        assert dict(again.cells()) == dict(block.cells())


class TestCacheKeysAreNeverReused:
    """A decode in flight when its array is dropped is put after the
    invalidation; the key it carries must never be one the recreated
    array (same directory, bucket ids and generation restarted) asks for."""

    def test_late_put_of_a_dropped_arrays_bucket_serves_nothing(
        self, schema, tmp_path
    ):
        mgr = StorageManager(tmp_path, chunk_cache_bytes=32 << 20)
        old = mgr.create_array("sky", schema, memory_budget=1 << 30)
        for i in range(16):
            old.append((i + 1, 1), (float(i),))
        old.flush()
        read = old._read_bucket
        replaced = []

        def read_then_replace(bucket_id):
            bucket = read(bucket_id)  # the decode is done, its put is not
            mgr.drop_array("sky")
            new = mgr.create_array("sky", schema, memory_budget=1 << 30)
            new.append((40, 40), (-1.0,))
            new.flush()
            replaced.append(new)
            return bucket

        old._read_bucket = read_then_replace
        assert len(list(old.cells())) == 16  # the old instance's own read
        assert [(c, cell.flux) for c, cell in replaced[0].cells()] == [
            ((40, 40), -1.0)
        ]

    def test_late_put_of_a_dropped_arrays_merged_read_serves_nothing(
        self, schema, tmp_path
    ):
        mgr = StorageManager(tmp_path, chunk_cache_bytes=32 << 20)
        old = mgr.create_array("sky", schema, memory_budget=1 << 30)
        for i in range(16):
            old.append((i + 1, 1), (float(i),))
        old.flush()
        read = old._read_bucket
        replaced = []

        def read_then_replace(bucket_id):
            bucket = read(bucket_id)  # the merge is not built, nor put
            mgr.drop_array("sky")
            new = mgr.create_array("sky", schema, memory_budget=1 << 30)
            for i in range(16):  # the same cells under the same bucket id
                new.append((i + 1, 1), (-1.0,))
            new.flush()
            replaced.append(new)
            return bucket

        old._read_bucket = read_then_replace
        (block,) = old.merged()  # the old instance's own read
        assert [cell.flux for _, cell in block.cells()] == [float(i) for i in range(16)]
        (block,) = replaced[0].merged()
        assert [cell.flux for _, cell in block.cells()] == [-1.0] * 16
