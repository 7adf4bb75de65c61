"""The bucket's byte image and the directory of them (Section 2.8).

A bucket file is a one-entry container: magic, a u32 length, a JSON entry,
the per-plane payloads.  Whatever a torn image surfaces from the decoder
is a :class:`StorageError`; a directory of images is enough to re-open an
array; and a merge never leaves fewer cells on disk than it found.
"""

import json
import pickle
import shutil
import struct

import pytest

from repro import define_array
from repro.core.errors import StorageError
from repro.storage.bucket import Bucket
from repro.storage.manager import PersistentArray

pytestmark = pytest.mark.tier1

MAGIC = b"SBKT2\n"


@pytest.fixture
def schema():
    return define_array("S", {"v": "float", "n": "int32"}, ["x", "y"]).bind(
        [100, 100]
    )


def image(schema, codec="zlib"):
    cells = [((x, y), (x / 4, y)) for x in range(1, 9) for y in range(1, 9)]
    cells[5] = (cells[5][0], None)
    return Bucket.from_cells(schema, cells).to_bytes(codec), dict(cells)


def parts(raw):
    (hlen,) = struct.unpack("<I", raw[len(MAGIC):len(MAGIC) + 4])
    start = len(MAGIC) + 4
    return json.loads(raw[start:start + hlen]), raw[start + hlen:]


def reframe(entry, payload):
    body = json.dumps(entry).encode()
    return MAGIC + struct.pack("<I", len(body)) + body + payload


def values_of(cells):
    return {c: None if cell is None else cell.values for c, cell in cells}


class TestBucketCorruption:
    def test_good_image_roundtrips(self, schema):
        raw, cells = image(schema)
        assert values_of(Bucket.from_bytes(schema, raw).cells()) == cells

    def test_truncated_payload_is_typed(self, schema):
        raw, _ = image(schema)
        entry, payload = parts(raw)
        with pytest.raises(StorageError, match="payload ends inside plane"):
            Bucket.from_bytes(schema, reframe(entry, payload[:-3]))

    def test_truncated_header_is_typed(self, schema):
        raw, _ = image(schema)
        with pytest.raises(StorageError):
            Bucket.from_bytes(schema, raw[:20])

    def test_bit_flip_is_typed(self, schema):
        raw, _ = image(schema)
        entry, payload = parts(raw)
        flipped = bytearray(payload)
        flipped[entry["planes"][0]["nbytes"] + 4] ^= 0x40  # inside plane "v"
        with pytest.raises(StorageError):
            Bucket.from_bytes(schema, reframe(entry, bytes(flipped)))

    def test_header_garbage_is_typed(self, schema):
        with pytest.raises(StorageError):
            Bucket.from_bytes(
                schema, MAGIC + struct.pack("<I", 12) + b"not-json-at!"
            )

    def test_torn_entry_is_typed(self, schema):
        raw, _ = image(schema)
        entry, payload = parts(raw)
        del entry["origin"]
        with pytest.raises(StorageError):
            Bucket.from_bytes(schema, reframe(entry, payload))

    def test_missing_state_plane_is_typed(self, schema):
        raw, _ = image(schema)
        entry, payload = parts(raw)
        state = entry["planes"].pop(0)
        assert state["name"] == "__state__"
        with pytest.raises(StorageError):
            Bucket.from_bytes(schema, reframe(entry, payload[state["nbytes"]:]))

    @pytest.mark.parametrize("magic", [b"SBKT1\n", b"SCIDB1\n", b"garbag"])
    def test_wrong_magic_is_typed(self, schema, magic):
        raw, _ = image(schema)
        with pytest.raises(StorageError, match="bad magic"):
            Bucket.from_bytes(schema, magic + raw[len(magic):])

    def test_native_planes_never_reach_pickle(self, schema, monkeypatch):
        raw, cells = image(schema, codec="auto")

        def no_pickle(*args, **kwargs):
            raise AssertionError("a native-dtype image was unpickled")

        monkeypatch.setattr(pickle, "loads", no_pickle)
        assert values_of(Bucket.from_bytes(schema, raw).cells()) == cells

    def test_the_error_names_the_file(self, schema, tmp_path):
        pa = PersistentArray(schema, tmp_path / "s")
        pa.append((1, 1), (1.0, 1))
        pa.flush()
        path = tmp_path / "s" / "bucket_00000000.bkt"
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(StorageError, match="bucket_00000000.bkt"):
            list(pa.scan())
        with pytest.raises(StorageError, match="bucket_00000000.bkt"):
            PersistentArray(schema, tmp_path / "s")


def filled(schema, directory, **options):
    pa = PersistentArray(schema, directory, stride=(10, 10), **options)
    for x in range(1, 31):
        pa.append((x, x), (float(x), x))
    pa.flush()
    pa.append((1, 1), (-1.0, -1))  # rewritten in a newer bucket
    pa.append((2, 2), None)
    pa.flush()
    expect = {(x, x): (float(x), x) for x in range(1, 31)}
    expect[(1, 1)] = (-1.0, -1)
    expect[(2, 2)] = None
    return pa, expect


class TestReopen:
    def test_a_reopened_array_sees_its_own_buckets(self, schema, tmp_path):
        pa, expect = filled(schema, tmp_path / "s")
        again = PersistentArray(schema, tmp_path / "s", stride=(10, 10))
        assert again.bucket_count() == pa.bucket_count()
        assert again.live_coords() == pa.live_coords()
        assert values_of(again.scan()) == expect  # newest id still wins
        assert values_of(again.to_sciarray().cells()) == expect
        assert values_of(again.scan(((1, 1), (5, 5)))) == {
            c: v for c, v in expect.items() if c[0] <= 5
        }

    def test_the_next_spill_overwrites_nothing(self, schema, tmp_path):
        pa, expect = filled(schema, tmp_path / "s")
        before = {p.name: p.read_bytes() for p in (tmp_path / "s").glob("*.bkt")}
        again = PersistentArray(schema, tmp_path / "s", stride=(10, 10))
        again.append((50, 50), (5.0, 5))
        again.flush()
        after = {p.name: p.read_bytes() for p in (tmp_path / "s").glob("*.bkt")}
        assert len(after) == len(before) + 1
        assert all(after[name] == raw for name, raw in before.items())
        expect[(50, 50)] = (5.0, 5)
        assert values_of(again.scan()) == expect

    def test_no_value_plane_is_decoded(self, schema, tmp_path, monkeypatch):
        filled(schema, tmp_path / "s")
        monkeypatch.setattr(
            Bucket, "from_bytes",
            classmethod(lambda *a: pytest.fail("reopen decoded a bucket")),
        )
        again = PersistentArray(schema, tmp_path / "s", stride=(10, 10))
        assert again.live_cells == 30

    def test_statistics_are_absent_until_rewritten(self, schema, tmp_path):
        from repro.query.stats import Interval

        _, expect = filled(schema, tmp_path / "s")
        again = PersistentArray(schema, tmp_path / "s", stride=(10, 10))
        assert again.array_stats().buckets == []
        ranges = {"v": Interval(lo=25.0)}
        got = values_of(again.scan(attr_ranges=ranges))
        assert got == expect  # cannot prune: every bucket is read
        assert again.stats.buckets_value_pruned == 0

    def test_a_tombstone_is_not_in_the_files(self, schema, tmp_path):
        pa, expect = filled(schema, tmp_path / "s")
        assert pa.delete((3, 3))
        assert (3, 3) not in values_of(pa.scan())
        assert (3, 3) not in values_of(pa.to_sciarray().cells())
        pa.merge_small_buckets(min_cells=10**6, group_factor=100)
        assert (3, 3) not in values_of(pa.scan())
        # Only a WAL replays a delete (Node.replay_wal); a bare re-open
        # finds the cell's bytes, which the merge carried across.
        again = PersistentArray(schema, tmp_path / "s", stride=(10, 10))
        assert values_of(again.scan()) == expect


class TestMergeWritesBeforeItUnlinks:
    def test_a_failed_write_loses_nothing(self, schema, tmp_path, monkeypatch):
        pa, expect = filled(schema, tmp_path / "s")
        files = sorted(p.name for p in (tmp_path / "s").glob("*.bkt"))

        def disk_full(bucket):
            raise OSError("disk full")

        monkeypatch.setattr(pa, "_write_bucket", disk_full)
        with pytest.raises(OSError):
            pa.merge_small_buckets(min_cells=10**6, group_factor=100)
        assert sorted(p.name for p in (tmp_path / "s").glob("*.bkt")) == files
        assert values_of(pa.scan()) == expect
        again = PersistentArray(schema, tmp_path / "s", stride=(10, 10))
        assert values_of(again.scan()) == expect

    def test_a_leftover_source_is_harmless(self, schema, tmp_path):
        pa, expect = filled(schema, tmp_path / "s")
        shutil.copytree(tmp_path / "s", tmp_path / "sources")
        assert pa.merge_small_buckets(min_cells=10**6, group_factor=100) == 1
        # The crash fell between the write and the unlinks: the sources
        # are still there beside the merged bucket.
        shutil.copytree(tmp_path / "sources", tmp_path / "s", dirs_exist_ok=True)
        again = PersistentArray(schema, tmp_path / "s", stride=(10, 10))
        assert again.bucket_count() > 1
        assert values_of(again.scan()) == expect
        assert len(list(again.scan())) == len(expect)


class TestMergeIsAPlaneOverlay:
    """``Bucket.merge`` overlays the newer bucket's planes on the union box;
    its image is byte for byte what building the bucket from both
    operands' cells (the newer one's last) gives."""

    @staticmethod
    def by_cells(schema, *buckets):
        return Bucket.from_cells(schema, [
            (coords, None if cell is None else cell.values)
            for bucket in buckets for coords, cell in bucket.cells()
        ])

    @pytest.mark.parametrize("codec", ["none", "zlib", "auto"])
    def test_overlapping_buckets(self, schema, codec):
        old = Bucket.from_cells(schema, [
            ((x, y), None if (x + y) % 2 == 0 else (x / 4, x * y))
            for x in range(1, 7) for y in range(1, 7) if (x * y) % 7 != 3
        ])
        new = Bucket.from_cells(schema, [
            ((x, y), None if x % 2 == 0 else (-x / 2, x + y))
            for x in range(4, 10) for y in range(3, 9) if (x + y) % 5 != 1
        ])
        was, now = dict(old.cells()), dict(new.cells())
        kinds = {(was[c] is None, now[c] is None) for c in set(was) & set(now)}
        assert len(kinds) == 4  # NULL and PRESENT over each other
        merged = old.merge(new)
        want = self.by_cells(schema, old, new)
        assert (merged.origin, merged.shape) == (want.origin, want.shape)
        assert merged.to_bytes(codec) == want.to_bytes(codec)

    def test_disjoint_buckets(self, schema):
        a = Bucket.from_cells(schema, [((1, 1), (0.25, 1)), ((2, 3), None)])
        b = Bucket.from_cells(schema, [((9, 7), (4.5, 2)), ((8, 8), (1.0, 3))])
        for x, y in ((a, b), (b, a)):
            assert x.merge(y).to_bytes("zlib") == (
                self.by_cells(schema, x, y).to_bytes("zlib")
            )
