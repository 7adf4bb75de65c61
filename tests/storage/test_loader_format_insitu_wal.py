"""Unit tests for the bulk loader, container format, in-situ adaptors, and
WAL recovery (Sections 2.8, 2.9)."""

import math

import numpy as np
import pytest

from repro import SciArray, define_array
from repro.core.errors import InSituError, InSituFormatError, StorageError
from repro.storage import format as container_format
from repro.storage.format import read_container, write_container
from repro.storage.insitu import (
    CsvAdaptor,
    NpyAdaptor,
    SciDBContainerAdaptor,
    open_in_situ,
)
from repro.storage.loader import BulkLoader, LoadRecord
from repro.storage.manager import PersistentArray
from repro.storage.wal import WriteAheadLog


@pytest.fixture
def schema():
    return define_array("L", {"v": "float"}, ["t", "x"]).bind(["*", 100])


class TestBulkLoader:
    def test_single_site(self, schema, tmp_path):
        pa = PersistentArray(schema, tmp_path / "s")
        loader = BulkLoader({"n0": pa})
        stream = [LoadRecord((t, x), (float(t * x),))
                  for t in range(1, 11) for x in range(1, 6)]
        assert loader.load(stream) == 50
        loader.finish()
        assert len(list(pa.scan())) == 50

    def test_substreams_routed(self, schema, tmp_path):
        sites = {
            i: PersistentArray(schema, tmp_path / f"s{i}") for i in range(4)
        }
        loader = BulkLoader(sites, route=lambda c: c[1] % 4)
        stream = [LoadRecord((t, x), (1.0,))
                  for t in range(1, 5) for x in range(1, 41)]
        loader.load(stream)
        loader.finish()
        assert all(n == 40 for n in loader.per_site_counts.values())
        assert loader.substream_skew() == 1.0

    def test_dominant_dimension_order_enforced(self, schema, tmp_path):
        pa = PersistentArray(schema, tmp_path / "s")
        loader = BulkLoader({"n0": pa}, dominant_dimension=0)
        with pytest.raises(StorageError):
            loader.load([LoadRecord((2, 1), (1.0,)), LoadRecord((1, 1), (1.0,))])

    def test_unknown_site_from_router(self, schema, tmp_path):
        pa = PersistentArray(schema, tmp_path / "s")
        loader = BulkLoader({"n0": pa}, route=lambda c: "bogus")
        with pytest.raises(StorageError):
            loader.load([LoadRecord((1, 1), (1.0,))])

    def test_multi_site_requires_router(self, schema, tmp_path):
        sites = {i: PersistentArray(schema, tmp_path / f"s{i}") for i in range(2)}
        with pytest.raises(StorageError):
            BulkLoader(sites)

    def test_skew_measures_imbalance(self, schema, tmp_path):
        sites = {i: PersistentArray(schema, tmp_path / f"q{i}") for i in range(2)}
        loader = BulkLoader(sites, route=lambda c: 0 if c[1] <= 30 else 1)
        loader.load([LoadRecord((1, x), (1.0,)) for x in range(1, 41)])
        assert loader.substream_skew() > 1.0


class TestContainerFormat:
    def test_round_trip(self, tmp_path):
        schema = define_array("C", {"v": "float", "n": "int32"}, ["x", "y"])
        data = {
            "v": np.arange(12.0).reshape(3, 4),
            "n": np.arange(12, dtype=np.int32).reshape(3, 4),
        }
        arr = SciArray.from_numpy(schema, data, name="C")
        nbytes = write_container(tmp_path / "c.scidb", arr)
        assert nbytes == (tmp_path / "c.scidb").stat().st_size
        reader = read_container(tmp_path / "c.scidb")
        assert reader.schema.attr_names == ("v", "n")
        assert reader.bounds == (3, 4)
        again = reader.to_sciarray()
        assert again.content_equal(arr)

    def test_sparse_and_null(self, tmp_path):
        schema = define_array("C", {"v": "float"}, ["x"])
        arr = schema.create("c", [100])
        arr[3] = 1.0
        arr[77] = 2.0
        arr.set_null((50,))
        write_container(tmp_path / "c.scidb", arr)
        again = read_container(tmp_path / "c.scidb").to_sciarray()
        assert again.content_equal(arr)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "fake.scidb"
        p.write_bytes(b"not a container")
        with pytest.raises(InSituError):
            read_container(p)

    def test_lazy_chunk_access(self, tmp_path):
        schema = define_array("C", {"v": "float"}, ["x", "y"])
        arr = SciArray(schema.bind([100, 100]), chunk_shape=(10, 10))
        arr.set_region((1, 1), {"v": np.ones((100, 100))})
        write_container(tmp_path / "c.scidb", arr)
        reader = read_container(tmp_path / "c.scidb")
        assert len(reader.chunk_boxes()) == 100
        origin, planes, state = reader.read_block(0)
        assert origin == (1, 1)
        assert planes["v"].shape == state.shape == (10, 10)


class TestCsvAdaptor:
    def make_csv(self, tmp_path):
        p = tmp_path / "obs.csv"
        p.write_text(
            "x,y,temp,salinity\n"
            "1,1,10.5,35.0\n"
            "1,2,11.0,34.8\n"
            "2,1,9.9,\n"
        )
        return p

    def test_query_without_load(self, tmp_path):
        adaptor = CsvAdaptor(self.make_csv(tmp_path), dims=["x", "y"])
        assert adaptor.attr_names == ("temp", "salinity")
        assert adaptor.get(1, 2).temp == 11.0
        # An empty float field is the NaN the load stage stores.
        assert math.isnan(adaptor.get(2, 1).salinity)
        assert math.isnan(adaptor.load()[2, 1].salinity)
        assert adaptor.count() == 3

    def test_a_repeated_coordinate_keeps_its_last_row(self, tmp_path):
        p = tmp_path / "twice.csv"
        p.write_text("x,y,v\n1,1,1.0\n2,2,5.0\n1,1,9.0\n")
        adaptor = CsvAdaptor(p, dims=["x", "y"])
        assert adaptor.get(1, 1).v == 9.0
        assert adaptor.count() == 2
        assert [(c, cell.v) for c, cell in adaptor.cells()] == [
            ((1, 1), 9.0), ((2, 2), 5.0),
        ]
        loaded = adaptor.load()
        assert loaded[1, 1].v == 9.0 and len(loaded) == 2
        target = PersistentArray(adaptor.schema, tmp_path / "s")
        adaptor.load_into(target)
        assert target.get((1, 1)).v == 9.0 and target.live_cells == 2

    def test_an_empty_integer_field_names_its_line(self, tmp_path):
        p = tmp_path / "ints.csv"
        p.write_text("x,n\n1,4\n2,\n")
        adaptor = CsvAdaptor(p, dims=["x"], types={"n": "int64"})
        with pytest.raises(InSituFormatError) as exc:
            adaptor.get(1)
        assert exc.value.offset == "line 3"

    def test_load_materialises(self, tmp_path):
        adaptor = CsvAdaptor(self.make_csv(tmp_path), dims=["x", "y"])
        arr = adaptor.load("obs")
        assert isinstance(arr, SciArray)
        assert arr[1, 1].temp == 10.5

    def test_reduced_service_level(self, tmp_path):
        """Section 2.9: in-situ data has no recovery and no history."""
        adaptor = CsvAdaptor(self.make_csv(tmp_path), dims=["x", "y"])
        assert adaptor.services["query"]
        assert not adaptor.services["recovery"]
        assert not adaptor.services["no_overwrite_history"]

    def test_missing_dimension_column(self, tmp_path):
        with pytest.raises(InSituError):
            CsvAdaptor(self.make_csv(tmp_path), dims=["x", "zz"])

    def test_non_integer_dimension(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,v\noops,1.0\n")
        with pytest.raises(InSituError):
            list(CsvAdaptor(p, dims=["x"]).cells())

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(InSituError):
            CsvAdaptor(p, dims=["x"])


class TestNpyAdaptor:
    def test_query_without_load(self, tmp_path):
        data = np.arange(12.0).reshape(3, 4)
        np.save(tmp_path / "grid.npy", data)
        adaptor = NpyAdaptor(tmp_path / "grid.npy")
        assert adaptor.get(2, 3).value == data[1, 2]
        np.testing.assert_array_equal(
            adaptor.region((1, 1), (2, 2)), data[:2, :2]
        )

    def test_out_of_bounds(self, tmp_path):
        np.save(tmp_path / "grid.npy", np.zeros((2, 2)))
        adaptor = NpyAdaptor(tmp_path / "grid.npy")
        with pytest.raises(InSituError):
            adaptor.get(3, 1)

    def test_dim_names(self, tmp_path):
        np.save(tmp_path / "grid.npy", np.zeros((2, 2)))
        adaptor = NpyAdaptor(tmp_path / "grid.npy", dims=["lat", "lon"])
        assert adaptor.dim_names == ("lat", "lon")
        with pytest.raises(InSituError):
            NpyAdaptor(tmp_path / "grid.npy", dims=["only_one"])


class TestOpenInSitu:
    def test_dispatch(self, tmp_path):
        np.save(tmp_path / "a.npy", np.zeros((2, 2)))
        assert isinstance(open_in_situ(tmp_path / "a.npy"), NpyAdaptor)
        (tmp_path / "b.csv").write_text("x,v\n1,2.0\n")
        assert isinstance(
            open_in_situ(tmp_path / "b.csv", dims=["x"]), CsvAdaptor
        )
        schema = define_array("C", {"v": "float"}, ["x"])
        arr = SciArray.from_numpy(schema, np.ones(4))
        write_container(tmp_path / "c.scidb", arr)
        assert isinstance(
            open_in_situ(tmp_path / "c.scidb"), SciDBContainerAdaptor
        )

    def test_csv_requires_dims(self, tmp_path):
        (tmp_path / "b.csv").write_text("x,v\n1,2.0\n")
        with pytest.raises(InSituError):
            open_in_situ(tmp_path / "b.csv")

    def test_unknown_extension(self, tmp_path):
        (tmp_path / "d.xyz").write_text("")
        with pytest.raises(InSituError):
            open_in_situ(tmp_path / "d.xyz")


class TestWal:
    def test_recovery_round_trip(self, tmp_path):
        schema = define_array("W", {"v": "float"}, ["x"])
        arr = schema.create("W", [10])
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.log_create(arr)
        for i in range(1, 6):
            arr[i] = float(i)
            wal.log_write("W", (i,), (float(i),))
        arr.delete((2,))
        wal.log_delete("W", (2,))
        wal.commit()

        recovered = WriteAheadLog(tmp_path / "wal.log").recover()
        assert recovered["W"].content_equal(arr)

    def test_null_write_recovered(self, tmp_path):
        schema = define_array("W", {"v": "float"}, ["x"])
        arr = schema.create("W", [4])
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.log_create(arr)
        wal.log_write("W", (1,), None)
        wal.commit()
        recovered = wal.recover()
        assert recovered["W"][1] is None

    def test_torn_tail_ignored(self, tmp_path):
        schema = define_array("W", {"v": "float"}, ["x"])
        arr = schema.create("W", [4])
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.log_create(arr)
        wal.log_write("W", (1,), (1.0,))
        wal.close()
        with open(tmp_path / "wal.log", "a") as f:
            f.write('{"op": "write", "array": "W", "coo')  # crash mid-record
        recovered = WriteAheadLog(tmp_path / "wal.log").recover()
        assert recovered["W"][1].v == 1.0

    def test_write_before_create_rejected(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.log_write("W", (1,), (1.0,))
        wal.commit()
        with pytest.raises(StorageError):
            wal.recover()


class TestOneBlockSource:
    """Every adaptor answers ``blocks(window)``; ``cells``, ``get`` and
    ``count`` are one body over it."""

    @pytest.fixture
    def adaptors(self, tmp_path):
        data = np.arange(40 * 37, dtype=float).reshape(40, 37)
        np.save(tmp_path / "grid.npy", data)
        rows = [f"{x},{y},{data[x - 1, y - 1]}" for x in range(1, 41, 3)
                for y in range(1, 38, 2)]
        (tmp_path / "rows.csv").write_text("x,y,v\n" + "\n".join(rows) + "\n")
        schema = define_array("C", {"v": "float"}, ["x", "y"])
        arr = SciArray(schema.bind([40, 37]), chunk_shape=(16, 16))
        arr.set_region((1, 1), {"v": data})
        arr.delete((5, 5))
        arr.set_null((6, 6))
        write_container(tmp_path / "c.scidb", arr)
        return [
            open_in_situ(tmp_path / "grid.npy"),
            open_in_situ(tmp_path / "rows.csv", dims=["x", "y"]),
            open_in_situ(tmp_path / "c.scidb"),
        ]

    @pytest.mark.parametrize("window", [
        ((1, 1), (40, 37)), ((3, 30), (35, 37)), ((33, 1), (33, 1)),
        ((0, -5), (70, 99)), ((41, 1), (50, 5)), ((9, 9), (8, 8)),
    ])
    def test_a_window_reads_the_cells_inside_it(self, adaptors, window):
        for adaptor in adaptors:
            every = [(c, cell) for c, cell in adaptor.cells()
                     if all(l <= x <= h for x, l, h in zip(c, *window))]
            got = list(adaptor.cells(window))
            assert sorted(got, key=lambda e: e[0]) == sorted(every, key=lambda e: e[0])

    def test_a_wrong_coordinate_count_is_typed(self, adaptors):
        for adaptor in adaptors:
            with pytest.raises(InSituError):
                adaptor.get(1, 1, 1)
            assert not adaptor.exists(1, 1, 1)

    def test_a_container_point_get_decodes_one_chunk(self, tmp_path, monkeypatch):
        schema = define_array("C", {"v": "float"}, ["x", "y"])
        arr = SciArray.from_numpy(schema, np.arange(64 * 64.0).reshape(64, 64))
        write_container(tmp_path / "c.scidb", arr)
        adaptor = open_in_situ(tmp_path / "c.scidb")
        assert len(adaptor.chunk_boxes()) == 4
        decoded = []
        real = container_format.decode_block

        def decode_block(*args, **kwargs):
            decoded.append(args[0]["origin"])
            return real(*args, **kwargs)

        monkeypatch.setattr(container_format, "decode_block", decode_block)
        assert adaptor.get(40, 7).v == arr[40, 7].v
        assert decoded == [[33, 1]]
