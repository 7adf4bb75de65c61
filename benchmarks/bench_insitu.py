"""E9: in-situ access vs a load stage (Section 2.9).

"The overhead of loading data is very high, and may dominate the value
received from DBMS manipulation."  Measured: time-to-first-answer for one
point probe and one small-window query against an external file, each
side opening the file:

* **in-situ** — adaptor opens the file and answers from the blocks the
  probe meets (one chunk of a container, one tile of an ``.npy`` map);
* **load-then-query** — the durable load stage (load into the engine and
  WAL-log every cell, the service in-situ data forgoes), then query;
* the **amortisation point**: in-situ re-opens per query, so after
  enough queries loading wins — the crossover is part of the result.
"""

import numpy as np
import pytest

from repro import SciArray, define_array
from repro.core.cells import CellState
from repro.storage.format import write_container
from repro.storage.insitu import NpyAdaptor, SciDBContainerAdaptor
from repro.storage.wal import WriteAheadLog

SIDE = 64
WINDOW = ((1, 1), (8, 8))


@pytest.fixture(scope="module")
def npy_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("e9") / "grid.npy"
    rng = np.random.default_rng(0)
    np.save(path, rng.normal(size=(SIDE, SIDE)))
    return path


@pytest.fixture(scope="module")
def container_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("e9c") / "grid.scidb"
    rng = np.random.default_rng(0)
    schema = define_array("E9", {"v": "float"}, ["x", "y"])
    arr = SciArray.from_numpy(schema, rng.normal(size=(SIDE, SIDE)))
    write_container(path, arr)
    return path


def durable_load(npy_file, wal):
    """The load stage: open the file, load it, WAL-log every cell."""
    arr = NpyAdaptor(npy_file).load("grid")
    wal.log_create(arr)
    for coords, cell in arr.cells(include_null=False):
        wal.log_write("grid", coords, cell.values)
    wal.commit()
    return arr


class TestTimeToFirstAnswer:
    def test_insitu_npy_point(self, benchmark, npy_file):
        def probe():
            adaptor = NpyAdaptor(npy_file)
            return adaptor.get(7, 7).value

        assert isinstance(benchmark(probe), float)

    def test_load_then_point(self, benchmark, npy_file, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")

        def load_and_probe():
            return durable_load(npy_file, wal)[7, 7].value

        assert isinstance(benchmark(load_and_probe), float)

    def test_insitu_container_point(self, benchmark, container_file):
        def probe():
            adaptor = SciDBContainerAdaptor(container_file)
            return adaptor.get(7, 7).v

        assert isinstance(benchmark(probe), float)

    def test_insitu_container_window(self, benchmark, container_file):
        def window():
            adaptor = SciDBContainerAdaptor(container_file)
            return sum(
                float(block.data["v"][block.state == CellState.PRESENT].sum())
                for block in adaptor.blocks(WINDOW)
            )

        benchmark(window)

    def test_load_container_window(self, benchmark, container_file):
        def window():
            adaptor = SciDBContainerAdaptor(container_file)
            arr = adaptor.load("grid")
            block = arr.region(*WINDOW, attr="v")
            return float(np.nansum(block))

        benchmark(window)


class TestCrossover:
    def test_insitu_wins_first_query_load_wins_eventually(
        self, benchmark, npy_file, tmp_path
    ):
        from repro.bench.harness import measure

        def insitu_query():
            return NpyAdaptor(npy_file).get(7, 7).value

        insitu = measure(insitu_query, repeats=3)

        wal = WriteAheadLog(tmp_path / "wal.log")
        load = measure(lambda: durable_load(npy_file, wal), repeats=1)
        loaded = durable_load(npy_file, wal)
        query_loaded = measure(lambda: loaded[7, 7].value, repeats=5)

        # First answer: in-situ beats load+query by a wide margin.
        assert insitu.per_call < load.per_call
        # Repeated answers: each loaded query is at least as cheap as
        # reopening the file, so loading amortises after
        # load_time / (insitu - loaded) queries.
        assert query_loaded.per_call <= insitu.per_call
        crossover = load.per_call / max(
            insitu.per_call - query_loaded.per_call, 1e-9
        )
        assert crossover > 1  # loading never pays off after a single query
        benchmark(insitu_query)


class TestServiceLevels:
    def test_insitu_lacks_recovery(self, benchmark, npy_file):
        """The trade the paper names: no load stage, but no DBMS services."""
        adaptor = NpyAdaptor(npy_file)
        assert adaptor.services == {
            "query": True,
            "recovery": False,
            "no_overwrite_history": False,
            "named_versions": False,
            "provenance_log": False,
        }
        benchmark(lambda: adaptor.services)
