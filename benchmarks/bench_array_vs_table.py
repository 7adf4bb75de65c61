"""E1: native arrays vs arrays-simulated-on-tables (the ASAP claim).

Section 2.1: "the performance penalty of simulating arrays on top of
tables was around two orders of magnitude."  Both engines here are pure
Python (see DESIGN.md §2), so the measured *ratio* compares the designs:
chunked spatial storage + vectorised block operations vs row-per-cell
tables scanned and hashed per operation.

Pairs of benchmarks (native vs table) per operation; pytest-benchmark's
comparison output is the experiment's result table.  The summary test
computes the ratios explicitly and asserts the direction (native wins on
every operation, by a large factor on slab/regrid/aggregate).
"""

import numpy as np
import pytest

from repro import SciArray, define_array
from repro.core import ops
from repro.baseline import ArrayOnTable, TableDB
from repro.bench.harness import measure, ratio

SIDE = 128  # 16384 cells


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    return rng.normal(size=(SIDE, SIDE))


@pytest.fixture(scope="module")
def native(data):
    schema = define_array("E1", {"v": "float"}, ["x", "y"])
    return SciArray.from_numpy(schema, data, name="native")


@pytest.fixture(scope="module")
def table(data):
    arr = ArrayOnTable(TableDB(), "e1", dims=["x", "y"], attrs=["v"])
    arr.load_dense(data)
    return arr


SLAB = ((9, 9), (40, 40), (1, 1))  # lo, hi per dim handled below


class TestPointReads:
    def test_native_point_read(self, benchmark, native):
        benchmark(lambda: native[17, 23].v)

    def test_table_point_read(self, benchmark, table):
        benchmark(lambda: table.get((17, 23))[0])


class TestSlab:
    def test_native_slab(self, benchmark, native):
        out = benchmark(lambda: native.region((9, 9), (40, 40), attr="v"))
        assert out.shape == (32, 32)

    def test_table_slab(self, benchmark, table):
        rows = benchmark(lambda: table.subsample(((9, 9), (40, 40))))
        assert len(rows) == 32 * 32


class TestAggregate:
    def test_native_aggregate(self, benchmark, native):
        benchmark(lambda: ops.aggregate(native, ["y"], "sum"))

    def test_table_aggregate(self, benchmark, table):
        benchmark(lambda: table.aggregate(["y"], "sum"))


class TestRegrid:
    def test_native_regrid(self, benchmark, native):
        benchmark(lambda: ops.regrid(native, [8, 8], "avg"))

    def test_table_regrid(self, benchmark, table):
        benchmark(lambda: table.regrid([8, 8], "avg"))


class TestSummary:
    def test_native_wins_report(self, benchmark, native, table, data, capsys):
        """The E1 result table: per-op ratio, asserted directional."""
        from repro.bench.harness import ResultTable

        cases = {
            "point": (
                lambda: native[17, 23].v,
                lambda: table.get((17, 23))[0],
            ),
            "slab 32x32": (
                lambda: native.region((9, 9), (40, 40), attr="v"),
                lambda: table.subsample(((9, 9), (40, 40))),
            ),
            "aggregate(y)": (
                lambda: ops.aggregate(native, ["y"], "sum"),
                lambda: table.aggregate(["y"], "sum"),
            ),
            "regrid 8x8": (
                lambda: ops.regrid(native, [8, 8], "avg"),
                lambda: table.regrid([8, 8], "avg"),
            ),
        }
        rt = ResultTable(
            "E1: native array vs array-on-table (ASAP comparison)",
            ["operation", "native ms", "table ms", "table/native"],
        )
        ratios = {}
        for label, (native_fn, table_fn) in cases.items():
            n = measure(native_fn, repeats=3)
            t = measure(table_fn, repeats=3)
            r = ratio(t, n)
            ratios[label] = r
            rt.add(label, n.per_call * 1e3, t.per_call * 1e3, r)
        rt.print()
        benchmark.extra_info[rt.title] = rt.rows
        # Direction: native wins every *array* operation — slab, aggregate
        # and regrid by a large factor (the paper's "around two orders of
        # magnitude" applies to these block operations).  Single-cell point
        # reads are the one place a hash-indexed table holds its own, which
        # is exactly why tables tempt people into simulating arrays.
        assert ratios["slab 32x32"] > 10
        assert ratios["aggregate(y)"] > 10
        assert ratios["regrid 8x8"] > 10
        benchmark(lambda: None)  # keep --benchmark-only happy
