"""E1: native arrays vs arrays-simulated-on-tables (the ASAP claim).

Section 2.1: "the performance penalty of simulating arrays on top of
tables was around two orders of magnitude."  Both engines here are pure
Python (see DESIGN.md §2), so the measured *ratio* compares the designs:
chunked spatial storage + vectorised block operations vs row-per-cell
tables scanned and hashed per operation.

Benchmarks per operation: the native operator called directly
(``core.ops``), the same operation as a statement through ``db.execute``
(parse, plan, provenance log and all — what a user of the engine pays),
and the table.  pytest-benchmark's comparison output is the experiment's
result table.  The summary test computes the ratios explicitly and
asserts the direction (native wins on every block operation by a large
factor, through the front door as well).
"""

import numpy as np
import pytest

from repro import SciArray, SciDB, define_array
from repro.core import ops
from repro.baseline import ArrayOnTable, TableDB
from repro.bench.harness import measure, ratio
from repro.query.ast import AttrPredicate, PredicateConjunction

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


@pytest.fixture(scope="module")
def db(native):
    db = SciDB()
    db.register("E1", native)
    return db


STATEMENTS = {
    "slab 32x32": "select subsample(E1, x >= 9 and x <= 40 and y >= 9 and y <= 40)",
    "aggregate(y)": "select aggregate(E1, {y}, sum(v))",
    "regrid 8x8": "select regrid(E1, [8, 8], avg(v))",
    "filter v > 0.5": "select filter(E1, v > 0.5)",
}
BRIGHT = PredicateConjunction((AttrPredicate("v", ">", 0.5),))


class TestPointReads:
    def test_native_point_read(self, benchmark, native):
        benchmark(lambda: native[17, 23].v)

    def test_table_point_read(self, benchmark, table):
        benchmark(lambda: table.get((17, 23))[0])


class TestSlab:
    def test_native_slab(self, benchmark, native):
        out = benchmark(lambda: native.region((9, 9), (40, 40), attr="v"))
        assert out.shape == (32, 32)

    def test_statement_slab(self, benchmark, db):
        out = benchmark(lambda: db.execute(STATEMENTS["slab 32x32"]).array)
        assert out.bounds == (32, 32)

    def test_table_slab(self, benchmark, table):
        rows = benchmark(lambda: table.subsample(((9, 9), (40, 40))))
        assert len(rows) == 32 * 32


class TestAggregate:
    def test_native_aggregate(self, benchmark, native):
        benchmark(lambda: ops.aggregate(native, ["y"], "sum"))

    def test_statement_aggregate(self, benchmark, db):
        benchmark(lambda: db.execute(STATEMENTS["aggregate(y)"]))

    def test_table_aggregate(self, benchmark, table):
        benchmark(lambda: table.aggregate(["y"], "sum"))


class TestRegrid:
    def test_native_regrid(self, benchmark, native):
        benchmark(lambda: ops.regrid(native, [8, 8], "avg"))

    def test_statement_regrid(self, benchmark, db):
        benchmark(lambda: db.execute(STATEMENTS["regrid 8x8"]))

    def test_table_regrid(self, benchmark, table):
        benchmark(lambda: table.regrid([8, 8], "avg"))


class TestFilter:
    def test_native_filter(self, benchmark, native):
        benchmark(lambda: ops.filter(native, BRIGHT))

    def test_statement_filter(self, benchmark, db):
        benchmark(lambda: db.execute(STATEMENTS["filter v > 0.5"]))

    def test_table_filter(self, benchmark, table):
        benchmark(lambda: table.table.select(lambda row: row[2] > 0.5))


class TestSummary:
    def test_native_wins_report(self, benchmark, native, table, db, capsys):
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
            "filter v > 0.5": (
                lambda: ops.filter(native, BRIGHT),
                lambda: table.table.select(lambda row: row[2] > 0.5),
            ),
        }
        rt = ResultTable(
            "E1: native array vs array-on-table (ASAP comparison)",
            ["operation", "core.ops ms", "db.execute ms", "table ms",
             "table/core.ops", "table/db.execute"],
        )
        ratios, front_door = {}, {}
        for label, (native_fn, table_fn) in cases.items():
            n = measure(native_fn, repeats=3)
            t = measure(table_fn, repeats=3)
            ratios[label] = ratio(t, n)
            if label in STATEMENTS:  # a point read is not a statement
                e = measure(lambda: db.execute(STATEMENTS[label]), repeats=3)
                front_door[label] = ratio(t, e)
                rt.add(label, n.per_call * 1e3, e.per_call * 1e3,
                       t.per_call * 1e3, ratios[label], front_door[label])
            else:
                rt.add(label, n.per_call * 1e3, "-", t.per_call * 1e3,
                       ratios[label], "-")
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
        # ...and the statement keeps the win: parse + plan + provenance is
        # a fixed few tenths of a millisecond, not a per-cell cost.
        for label in ("slab 32x32", "aggregate(y)", "regrid 8x8"):
            assert front_door[label] > 5, front_door
        # A filter is one comparison per cell either way, so a table scan
        # is only ~2-3x behind the kernel; what matters is that the
        # statement is no longer 70x *behind* the table (0.013 when the
        # executor showed the predicate every cell).
        assert front_door["filter v > 0.5"] > 0.5, front_door
        benchmark(lambda: None)  # keep --benchmark-only happy
