"""E12: the science benchmark, Q1–Q9 on both backends (Section 2.15).

Each query is benchmarked on the native array engine and on the
array-on-table baseline; the summary test prints the full per-query
result table (the series EXPERIMENTS.md records) and asserts the shape:
the array engine wins the array-shaped queries.
"""

import pytest

from repro.bench.harness import ResultTable, measure, ratio
from repro.bench.ssdb import SSDB, SSDB_QUERIES


@pytest.fixture(scope="module")
def ssdb():
    db = SSDB(side=48, epochs=4, seed=0)
    db.native()  # materialise both backends outside the timings
    db.table()
    return db


def _make_bench(qid):
    def bench_native(self, benchmark, ssdb):
        benchmark(lambda: ssdb.query(qid)("native"))

    def bench_table(self, benchmark, ssdb):
        benchmark(lambda: ssdb.query(qid)("table"))

    return bench_native, bench_table


class TestQueries:
    pass


for _qid in SSDB_QUERIES:
    _n, _t = _make_bench(_qid)
    setattr(TestQueries, f"test_{_qid.lower()}_native", _n)
    setattr(TestQueries, f"test_{_qid.lower()}_table", _t)


class TestSummary:
    def test_per_query_report(self, benchmark, ssdb, capsys):
        rt = ResultTable(
            "E12: science benchmark Q1-Q9 (ms per query)",
            ["query", "native ms", "table ms", "table/native"],
        )
        ratios = {}
        for qid in SSDB_QUERIES:
            n = measure(lambda q=qid: ssdb.query(q)("native"), repeats=2)
            t = measure(lambda q=qid: ssdb.query(q)("table"), repeats=2)
            ratios[qid] = ratio(t, n)
            rt.add(qid, n.per_call * 1e3, t.per_call * 1e3, ratios[qid])
        rt.print()
        benchmark.extra_info[rt.title] = rt.rows
        # Shape: the array engine wins every block-shaped query (slabs,
        # regrids, statistics, cooking, detection, co-located joins); the
        # table side wins only the single-cell time-series probe (Q8),
        # where a hash index on the full key is unbeatable — consistent
        # with E1's point-read result.
        assert ratios["Q1"] > 1.0
        assert ratios["Q2"] > 1.0
        assert ratios["Q3"] > 1.0
        assert ratios["Q7"] > 1.0
        benchmark(lambda: None)

    def test_backends_agree(self, benchmark, ssdb):
        n = ssdb.run_all("native")
        t = ssdb.run_all("table")
        assert n["Q1"] == pytest.approx(t["Q1"])
        assert n["Q5"] == t["Q5"]
        assert n["Q8"] == pytest.approx(t["Q8"])
        benchmark(lambda: None)
