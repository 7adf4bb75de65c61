"""Integration tests: the science benchmark's two backends must agree
(Section 2.15)."""

import time

import pytest

from repro.bench.harness import Measurement, ResultTable, measure, ratio
from repro.bench.ssdb import SSDB, SSDB_QUERIES


@pytest.fixture(scope="module")
def ssdb():
    return SSDB(side=16, epochs=3, seed=42)


class TestBackendAgreement:
    def test_q1_scalar(self, ssdb):
        assert ssdb.q1("native") == pytest.approx(ssdb.q1("table"))

    def test_q2_regrid_map(self, ssdb):
        n, t = ssdb.q2("native"), ssdb.q2("table")
        assert set(n) == set(t)
        for k in n:
            assert n[k] == pytest.approx(t[k])

    def test_q3_per_epoch(self, ssdb):
        n, t = ssdb.q3("native"), ssdb.q3("table")
        assert set(n) == set(t)
        for k in n:
            assert n[k] == pytest.approx(t[k])

    def test_q4_cook_checksum(self, ssdb):
        assert ssdb.q4("native") == pytest.approx(ssdb.q4("table"))

    def test_q5_detection_count(self, ssdb):
        assert ssdb.q5("native") == ssdb.q5("table")
        assert ssdb.q5("native") > 0  # sources exist

    def test_q6_density_map(self, ssdb):
        n, t = ssdb.q6("native"), ssdb.q6("table")
        assert n == t

    def test_q7_join_delta(self, ssdb):
        assert ssdb.q7("native") == pytest.approx(ssdb.q7("table"))

    def test_q8_time_series(self, ssdb):
        n, t = ssdb.q8("native"), ssdb.q8("table")
        assert len(n) == ssdb.epochs
        assert n == pytest.approx(t)

    def test_q9_global_stats(self, ssdb):
        (nm, ns), (tm, ts) = ssdb.q9("native"), ssdb.q9("table")
        assert nm == pytest.approx(tm)
        assert ns == pytest.approx(ts, rel=1e-6)

    def test_run_all(self, ssdb):
        results = ssdb.run_all("native")
        assert set(results) == set(SSDB_QUERIES)

    def test_unknown_backend(self, ssdb):
        with pytest.raises(ValueError):
            ssdb.run_all("oracle")


class TestHarness:
    def test_measure(self):
        calls = []
        m = measure(lambda: calls.append(1) or 7, label="x", repeats=3, warmup=2)
        assert len(calls) == 5
        assert m.result == 7
        assert m.per_call >= 0

    def test_one_slow_repeat_does_not_move_per_call(self):
        naps = iter([0.0, 0.0, 0.3, 0.0, 0.0])
        m = measure(lambda: time.sleep(next(naps)), repeats=5, warmup=0)
        assert m.seconds >= 0.3
        assert m.per_call < 0.03  # the median repeat; the mean is >= 0.06

    def test_ratio(self):
        slow = Measurement("s", 1.0, 1)
        fast = Measurement("f", 0.1, 1)
        assert ratio(slow, fast) == pytest.approx(10.0)

    def test_result_table_render(self):
        t = ResultTable("E99", ["query", "native", "table", "ratio"])
        t.add("Q1", 0.001, 0.1, 100.0)
        text = t.render()
        assert "E99" in text and "Q1" in text
        with pytest.raises(ValueError):
            t.add("too", "few")
