"""One catalog, one executor (PR 24).

``Executor.arrays`` and ``ProvenanceEngine.catalog`` are one dict, the
executor is the one place an operator runs, and the engine records what
ran.  The regressions here each failed while the engine kept a second
catalog: a rebound name was shadowed by the array a statement had read
first, and every anonymous ``__qN`` result was kept for the life of the
process.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro import SciArray, SciDB, define_array
from repro.core.errors import ProvenanceError
from repro.obs.recorder import FlightRecorder, use_flight_recorder
from repro.service import QueryService, ServiceConfig
from repro.service.client import ShimClient
from repro.storage.loader import LoadRecord

pytestmark = pytest.mark.tier1

LINE = define_array("Line", {"v": "float"}, ["x"])


def line(values, name="R"):
    return SciArray.from_numpy(LINE, np.array(values, dtype=float), name=name)


def values(array):
    return [cell.v for _, cell in array.cells(include_null=False)]


def test_the_executor_and_the_engine_share_one_dict():
    db = SciDB()
    assert db.executor.arrays is db.provenance.catalog


class TestARebindIsSeenByStatements:
    def test_after_register(self):
        db = SciDB()
        db.register("R", line([1, 2, 3]))
        assert values(db.query("select filter(R, v > 0)")) == [1, 2, 3]
        db.register("R", line([10, 20, 30]))
        assert values(db.lookup("R")) == [10, 20, 30]
        assert values(db.query("select filter(R, v > 0)")) == [10, 20, 30]

    def records(self, xs):
        return [LoadRecord((x,), (float(x),)) for x in xs]

    def count(self, db):
        out = db.query("select aggregate(A, {x}, count(v))")
        return out.count_present()

    def test_after_a_second_ingest(self, tmp_path):
        db = SciDB(tmp_path)
        schema = LINE.bind([8])
        db.ingest("A", self.records(range(1, 5)), schema=schema)
        assert self.count(db) == 4
        db.ingest("A", self.records(range(5, 9)), schema=schema, load_epoch=1)
        assert db.lookup("A").count_present() == 8
        assert self.count(db) == 8

    def test_after_restore(self, tmp_path):
        db = SciDB(tmp_path)
        db.ingest("A", self.records(range(1, 5)), schema=LINE.bind([8]))
        assert self.count(db) == 4
        db.storage.get_array("A").append((7,), (7.0,))
        db.storage.get_array("A").flush()
        assert db.restore("A") is db.lookup("A")
        assert self.count(db) == db.lookup("A").count_present() == 5


class TestARebindIsOrderedAgainstTheLog:
    def rebound(self):
        """#0 reads the first R, #1 the second, both into named arrays."""
        db = SciDB()
        db.register("R", line([1, 2, 3]))
        db.execute("select aggregate(R, {x}, sum(v)) into Before")
        db.register("R", line([10, 20, 30]))
        db.execute("select aggregate(R, {x}, sum(v)) into After")
        return db

    def test_the_repository_record_carries_the_next_seq(self):
        db = self.rebound()
        seqs = [d.seq for d in db.provenance.repository.derivations_of("R")]
        assert seqs == [0, 1]
        # Entering the same object again is not a rebind.
        db.register("R", db.lookup("R"))
        assert len(db.provenance.repository.derivations_of("R")) == 2

    def test_backward_across_the_rebind_raises_naming_it(self):
        db = self.rebound()
        with pytest.raises(ProvenanceError, match=r"'R' was rebound at #1 .*#0"):
            db.trace_backward("Before", (2,))
        steps = db.trace_backward("After", (2,))
        assert steps[0].contributors == [("R", (2,))]

    def test_forward_stops_at_the_rebind(self):
        db = self.rebound()
        # A cell of the R that is there now reached After — never Before.
        assert db.trace_forward("R", (2,)) == {("After", (2,))}

    def test_a_derived_name_registered_over(self):
        db = self.rebound()
        db.execute("select filter(After, sum > 0) into Kept")
        del db.executor.arrays["After"]
        db.register("After", line([7, 8, 9], name="After"))
        # What After holds now is external: a backward trace ends there …
        assert db.trace_backward("After", (2,)) == []
        # … and one that would walk through what it held before says so.
        with pytest.raises(ProvenanceError, match="'After' was rebound at #3"):
            db.trace_backward("Kept", (2,))
        with pytest.raises(ProvenanceError, match="'After' was rebound at #3"):
            db.trace_forward("R", (2,))

    def test_derivations_still_never_overwrite(self):
        db = self.rebound()
        with pytest.raises(ProvenanceError, match="never overwrite"):
            db.execute("select filter(R, v > 0) into After")
        assert len(db.provenance.log) == 2  # the refused one is not logged


class TestAnonymousResults:
    def test_logged_but_not_catalogued(self):
        db = SciDB()
        db.register("R", line([1, 2, 3]))
        out = db.query("select filter(subsample(R, x >= 2), v > 2)")
        assert out.name == "__q1" and len(db.provenance.log) == 2
        assert not any(name.startswith("__q") for name in db.arrays())
        assert db.provenance.names() == ["R"]

    def test_lives_as_long_as_its_caller_holds_it(self):
        db = SciDB()
        db.register("R", line([1, 2, 3]))
        out = db.query("select filter(R, v > 1)")
        ref = weakref.ref(out)
        del out
        gc.collect()
        assert ref() is None

    def test_a_forward_trace_rederives_only_what_a_rule_reads(self, monkeypatch):
        db = SciDB()
        db.register("R", line([1, 2, 3]))
        for _ in range(5):
            db.execute("select filter(subsample(R, x >= 2), v > 2)")
        from repro.provenance import trace

        reruns = []
        real = trace.get_operator
        monkeypatch.setattr(
            trace, "get_operator", lambda op: reruns.append(op) or real(op)
        )
        affected = db.trace_forward("R", (3,))
        assert len(affected) == 10  # five subsamples, five filters
        # Each filter read a subsample nobody kept; no rule read an output.
        assert reruns == ["subsample"] * 5


MIX = [
    "select filter(R, flux > 0.5)",
    "select aggregate(R, {x}, sum(flux))",
    "select subsample(R, x >= 3 and x <= 9)",
]
CUBE = define_array("Cube", {"flux": "float", "err": "float"}, ["x", "y", "t"])


class TestSustainedLoad:
    """ROADMAP 8(a), provenance half: what a statement leaves behind does
    not depend on the size of its result."""

    def cube_db(self, side):
        rng = np.random.default_rng(7)
        planes = {a: rng.random((side, side, 4)) for a in ("flux", "err")}
        db = SciDB()
        db.register("R", SciArray.from_numpy(CUBE, planes, name="R"))
        return db

    def retained_per_statement(self, run, n=900, warm_up=60):
        """Bytes still allocated per statement after *n* calls of *run*,
        past a warm-up that fills the recorder's rings."""
        for i in range(warm_up):
            run(MIX[i % 3])
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(n):
                run(MIX[i % 3])
            gc.collect()
            return (tracemalloc.get_traced_memory()[0] - before) / n
        finally:
            tracemalloc.stop()

    def test_embedded(self):
        retained = {}
        for side in (16, 48):
            with use_flight_recorder(FlightRecorder(profile_capacity=16)):
                db = self.cube_db(side)
                retained[side] = self.retained_per_statement(db.execute)
        assert retained[48] <= 2 * retained[16], retained

    def test_through_the_service_with_sessions_released(self):
        retained = {}
        for side in (16, 48):
            with use_flight_recorder(
                FlightRecorder(profile_capacity=16)
            ), QueryService(self.cube_db(side), ServiceConfig()) as svc:
                with ShimClient(*svc.address) as client:

                    def run(statement):
                        sid = client.new_session()
                        client.execute_query(sid, statement)
                        client.release_session(sid)

                    retained[side] = self.retained_per_statement(run, n=300)
                assert svc.sessions.count() == 0
        assert retained[48] <= 2 * retained[16], retained


class TestGrowthIsVisible:
    def test_snapshot_and_metrics_endpoint(self):
        db = SciDB()
        db.register("R", line([1, 2, 3]))
        db.execute("select filter(R, v > 1) into Kept")
        db.execute("select filter(Kept, v > 2)")
        snapshot = db.metrics_snapshot()
        assert snapshot["gauges"]["catalog.arrays"] == 2
        assert snapshot["counters"]["provenance.commands"] == 2
        with QueryService(db, ServiceConfig()) as svc:
            with ShimClient(*svc.address) as client:
                text = client.metrics()
        assert "repro_catalog_arrays 2" in text
        assert "repro_provenance_commands_total 2" in text
