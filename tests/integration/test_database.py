"""Integration tests for the assembled SciDB facade."""

import pytest

from repro import SciDB, SchemaError, VersionError, define_array
from repro.query import array, attr, dim


class TestStatements:
    def test_textual_and_fluent(self, tmp_path):
        db = SciDB(tmp_path)
        db.execute("define array Remote (s1 = float) (I, J)")
        db.execute("create M as Remote [8, 8]")
        m = db.lookup("M")
        for i in range(1, 9):
            for j in range(1, 9):
                m[i, j] = float(i * j)
        big_text = db.query("select filter(M, s1 > 40) into BigT")
        big_fluent = db.query(
            array("M").filter(attr("s1") > 40).into("BigF")
        )
        assert big_text.content_equal(big_fluent)
        assert set(db.arrays()) >= {"M", "BigT", "BigF"}

    def test_script(self):
        db = SciDB()
        results = db.execute_script(
            """
            define array T (v = float) (x)
            create A as T [4]
            """
        )
        assert len(results) == 2

    def test_every_query_logged(self):
        db = SciDB()
        db.execute("define array T (v = float) (x)")
        db.execute("create A as T [4]")
        db.lookup("A")[1] = 1.0
        db.query("select filter(A, v > 0)")
        assert "filter(A" in db.derivation_log()


class TestProvenanceThroughFacade:
    def test_traces(self):
        db = SciDB()
        db.execute("define array T (v = float) (x)")
        db.execute("create A as T [4]")
        a = db.lookup("A")
        for i in range(1, 5):
            a[i] = float(i)
        out = db.query("select filter(A, v > 2) into Kept")
        steps = db.trace_backward("Kept", (3,))
        assert steps[0].command.op == "filter"
        affected = db.trace_forward("A", (3,))
        assert any(name == "Kept" for name, _ in affected)

    def test_item_lineage_option(self):
        db = SciDB(record_item_lineage=True)
        db.execute("define array T (v = float) (x)")
        db.execute("create A as T [2]")
        a = db.lookup("A")
        a[1], a[2] = 1.0, 2.0
        db.query("select filter(A, v > 0) into K")
        assert db.itemstore.edges > 0


class TestHistoryAndVersions:
    def make_db(self):
        db = SciDB()
        schema = define_array("U", {"v": "float"}, ["x"], updatable=True)
        u = db.create_updatable(schema, bounds=[4, "*"], name="measurements")
        with u.begin() as t:
            t.set((1,), 1.0)
            t.set((2,), 2.0)
        return db, u

    def test_updatable_lifecycle(self):
        db, u = self.make_db()
        assert db.updatable("measurements") is u
        with pytest.raises(SchemaError):
            db.updatable("nope")
        schema = define_array("U2", {"v": "float"}, ["x"], updatable=True)
        with pytest.raises(SchemaError):
            db.create_updatable(schema, bounds=[4, "*"], name="measurements")

    def test_versions(self):
        db, u = self.make_db()
        v = db.create_version("measurements", "study")
        with v.begin() as t:
            t.set((1,), -1.0)
        assert v.get(1).v == -1.0
        assert u.get(1).v == 1.0
        assert db.version("measurements", "study") is v
        nested = db.create_version("measurements", "study2", parent="study")
        assert nested.get(1).v == -1.0
        with pytest.raises(VersionError):
            db.version("other", "x")


class TestStorageThroughFacade:
    def test_persist_restore(self, tmp_path):
        db = SciDB(tmp_path)
        db.execute("define array T (v = float) (x)")
        db.execute("create A as T [16]")
        a = db.lookup("A")
        for i in range(1, 17):
            a[i] = float(i)
        assert db.persist("A") == 16
        # Drop from the catalog and restore from buckets.
        del db.executor.arrays["A"]
        restored = db.restore("A")
        assert restored.count_present() == 16
        assert restored[7].v == 7.0

    def test_memory_instance_has_no_storage(self):
        db = SciDB()
        with pytest.raises(SchemaError):
            db.persist("anything")

    def test_attach_in_situ(self, tmp_path):
        import numpy as np

        np.save(tmp_path / "grid.npy", np.arange(4.0).reshape(2, 2))
        db = SciDB()
        adaptor = db.attach(tmp_path / "grid.npy")
        assert adaptor.get(2, 2).value == 3.0
        # Promotion: load then register.
        db.register("grid", adaptor.load("grid"))
        assert db.query("select filter(grid, value >= 2)").count_present() == 2

    def dirty_feed(self, path):
        """A 4x4 CSV feed with two out-of-bounds rows (source lines 4, 9)."""
        rows = [f"{x},{y},{x * 10 + y}.0" for x in range(1, 5) for y in range(1, 5)]
        rows.insert(2, "9,9,2.0")
        rows.insert(7, "0,1,5.0")
        path.write_text("\n".join(["x,y,flux"] + rows) + "\n")
        return define_array("feed", {"flux": "float"}, ["x", "y"]).bind([4, 4])

    def test_ingest_quarantines_dirty_rows_by_source_line(self, tmp_path):
        schema = self.dirty_feed(tmp_path / "feed.csv")
        db = SciDB(tmp_path / "db")
        assert db.quarantined("feed") is None
        report = db.ingest(
            "feed", db.attach(tmp_path / "feed.csv", dims=["x", "y"]),
            schema=schema, batch_size=4,
        )
        assert (report.records_loaded, report.records_quarantined) == (16, 2)
        assert db.quarantined("feed").offsets() == [4, 9]
        assert {r.reason for r in db.quarantined("feed")} == {"out_of_bounds"}
        # The loaded array is catalogued: statements see the clean rows.
        kept = db.query("select filter(feed, flux > 40)")
        assert kept.count_present() == 4

    def test_ingest_resumes_from_the_last_committed_batch(self, tmp_path):
        schema = self.dirty_feed(tmp_path / "feed.csv")
        db = SciDB(tmp_path / "db")
        adaptor = db.attach(tmp_path / "feed.csv", dims=["x", "y"])

        def feed_that_hiccups():
            for i, record in enumerate(adaptor.records()):
                if i == 10:
                    raise ConnectionError("feed hiccup")
                yield record

        with pytest.raises(ConnectionError):
            db.ingest("feed", feed_that_hiccups(), schema=schema, batch_size=4)
        resumed = db.ingest("feed", adaptor, schema=schema, batch_size=4)
        # Two batches (8 source rows, 2 of them dirty) had committed.
        assert (resumed.records_skipped, resumed.records_loaded) == (6, 10)
        assert db.lookup("feed").count_present() == 16
        assert db.quarantined("feed").offsets() == [4, 9]
        again = db.ingest("feed", adaptor, schema=schema, batch_size=4)
        assert (again.records_loaded, again.records_skipped) == (0, 16)

    def test_ingest_resumes_in_a_new_process(self, tmp_path):
        schema = self.dirty_feed(tmp_path / "feed.csv")
        db = SciDB(tmp_path / "db")
        records = list(db.attach(tmp_path / "feed.csv", dims=["x", "y"]).records())

        def feed_that_hiccups():
            yield from records[:10]
            raise ConnectionError("feed hiccup")

        with pytest.raises(ConnectionError):
            db.ingest("feed", feed_that_hiccups(), schema=schema, batch_size=4)
        db = SciDB(tmp_path / "db")  # re-opened: it sees its own buckets
        resumed = db.ingest("feed", records, schema=schema, batch_size=4)
        assert (resumed.records_skipped, resumed.records_loaded) == (6, 10)
        assert db.lookup("feed").count_present() == 16


class TestCrashRecovery:
    def test_updatable_arrays_survive_crash(self, tmp_path):
        """Commit, 'crash' (drop the instance), reopen, recover: full
        history, deletion flags, and as-of reads intact."""
        db = SciDB(tmp_path)
        schema = define_array("W", {"v": "float"}, ["x"], updatable=True)
        obs = db.create_updatable(schema, bounds=[4, "*"], name="obs")
        with obs.begin() as t:
            t.set((1,), 1.0)
            t.set((2,), 2.0)
        with obs.begin() as t:
            t.set((1,), 10.0)
            t.delete((2,))

        db2 = SciDB(tmp_path)  # the post-crash instance
        assert db2.recover() == ["obs"]
        again = db2.updatable("obs")
        assert again.current_history == 2
        assert again.get(1).v == 10.0
        assert again.get(1, as_of=1).v == 1.0
        assert not again.exists(2)
        assert again.exists(2, as_of=1)

    def test_recovered_arrays_stay_durable(self, tmp_path):
        db = SciDB(tmp_path)
        schema = define_array("W", {"v": "float"}, ["x"], updatable=True)
        obs = db.create_updatable(schema, bounds=[4, "*"], name="obs")
        with obs.begin() as t:
            t.set((1,), 1.0)

        db2 = SciDB(tmp_path)
        db2.recover()
        with db2.updatable("obs").begin() as t:
            t.set((1,), 2.0)  # a post-recovery commit, also logged

        db3 = SciDB(tmp_path)
        db3.recover()
        assert db3.updatable("obs").get(1).v == 2.0
        assert db3.updatable("obs").current_history == 2

    def test_memory_instance_cannot_recover(self):
        db = SciDB()
        with pytest.raises(SchemaError):
            db.recover()


class TestScriptPlumbing:
    """execute_script must honor timeout_ms and planner like execute."""

    def _loaded(self):
        db = SciDB()
        db.execute("define array Remote (s1 = float) (I, J)")
        db.execute("create M as Remote [8, 8]")
        m = db.lookup("M")
        for i in range(1, 9):
            for j in range(1, 9):
                m[i, j] = float(i * 8 + j)
        return db

    def test_script_timeout_enforced(self):
        from repro.core.errors import DeadlineExceededError

        db = self._loaded()
        with pytest.raises(DeadlineExceededError):
            db.execute_script(
                "select filter(M, s1 > 0)\nselect subsample(M, I >= 2)",
                timeout_ms=1e-4,
            )

    def test_script_planner_override_applies(self):
        from repro.query.planner import PlannerConfig

        db = self._loaded()
        results = db.execute_script(
            "select filter(M, s1 > 40)\nselect filter(M, s1 <= 40)",
            planner=PlannerConfig(enable_pushdown=False, enable_pruning=False),
        )
        assert len(results) == 2
        assert all(r.planned is not None for r in results)
        # The override reached every statement's plan, not just the first.
        for r in results:
            assert not r.planned.config.enable_pushdown

    def test_script_results_match_statementwise_execution(self):
        db = self._loaded()
        script = db.execute_script(
            "select filter(M, s1 > 40) into Big\nselect subsample(Big, I >= 6)"
        )
        other = self._loaded()
        other.execute("select filter(M, s1 > 40) into Big")
        direct = other.query("select subsample(Big, I >= 6)")
        assert script[-1].array.content_equal(direct)
