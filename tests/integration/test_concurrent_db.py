"""Two threads sharing one :class:`SciDB` — end to end (PR 10).

The service front-end executes every request in its own thread against
a single engine instance, so the whole stack underneath —
parser/planner/executor, provenance catalog+log, profile recorder,
tracing — must tolerate genuinely concurrent statements.  The contract
tested here: whatever interleaving happens, each thread's *answers*
equal the ones a serial run produces.
"""

import threading

from repro import SciDB, define_array
from repro.cluster import FaultInjector, HashPartitioner
from repro.obs.recorder import FlightRecorder, use_flight_recorder
from repro.storage.loader import LoadRecord


def build_db():
    db = SciDB()
    db.execute("define array Remote (s1 = float) (I, J)")
    db.execute("create M as Remote [12, 12]")
    m = db.lookup("M")
    for i in range(1, 13):
        for j in range(1, 13):
            m[i, j] = float(i * 12 + j)
    return db


def run_all(threads):
    """Start every thread, then join each with a bound."""
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()


def snapshot(arr):
    return {
        coords: tuple(cell)
        for coords, cell in arr.cells(include_null=False)
    }


STATEMENTS = [
    "select subsample(M, I >= 7)",
    "select filter(M, s1 > 72)",
    "select aggregate(M, {I}, sum(s1))",
    "select subsample(M, J <= 3)",
    "select filter(M, s1 <= 30)",
    "select aggregate(M, {J}, count(s1))",
]


class TestConcurrentStatements:
    def test_parallel_results_equal_serial(self):
        serial = [snapshot(build_db().query(s)) for s in STATEMENTS]

        db = build_db()
        results: list = [None] * len(STATEMENTS)
        errors: list = []

        def run(idx, statement, repeats=5):
            try:
                for _ in range(repeats):
                    results[idx] = snapshot(db.query(statement))
            except BaseException as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(i, s))
            for i, s in enumerate(STATEMENTS)
        ]
        run_all(threads)
        assert errors == []
        assert results == serial

    def test_query_ingest_explain_concurrently(self):
        """The service's real mix: reads, writes, and explain at once."""
        db = build_db()
        db.execute("create Sink as Remote [64, 4]")
        errors: list = []
        done = threading.Event()

        def reader():
            try:
                expected = snapshot(build_db().query(STATEMENTS[1]))
                while not done.is_set():
                    assert snapshot(db.query(STATEMENTS[1])) == expected
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def ingester():
            try:
                sink = db.lookup("Sink")
                for row in range(1, 65):
                    for col in range(1, 5):
                        sink[row, col] = float(row * 4 + col)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                done.set()

        def explainer():
            try:
                while not done.is_set():
                    report = db.explain(STATEMENTS[0])
                    assert report.root is not None
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=fn)
            for fn in (reader, ingester, explainer)
        ]
        run_all(threads)
        assert errors == []
        ingested = snapshot(db.query("select filter(Sink, s1 > 0)"))
        assert len(ingested) == 64 * 4

    def test_concurrent_scripts_share_catalog_sources(self):
        """Both scripts read M; the register-external race must be benign."""
        db = build_db()
        errors: list = []
        barrier = threading.Barrier(4)

        def run(idx):
            try:
                barrier.wait()
                out = db.execute_script(
                    f"select filter(M, s1 > 40) into Kept{idx}\n"
                    f"select subsample(Kept{idx}, I >= 8)"
                )
                assert len(out) == 2
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        run_all(threads)
        assert errors == []
        assert {f"Kept{i}" for i in range(4)} <= set(db.arrays())


class TestConcurrentProfiles:
    def test_query_ids_unique_and_trees_intact(self):
        """Satellite 3: concurrent statements must never share or corrupt
        each other's recorded profiles (one global span recorder used to
        absorb both trees, then truncate one on restore)."""
        recorder = FlightRecorder(profile_capacity=256)
        with use_flight_recorder(recorder):
            db = build_db()
            errors: list = []

            def run(statement, repeats=6):
                try:
                    for _ in range(repeats):
                        db.query(statement)
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(s,))
                for s in STATEMENTS[:4]
            ]
            run_all(threads)
            assert errors == []

            profiles = [
                p
                for p in recorder.profiles(256)
                if p.statement in STATEMENTS[:4]
            ]
            assert len(profiles) == 4 * 6
            ids = [p.query_id for p in profiles]
            assert len(set(ids)) == len(ids)  # q-ids strictly unique
            for profile in profiles:
                # An intact tree: the root is the statement's own
                # operator, and no span from any concurrent statement
                # leaked into this profile.
                assert profile.root is not None
                op = profile.statement.split("(")[0].split()[-1]
                assert profile.root.op == op
                assert profile.error is None
                for node in profile.root.walk():
                    assert node.op in (op, "scan")
                    assert node.time_ms >= 0

    def test_grid_records_own_their_spans_and_events(self, tmp_path):
        """Four threads × six statements over a grid at parallelism=4,
        read faults landing on scheduler workers mid-run: every record
        covers parse → plan → execute with only its own operator span,
        and every event carries the id of the statement whose (adopted)
        worker hit the fault — the record's failover count, metered on
        the operator span by that same worker, agrees."""
        recorder = FlightRecorder()
        with use_flight_recorder(recorder):
            db = SciDB(tmp_path)
            inj = FaultInjector(seed=3)
            grid = db.create_grid(
                "g", n_nodes=4, replication=2, fault_injector=inj,
                parallelism=4,
            )
            schema = define_array("D", {"v": "float"}, ["x", "y"]).bind([12, 12])
            arr = grid.create_array("D", schema, HashPartitioner(4))
            arr.load(
                LoadRecord((x, y), (float(x * y),))
                for x in range(1, 13) for y in range(1, 13)
            )
            db.register("D", arr)
            statements = [f"select subsample(D, x >= {i})" for i in (2, 4, 6, 8)]
            inj.schedule_transient_reads(0, 10)
            errors: list = []

            def run(statement):
                try:
                    for _ in range(6):
                        db.query(statement)
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(s,)) for s in statements
            ]
            run_all(threads)
            assert errors == []

            profiles = [p for p in recorder.profiles() if p.statement in statements]
            assert len({p.query_id for p in profiles}) == len(profiles) == 4 * 6
            for p in profiles:
                assert [sp.name for sp in p.span.walk()] == [
                    "query", "parse", "plan", "execute", "op:subsample",
                ]
                assert p.error is None and p.root.op == "subsample"
            # (node 0's breaker opens part-way, so not all ten fire)
            faults = recorder.events(kind="fault.io_transient_read")
            assert faults
            for p in profiles:
                assert p.failovers == sum(
                    1 for e in faults if e.query_id == p.query_id
                )
            assert sum(p.failovers for p in profiles) == len(faults)
