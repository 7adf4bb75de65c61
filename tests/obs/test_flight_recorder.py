"""The flight recorder: event ring, query profiles, health, exporters.

Unit coverage for the PR 8 tentpole — the bounded stores in isolation,
then the assembled system through the :class:`~repro.SciDB` facade
(``db.events()`` / ``db.profiles()`` / ``db.status()``), including the
disabled-recorder no-op contract the overhead budget depends on.
"""

import json
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.obs
from repro import SciDB, define_array
from repro.cluster import FaultInjector, HashPartitioner
from repro.cluster.resilience import Deadline
from repro.core.errors import DeadlineExceededError
from repro.obs.export import events_jsonl, prometheus_text, status_text
from repro.obs.health import HealthModel
from repro.obs.recorder import (
    EventLog,
    FlightRecorder,
    GaugeSampler,
    QueryProfile,
    QueryProfileStore,
    emit,
    get_flight_recorder,
    use_flight_recorder,
)
from repro.storage.loader import LoadRecord


class TestEventLog:
    def test_monotonic_seq_and_order(self):
        log = EventLog(capacity=16)
        for i in range(5):
            log.emit("tick", node=i)
        events = log.events()
        assert [e.seq for e in events] == [1, 2, 3, 4, 5]
        assert [e.node for e in events] == [0, 1, 2, 3, 4]

    def test_ring_evicts_oldest_but_counts_survive(self):
        log = EventLog(capacity=3)
        for _ in range(10):
            log.emit("kill")
        assert len(log) == 3
        assert log.emitted == 10
        assert log.evicted == 7
        assert log.counts() == {"kill": 10}
        # the retained events are the newest three
        assert [e.seq for e in log.events()] == [8, 9, 10]

    def test_filters(self):
        log = EventLog()
        log.emit("a", node=1)
        log.emit("b", node=2)
        log.emit("a", node=2)
        assert len(log.events(kind="a")) == 2
        assert len(log.events(node=2)) == 2
        assert len(log.events(kind="a", node=2)) == 1
        assert [e.seq for e in log.events(since_seq=2)] == [3]

    def test_clear_keeps_seq_monotonic(self):
        log = EventLog()
        log.emit("x")
        log.emit("x")
        log.clear()
        assert len(log) == 0
        # the log still agrees with itself: totals are all-time, and a
        # cleared event was not displaced by a newer one
        assert log.emitted == 2
        assert log.evicted == 0
        assert log.counts() == {"x": 2}
        assert log.emit("y").seq == 3  # not reset

    def test_detail_round_trips_through_json(self):
        log = EventLog()
        e = log.emit("rebalance_plan", array="sky", cells_total=99)
        parsed = json.loads(e.to_json())
        assert parsed["kind"] == "rebalance_plan"
        assert parsed["array"] == "sky"
        assert parsed["detail"]["cells_total"] == 99

    def test_concurrent_emit_has_unique_ordered_seqs(self):
        log = EventLog(capacity=10_000)
        n_threads, per_thread = 8, 250

        def burst():
            for _ in range(per_thread):
                log.emit("spam")

        workers = [threading.Thread(target=burst) for _ in range(n_threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        seqs = [e.seq for e in log.events()]
        assert len(seqs) == n_threads * per_thread
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)


class TestModuleEmit:
    def test_disabled_recorder_emits_nothing(self):
        rec = FlightRecorder(enabled=False)
        with use_flight_recorder(rec):
            assert emit("kill", node=1) is None
        assert rec.events_log.emitted == 0

    def test_enabled_recorder_receives_module_emits(self):
        rec = FlightRecorder()
        with use_flight_recorder(rec):
            event = emit("kill", node=1, why="test")
        assert event is not None and event.kind == "kill"
        assert rec.event_counts() == {"kill": 1}

    def test_use_flight_recorder_restores_previous(self):
        before = get_flight_recorder()
        with use_flight_recorder(FlightRecorder()) as rec:
            assert get_flight_recorder() is rec
        assert get_flight_recorder() is before


class TestQueryProfileStore:
    def test_ids_are_deterministic(self):
        store = QueryProfileStore()
        assert store.next_query_id() == "q-000001"
        assert store.next_query_id() == "q-000002"

    def test_last_n_retained_and_addressable(self):
        store = QueryProfileStore(capacity=2)
        for i in range(1, 4):
            store.add(
                QueryProfile(
                    query_id=f"q-{i:06d}", statement=f"s{i}",
                    started_at=0.0, total_ms=1.0,
                )
            )
        assert [p.query_id for p in store.profiles()] == [
            "q-000002", "q-000003",
        ]
        assert store.get("q-000001") is None  # evicted with its id index
        assert store.get("q-000003").statement == "s3"

    def test_estimated_field_reserved_for_cost_model(self):
        p = QueryProfile(
            query_id="q-000001", statement="s", started_at=0.0, total_ms=1.0
        )
        assert p.estimated is None  # null until the cost model fills it
        assert "estimated" not in p.render()

    def test_latency_totals_stay_exact_past_eviction(self):
        store = QueryProfileStore(capacity=4)
        assert store.latency() == {"count": 0, "sum": 0.0, "p50": 0.0, "p95": 0.0}
        for i in range(1, 11):
            store.add(_profile(i, float(i)))
        latency = store.latency()
        assert (latency["count"], latency["sum"]) == (10, 55.0)
        # the quantiles describe the retained ring (7, 8, 9, 10)
        assert (latency["p50"], latency["p95"]) == (8.0, 10.0)


def _profile(i, total_ms):
    return QueryProfile(
        query_id=f"q-{i:06d}", statement=f"s{i}", started_at=0.0,
        total_ms=total_ms,
    )


class TestSlowQueries:
    """The slow-query log is a view of the retained statement records."""

    def test_threshold_filters(self):
        rec = FlightRecorder(slow_query_ms=10.0)
        rec.record_profile(_profile(1, 3.0))
        rec.record_profile(_profile(2, 25.0))
        assert [p.statement for p in rec.slow_queries()] == ["s2"]
        assert rec.profile_store.latency()["count"] == 2  # both counted
        rec.slow_query_ms = 30.0  # raising it re-filters what is retained
        assert rec.slow_queries() == []
        with pytest.raises(ValueError):
            FlightRecorder(slow_query_ms=-1)

    def test_capacity_bounds_memory(self):
        rec = FlightRecorder(slow_query_ms=0.0)
        cap = QueryProfileStore.SLOW_CAPACITY
        for i in range(cap + 10):
            rec.record_profile(_profile(i, 1.0))
        kept = [p.statement for p in rec.slow_queries()]
        assert kept == [f"s{i}" for i in range(10, cap + 10)]  # oldest evicted

    def test_slow_statement_outlives_the_profile_ring(self):
        rec = FlightRecorder(profile_capacity=2, slow_query_ms=50.0)
        rec.record_profile(_profile(1, 80.0))
        for i in range(2, 6):
            rec.record_profile(_profile(i, 1.0))
        assert "q-000001" not in [p.query_id for p in rec.profiles()]
        assert rec.profile("q-000001") is rec.slow_queries()[0]

    def test_concurrent_observe_keeps_counts_consistent(self):
        rec = FlightRecorder(profile_capacity=4096, slow_query_ms=0.0)
        n_threads, per_thread = 8, 200

        def run(tid):
            for i in range(per_thread):
                rec.record_profile(_profile(tid * 1000 + i, 1.0))

        with ThreadPoolExecutor(n_threads) as pool:
            list(pool.map(run, range(n_threads)))
        assert rec.profile_store.latency()["count"] == n_threads * per_thread
        assert len(rec.profile_store) == n_threads * per_thread
        assert len(rec.slow_queries()) == QueryProfileStore.SLOW_CAPACITY

    def test_each_database_keeps_its_own_threshold(self):
        """A second ``SciDB(slow_query_ms=...)`` used to overwrite the
        first's threshold on the process-wide recorder; now each
        statement carries its database's, on every entry point."""
        from repro.service import QueryService, ServiceConfig

        with use_flight_recorder(FlightRecorder()) as rec:
            eager, lax = SciDB(slow_query_ms=0.0), SciDB(slow_query_ms=1e9)
            assert rec.slow_query_ms == 100.0  # the recorder's own is untouched
            assert (eager.slow_query_ms, lax.slow_query_ms) == (0.0, 1e9)
            for db in (eager, lax):
                db.execute("define array T (v = float) (I)")
                db.execute("create A as T [4]")
                db.explain("select subsample(A, I >= 2)")
            assert [p.statement for p in eager.slow_queries()] == [
                "define array T (v = float) (I)", "create A as T [4]",
                "select subsample(A, I >= 2)",
            ]
            assert lax.slow_queries() == []
            with QueryService(eager, ServiceConfig()) as svc:
                assert svc.kill_after_ms == 1_000.0
            with QueryService(SciDB(slow_query_ms=40.0), ServiceConfig()) as svc:
                assert svc.kill_after_ms == 2_000.0

    def test_query_id_correlation(self):
        rec = FlightRecorder(slow_query_ms=0.0)
        rec.record_profile(_profile(42, 5.0))
        (entry,) = rec.slow_queries()
        assert rec.profile("q-000042") is entry
        assert "q-000042" in str(entry)
        assert rec.profile("q-999999") is None


class TestGaugeSampler:
    def test_rings_are_bounded(self):
        s = GaugeSampler(capacity=3)
        for i in range(10):
            s.record("k", float(i), seq=i)
        points = s.series("k")
        assert len(points) == 3
        assert [v for _, _, v in points] == [7.0, 8.0, 9.0]
        assert s.latest("k") == 9.0

    def test_unknown_series_is_empty(self):
        s = GaugeSampler()
        assert s.series("nope") == []
        assert s.latest("nope") is None


@pytest.fixture
def grid_db(tmp_path):
    rec = FlightRecorder()
    with use_flight_recorder(rec):
        db = SciDB(tmp_path)
        inj = FaultInjector(seed=7)
        grid = db.create_grid("g", n_nodes=3, replication=2, fault_injector=inj)
        schema = define_array("M", {"v": "float"}, ["I", "J"]).bind([8, 8])
        arr = grid.create_array("M", schema, HashPartitioner(3), replication=2)
        arr.load(
            LoadRecord((i, j), (float(i * 8 + j),))
            for i in range(8)
            for j in range(8)
        )
        db.register("M", arr)
        yield rec, db, grid, inj


class TestSciDBIntegration:
    def test_profiles_capture_operator_trees(self, grid_db):
        rec, db, grid, inj = grid_db
        t0 = time.perf_counter()
        db.execute("select subsample(M, I >= 2)")
        wall_ms = (time.perf_counter() - t0) * 1e3
        profiles = db.profiles()
        assert len(profiles) == 1
        p = profiles[0]
        assert p.query_id == "q-000001"
        assert p.root is not None and p.root.op == "subsample"
        assert p.cells_scanned > 0
        assert db.profile("q-000001") is p
        rendered = p.render()
        assert "PROFILE q-000001" in rendered
        assert "subsample" in rendered
        # The record starts where the statement enters: parse and plan
        # are in it, self-times sum to the root by construction, and the
        # root is the statement's wall time, not a part of it.
        assert [sp.name for sp in p.span.walk()] == [
            "query", "parse", "plan", "execute", "op:subsample",
        ]
        assert "phases: parse" in rendered
        assert sum(sp.self_ms for sp in p.span.walk()) == pytest.approx(
            p.span.duration_ms
        )
        assert p.total_ms == p.span.duration_ms
        assert abs(wall_ms - p.total_ms) <= max(0.10 * wall_ms, 0.05)

    def test_kill_and_rebuild_land_in_events(self, grid_db):
        rec, db, grid, inj = grid_db
        inj.kill(1)
        db.execute("select subsample(M, J < 4)")
        grid.rebuild_node(1)
        counts = rec.event_counts()
        assert counts.get("fault.node_kill") == 1
        assert counts.get("node_down") == 1
        assert counts.get("node_up") == 1
        assert counts.get("node_rebuild") == 1
        kills = db.events(kind="fault.node_kill")
        rebuilds = db.events(kind="node_rebuild")
        assert kills[0].node == 1 and rebuilds[0].node == 1
        assert kills[0].seq < rebuilds[0].seq  # injection-order seq

    def test_slowlog_correlates_to_profile(self, grid_db):
        rec, db, grid, inj = grid_db
        rec.slow_query_ms = 0.0  # everything is "slow"
        db.execute("select subsample(M, I >= 2)")
        entries = db.slow_queries()
        assert entries and entries[-1].query_id == "q-000001"
        assert db.profile(entries[-1].query_id) is not None

    def test_sample_records_per_node_gauges(self, grid_db):
        rec, db, grid, inj = grid_db
        updated = db.sample()
        assert updated > 0
        keys = rec.sampler.keys()
        assert "g.node0.cells" in keys
        assert "g.node0.wal_depth" in keys
        assert "g.imbalance" in keys
        assert rec.sampler.latest("g.alive_nodes") == 3.0
        total_cells = sum(
            rec.sampler.latest(f"g.node{i}.cells") for i in range(3)
        )
        assert total_cells == 128  # 64 logical cells × k=2 replicas

    def test_status_is_one_screen_and_names_findings(self, grid_db):
        rec, db, grid, inj = grid_db
        db.execute("select subsample(M, I >= 2)")
        inj.kill(2)
        text = db.status()
        assert text.startswith("== repro status ==")
        assert "cluster: critical" in text
        assert "down (awaiting rebuild)" in text
        assert "q-000001" in text
        grid.rebuild_node(2)
        assert "cluster: ok" in db.status()

    def test_disabled_recorder_is_a_no_op_end_to_end(self, tmp_path):
        rec = FlightRecorder(enabled=False)
        with use_flight_recorder(rec):
            db = SciDB(tmp_path)
            inj = FaultInjector(seed=3)
            grid = db.create_grid(
                "g", n_nodes=3, replication=2, fault_injector=inj
            )
            schema = define_array("M", {"v": "float"}, ["I", "J"]).bind([4, 4])
            arr = grid.create_array(
                "M", schema, HashPartitioner(3), replication=2
            )
            arr.load(
                [LoadRecord((i, j), (1.0,)) for i in range(4) for j in range(4)]
            )
            db.register("M", arr)
            inj.kill(1)
            db.execute("select subsample(M, I >= 1)")
            grid.rebuild_node(1)
            assert rec.events_log.emitted == 0
            assert db.profiles() == []
            # fault-injector bookkeeping is unaffected by the recorder
            assert inj.counts().get("node_kill") == 1


class TestOneRecordPerStatement:
    def test_events_carry_the_statement_that_caused_them(self, grid_db):
        rec, db, grid, inj = grid_db
        emitters = []
        log_emit = rec.events_log.emit

        def spy(kind, **kwargs):
            emitters.append((kind, threading.current_thread().name))
            return log_emit(kind, **kwargs)

        rec.events_log.emit = spy
        db.execute("select subsample(M, I >= 2)")
        inj.set_slow_reads(1, 200.0)
        with pytest.raises(DeadlineExceededError):
            db.execute("select subsample(M, I >= 2)", timeout_ms=40)
        healthy, failed = db.profiles()
        assert failed.error.startswith("DeadlineExceededError")
        misses = db.events(kind="deadline_miss")
        assert misses and {e.query_id for e in misses} == {failed.query_id}
        assert healthy.query_id != failed.query_id
        # the miss was noticed on a scheduler worker, which carries the
        # statement's id because it adopted the operator span
        assert any(
            kind == "deadline_miss" and thread.startswith("repro-sched")
            for kind, thread in emitters
        )
        # outside any statement: a spent budget on a direct grid read
        with pytest.raises(DeadlineExceededError):
            db.lookup("M").subsample(
                ((0, 0), (7, 7)), deadline=Deadline.after_ms(1e-6)
            )
        assert db.events(kind="deadline_miss")[-1].query_id is None

    def test_metrics_snapshot_totals_equal_the_owners(self, grid_db):
        rec, db, grid, inj = grid_db
        db.execute("select subsample(M, I >= 2)")
        for node in grid.nodes:
            node.partition("M").merge_small_buckets()
        db.execute("select subsample(M, I <= 5)")
        inj.kill(1)
        db.execute("select subsample(M, J < 4)")
        grid.nodes[0].wal.commit()
        snap = db.metrics_snapshot()
        counters = snap["counters"]
        stats = [node.storage.total_stats() for node in grid.nodes]
        for key in ("buckets_read", "buckets_written", "bytes_read"):
            assert counters[f"storage.{key}"] == sum(s[key] for s in stats)
        assert counters["storage.buckets_read"] > 0
        wals = [db.wal] + [node.wal for node in grid.nodes]
        assert counters["wal.appends"] == sum(
            w.records_appended for w in wals
        ) > 0
        assert counters["wal.commits"] == sum(w.commits for w in wals) > 0
        assert counters["cache.hit"] == sum(
            node.storage.chunk_cache.hits for node in grid.nodes
        )
        assert counters["scheduler.tasks"] == grid.scheduler.tasks > 0
        assert counters["query.statements"] == len(db.profiles()) == 3
        assert (
            snap["flight_recorder"]["events"]["by_kind"]
            == rec.events_log.counts()
        )
        assert rec.events_log.counts()["fault.node_kill"] == 1


@pytest.mark.parametrize(
    "name",
    [
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "get_registry",
        "set_registry", "SlowQuery", "SlowQueryLog", "SpanRecorder",
        "NoopRecorder", "get_recorder", "set_recorder", "use", "metrics",
        "slowlog",
    ],
)
def test_the_duplicated_models_are_gone(name):
    assert not hasattr(repro.obs, name)
    assert not hasattr(repro.obs.tracing, name)


class TestHealthModel:
    def test_all_ok(self, grid_db):
        rec, db, grid, inj = grid_db
        report = db.health()
        assert report.status == "ok"
        assert all(nh.status == "ok" for nh in report.nodes)

    def test_dead_node_is_critical_with_finding(self, grid_db):
        rec, db, grid, inj = grid_db
        inj.kill(0)
        report = db.health()
        assert report.status == "critical"
        nh = report.node("g", 0)
        assert nh.status == "critical"
        assert any("down" in f for f in nh.findings)

    def test_active_rebalance_reported(self, grid_db):
        rec, db, grid, inj = grid_db
        rb = grid.start_rebalance(
            "M", HashPartitioner(3, dims=[0]),
            max_transfer_cells_per_tick=4,
        )
        rb.tick()
        report = db.health()
        assert report.status == "rebalancing"
        assert any("rebalance 'M'" in f for f in report.findings)
        rb.run()  # drain it so teardown is clean

    def test_quarantine_events_degrade(self):
        rec = FlightRecorder()
        rec.emit("quarantine", offset=4, reason="malformed")
        report = HealthModel().assess({}, recorder=rec)
        assert report.status == "degraded"
        assert any("quarantined" in f for f in report.findings)

    def test_to_dict_is_json_serialisable(self, grid_db):
        rec, db, grid, inj = grid_db
        json.dumps(db.health().to_dict())


class TestExporters:
    def test_prometheus_text_shape(self, grid_db):
        rec, db, grid, inj = grid_db
        db.create_grid('b"x', n_nodes=2)  # a second grid, awkward name
        db.execute("select subsample(M, I >= 2)")
        rec.emit("cache_pressure", evictions=64)
        text = db.prometheus()
        assert 'repro_flight_events_total{kind="cache_pressure"} 1' in text
        assert text.endswith("\n")
        assert "# TYPE repro_query_statements_total counter" in text
        assert 'repro_grid_node_alive{grid="g",node="0"} 1' in text
        assert 'repro_grid_node_alive{grid="b\\"x",node="1"} 1' in text
        assert "repro_query_latency_ms{quantile=" in text
        # Round trip: every sample line parses as
        # name[{label="escaped value",...}] number, its family is typed,
        # and no family is typed twice.
        label = r'[a-zA-Z_]\w*="(?:[^"\\\n]|\\["\\n])*"'
        sample = re.compile(
            rf"^([a-zA-Z_:][\w:]*?)(?:_sum|_count)?"
            rf"(?:\{{{label}(?:,{label})*\}})? -?\d+(?:\.\d+)?(?:e[+-]?\d+)?$"
        )
        typed = [l.split(" ")[2] for l in text.splitlines() if l[0] == "#"]
        assert len(set(typed)) == len(typed)
        for line in text.splitlines():
            if line[0] != "#":
                match = sample.match(line)
                assert match and match.group(1) in typed, line

    def test_events_jsonl_round_trip(self):
        rec = FlightRecorder()
        rec.emit("a", node=1)
        rec.emit("b", array="sky", n=2)
        lines = events_jsonl(rec.events()).splitlines()
        assert len(lines) == 2
        parsed = [json.loads(l) for l in lines]
        assert parsed[0]["kind"] == "a" and parsed[1]["detail"]["n"] == 2

    def test_status_text_without_optional_parts(self):
        report = HealthModel().assess({})
        text = status_text(report)
        assert "== repro status ==" in text
        assert "cluster: ok" in text
