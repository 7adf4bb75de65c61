"""EXPLAIN ANALYZE: annotated plan trees reconciling with the ledger."""

import json

import pytest

from repro.cluster.partitioning import HashPartitioner
from repro.core.errors import ParseError, PlanError
from repro.core.schema import define_array
from repro.database import SciDB
from repro.obs.explain import ExplainReport
from repro.obs.recorder import FlightRecorder, use_flight_recorder
from repro.storage.loader import LoadRecord

SIDE = 12


@pytest.fixture
def db(tmp_path):
    db = SciDB(tmp_path)
    db.execute("define array T (v = float) (I, J)")
    db.execute(f"create M as T [{SIDE}, {SIDE}]")
    m = db.lookup("M")
    for i in range(1, SIDE + 1):
        for j in range(1, SIDE + 1):
            m[i, j] = float(i * j)
    return db


@pytest.fixture
def grid_db(db):
    grid = db.create_grid(n_nodes=4, replication=2)
    schema = define_array("D", {"v": "float"}, ["x", "y"]).bind([SIDE, SIDE])
    darr = grid.create_array("D", schema, HashPartitioner(4))
    darr.load(
        LoadRecord((x, y), (float(x * y),))
        for x in range(1, SIDE + 1)
        for y in range(1, SIDE + 1)
    )
    db.register("D", darr)
    return db


class TestLocalExplain:
    def test_every_operator_carries_measurements(self, db):
        rep = db.explain("select subsample(M, I >= 2 and J <= 5)")
        assert isinstance(rep, ExplainReport)
        ops = list(rep.operators())
        assert [p.op for p in ops] == ["subsample", "scan"]
        sub, scan = ops
        assert sub.time_ms > 0
        assert sub.cells_scanned == SIDE * SIDE
        assert sub.cells_out == (SIDE - 1) * 5
        assert sub.chunks_touched > 0
        assert scan.cells_out == SIDE * SIDE  # catalog annotation
        assert rep.total_ms >= sub.time_ms

    def test_local_query_moves_no_bytes(self, db):
        rep = db.explain("select aggregate(M, {I}, sum(v))")
        assert rep.total("bytes_moved") == 0
        assert rep.ledger_delta == {}
        assert rep.reconciles()

    def test_render_mentions_statement_and_counters(self, db):
        rep = db.explain("select subsample(M, I >= 2)")
        text = rep.render()
        assert "select subsample(M, I >= 2)" in text
        assert "cells_scanned" in text
        assert "bytes_moved" in text
        assert str(rep) == text

    def test_pushdown_rewrites_reported(self, db):
        rep = db.explain("select subsample(filter(M, v > 20), I >= 3)")
        assert rep.rewrites  # planner pushed subsample below filter
        # The executed tree is the planned one: filter on top.
        assert rep.root.op == "filter"
        assert rep.root.children[0].op == "subsample"
        assert "rewrite" in rep.render()

    def test_cells_examined_propagates(self, db):
        rep = db.explain("select filter(M, v > 20)")
        assert rep.cells_examined == SIDE * SIDE

    def test_nested_operators_get_exclusive_spans(self, db):
        rep = db.explain("select aggregate(subsample(M, I >= 2), {J}, sum(*))")
        agg = rep.root
        assert agg.op == "aggregate"
        sub = agg.children[0]
        assert sub.op == "subsample"
        # Exclusive accounting: the inner subsample scanned the base
        # array; the aggregate scanned only the subsample's output.
        assert sub.cells_scanned == SIDE * SIDE
        assert agg.cells_scanned == sub.cells_out


class TestDistributedExplain:
    def test_bytes_moved_reconciles_with_ledger(self, grid_db):
        rep = grid_db.explain("select aggregate(D, {x}, sum(v))")
        assert rep.ledger_delta  # the merge moved partials
        assert rep.total("bytes_moved") == sum(rep.ledger_delta.values())
        assert rep.reconciles()

    def test_operator_annotations_on_grid(self, grid_db):
        rep = grid_db.explain("select aggregate(D, {x}, sum(v))")
        agg = rep.root
        assert agg.distributed
        assert agg.nodes_visited == 4
        assert agg.cells_scanned == SIDE * SIDE
        assert agg.chunks_touched > 0
        assert agg.bytes_moved > 0
        scan = agg.children[0]
        assert scan.distributed
        assert scan.nodes_visited == 4  # catalog annotation: grid width

    def test_subsample_window_gathers_less_than_full_scan(self, grid_db):
        full = grid_db.explain("select sjoin(D, D, D.x = D.x and D.y = D.y)")
        window = grid_db.explain("select subsample(D, x <= 3 and y <= 3)")
        assert window.reconciles() and full.reconciles()
        assert window.total("bytes_moved") < full.total("bytes_moved")

    def test_delta_is_per_query_not_cumulative(self, grid_db):
        first = grid_db.explain("select aggregate(D, {x}, sum(v))")
        second = grid_db.explain("select aggregate(D, {x}, sum(v))")
        assert second.ledger_delta == first.ledger_delta

    def test_failover_visible_in_report(self, grid_db):
        grid_db.grid().nodes[1].fail()
        rep = grid_db.explain("select aggregate(D, {x}, sum(v))")
        assert rep.reconciles()
        assert rep.total("failovers") >= 1
        assert rep.root.cells_scanned == SIDE * SIDE  # replicas covered it

    def test_distributed_matches_local_result(self, grid_db):
        dist = grid_db.execute("select aggregate(D, {x}, sum(v))").array
        local_arr = grid_db.executor.arrays["D"].materialize()
        grid_db.register("Dlocal", local_arr)
        local = grid_db.execute("select aggregate(Dlocal, {x}, sum(v))").array
        for i in range(1, SIDE + 1):
            assert dist.get(i).sum == local.get(i).sum


class TestMetricsAndSlowLog:
    def test_metrics_snapshot_unifies_layers(self, grid_db):
        grid_db.execute("select aggregate(D, {x}, sum(v))")
        snap = grid_db.metrics_snapshot()
        assert snap["counters"]["query.statements"] >= 1
        assert snap["counters"]["wal.appends"] > 0  # grid load WAL'd cells
        assert snap["histograms"]["query.latency_ms"]["count"] >= 1
        grid = snap["grids"]["grid"]
        assert grid["ledger"]["total_bytes"] > 0
        assert len(grid["nodes"]) == 4
        assert sum(n["cells_scanned"] for n in grid["nodes"]) > 0
        assert sum(n["cells_stored"] for n in grid["nodes"]) >= SIDE * SIDE
        json.dumps(snap)  # the whole thing must serialise

    def test_storage_codec_metrics_recorded(self, db):
        # pulled from the store's own stats; codec time is a span counter
        db.persist("M", stride=[4, 4])
        db.restore("M")
        counters = db.metrics_snapshot()["counters"]
        stats = db.storage.total_stats()
        assert counters["storage.buckets_written"] == stats["buckets_written"] > 0
        assert counters["storage.buckets_read"] == stats["buckets_read"] > 0
        assert counters["storage.bytes_written"] == stats["bytes_written"] > 0

    def test_slow_query_log_captures_over_threshold(self, tmp_path):
        with use_flight_recorder(FlightRecorder()):
            db = SciDB(tmp_path, slow_query_ms=0.0)  # everything is "slow"
            db.execute("define array T (v = float) (I)")
            db.execute("create A as T [4]")
            db.execute("select subsample(A, I >= 1)")
            entries = db.slow_queries()
        assert entries
        assert entries[-1].statement == "select subsample(A, I >= 1)"
        assert entries[-1].total_ms >= 0

    def test_default_threshold_keeps_fast_queries_out(self, tmp_path):
        with use_flight_recorder(FlightRecorder()):
            db = SciDB(tmp_path)
            db.execute("define array T (v = float) (I)")
            # 100 ms default: a tiny statement must not land in the slow
            # list, but it is still counted.
            assert db.slow_queries() == []
            assert db.metrics_snapshot()["counters"]["query.statements"] == 1


class TestExplainTypedErrors:
    def test_empty_statement(self, db):
        with pytest.raises(ParseError):
            db.explain("")

    def test_garbage_statement(self, db):
        with pytest.raises(ParseError):
            db.explain("select ] [ nonsense")

    def test_unknown_array(self, db):
        with pytest.raises(PlanError):
            db.explain("select subsample(Nope, I >= 2)")

    def test_non_statement_object(self, db):
        with pytest.raises(PlanError):
            db.explain(42)
        with pytest.raises(PlanError):
            db.explain(None)


class TestGridStatusInExplain:
    """Elastic-operations context rides along with every explain."""

    def test_quiescent_grid_reports_nothing(self, grid_db):
        rep = grid_db.explain("select subsample(D, x >= 2)")
        assert rep.grid_status == {}
        assert "rebalance" not in rep.render()

    def test_completed_rebalance_surfaces(self, grid_db):
        from repro.cluster import ConsistentHashPartitioner

        grid = grid_db.grid()
        report = grid.rebalance(
            "D", ConsistentHashPartitioner(4),
            max_transfer_cells_per_tick=32,
        )
        assert not report.aborted
        rep = grid_db.explain("select subsample(D, x >= 2)")
        status = rep.grid_status["rebalance"]
        assert status["active"] == []
        (done,) = status["completed"]
        assert done["array"] == "D" and not done["aborted"]
        assert status["cells_moved"] == done["cells_moved"]
        text = rep.render()
        assert "rebalance: 1 completed" in text
        assert "throttle hits" in text

    def test_active_migration_shows_progress(self, grid_db):
        from repro.cluster import ConsistentHashPartitioner

        grid = grid_db.grid()
        rb = grid.start_rebalance(
            "D", ConsistentHashPartitioner(4, seed=1),
            max_transfer_cells_per_tick=8,
        )
        rb.tick()
        rep = grid_db.explain("select subsample(D, x >= 2)")
        (active,) = rep.grid_status["rebalance"]["active"]
        assert active["array"] == "D"
        assert active["cells_moved"] > 0
        assert active["cells_remaining"] > 0
        text = rep.render()
        assert "rebalance[D]:" in text
        assert "remaining" in text
        # Queries keep answering mid-migration, and the answer is the
        # same one the quiescent grid gives.
        assert not rb.run().aborted

    def test_rebuild_surfaces(self, grid_db):
        grid = grid_db.grid()
        grid.nodes[2].fail()
        grid.rebuild_node(2)
        rep = grid_db.explain("select subsample(D, x >= 2)")
        rebuilds = rep.grid_status["rebuilds"]
        assert rebuilds[-1]["node_id"] == 2
        assert "rebuilds: 1 node(s)" in rep.render()
