"""Fault-injection tests: deterministic kills, mid-query failover,
degraded reads, and WAL-driven node rebuild (Section 2.7's grid
requirement meeting the reality that node failure is the common case)."""

import numpy as np
import pytest

from repro import define_array
from repro.core.errors import QuorumError
from repro.cluster import (
    BlockPartitioner,
    CoverageReport,
    DegradedResult,
    FaultInjector,
    Grid,
    HashPartitioner,
)
from repro.storage.loader import LoadRecord

N = 4
WINDOW = ((1, 1), (100, 100))


def records(n, seed=0, value_scale=1.0, ybounds=(1, 101)):
    rng = np.random.default_rng(seed)
    seen, out = set(), []
    while len(out) < n:
        c = (int(rng.integers(1, 101)), int(rng.integers(*ybounds)))
        if c in seen:
            continue
        seen.add(c)
        out.append(LoadRecord(c, (float(rng.normal()) * value_scale,)))
    return out


def schema(name="sky", attr="flux"):
    return define_array(name, {attr: "float"}, ["x", "y"]).bind([100, 100])


def loaded_grid(tmp_path, sub, injector=None, k=2, n_records=120):
    grid = Grid(N, tmp_path / sub, fault_injector=injector)
    arr = grid.create_array("sky", schema(), HashPartitioner(N), replication=k)
    arr.load(records(n_records))
    return grid, arr


class TestInjectorDeterminism:
    def test_same_seed_same_fault_sequence(self, tmp_path):
        runs = []
        for sub in ("a", "b"):
            inj = FaultInjector(seed=42, drop_rate=0.3)
            grid, arr = loaded_grid(tmp_path, sub, inj)
            runs.append(
                (
                    [(e.kind, e.tick, e.target) for e in inj.events],
                    grid.ledger.dropped_bytes(),
                    sorted((c, cell.flux) for c, cell in arr.scan()),
                )
            )
        assert runs[0] == runs[1]

    def test_different_seed_different_drops(self, tmp_path):
        outcomes = set()
        for sub, seed in (("a", 1), ("b", 2)):
            inj = FaultInjector(seed=seed, drop_rate=0.3)
            loaded_grid(tmp_path, sub, inj)
            outcomes.add(tuple(e.tick for e in inj.events))
        assert len(outcomes) == 2

    def test_scheduled_kill_fires_on_tick(self, tmp_path):
        inj = FaultInjector(seed=0)
        grid = Grid(N, tmp_path, fault_injector=inj)
        arr = grid.create_array("sky", schema(), HashPartitioner(N),
                                replication=2)
        inj.schedule_kill(1, after=10)
        arr.load(records(50))
        assert not grid.nodes[1].alive
        (event,) = [e for e in inj.events if e.kind == "node_kill"]
        assert event.tick == 10 and event.target == 1

    def test_corruption_observable(self, tmp_path):
        inj = FaultInjector(seed=5, corrupt_rate=1.0)
        grid, arr = loaded_grid(tmp_path, "c", inj, k=1, n_records=20)
        assert inj.counts().get("transfer_corrupt") == 20
        # Every float arrived negated relative to what was sent.
        sent = {r.coords: r.values[0] for r in records(20)}
        for coords, cell in arr.scan():
            assert cell.flux == pytest.approx(-sent[coords])


class TestFailoverReads:
    """The acceptance bar: k=2 plus a seeded single-node crash mid-query
    must leave subsample, aggregate, and sjoin byte-identical to the
    fault-free run."""

    def test_subsample_identical_after_midquery_crash(self, tmp_path):
        _, healthy = loaded_grid(tmp_path, "ok")
        expected = healthy.subsample(WINDOW)

        inj = FaultInjector(seed=7)
        grid, arr = loaded_grid(tmp_path, "hurt", inj)
        # Fires two gather transfers into the scan: node 0 dies while its
        # own partition is being read, discarding the partial read.
        inj.schedule_kill(0, after=2)
        got = arr.subsample(WINDOW)
        assert not grid.nodes[0].alive
        assert got.content_equal(expected)
        assert grid.failover_log  # the retry was recorded

    def test_aggregate_identical_after_midquery_crash(self, tmp_path):
        _, healthy = loaded_grid(tmp_path, "ok")
        expected = healthy.aggregate(["x"], "sum")

        inj = FaultInjector(seed=7)
        grid, arr = loaded_grid(tmp_path, "hurt", inj)
        inj.schedule_kill(2, after=1)  # dies on the first partial shipped
        got = arr.aggregate(["x"], "sum")
        assert not grid.nodes[2].alive
        assert got.content_equal(expected)

    def test_aggregate_not_inflated_by_replicas(self, tmp_path):
        """Replicated cells must be aggregated exactly once."""
        _, k1 = loaded_grid(tmp_path, "k1", k=1)
        _, k3 = loaded_grid(tmp_path, "k3", k=3)
        assert k3.aggregate(["x"], "sum").content_equal(
            k1.aggregate(["x"], "sum")
        )
        assert k3.aggregate(["y"], "count").content_equal(
            k1.aggregate(["y"], "count")
        )

    def test_sjoin_identical_after_midquery_crash(self, tmp_path):
        def build(sub, injector=None):
            grid = Grid(N, tmp_path / sub, fault_injector=injector)
            p = BlockPartitioner(N, bounds=[100, 100], blocks=[2, 2])
            a = grid.create_array("sky", schema(), p, replication=2)
            b = grid.create_array("cat", schema("cat", "mag"), p, replication=2)
            recs = records(80, seed=3)
            a.load(recs)
            b.load([LoadRecord(r.coords, (2.0 * r.values[0],)) for r in recs])
            return grid, a, b

        _, a0, b0 = build("ok")
        expected = a0.sjoin(b0)

        inj = FaultInjector(seed=9)
        grid, a1, b1 = build("hurt", inj)
        inj.schedule_kill(1, after=1)  # dies during the join's first gather
        got = a1.sjoin(b1)
        assert not grid.nodes[1].alive
        assert got.content_equal(expected)
        assert grid.ledger.total_bytes("join_shuffle") == 0  # still local

    def test_kill_mid_load_loses_nothing_with_k2(self, tmp_path):
        inj = FaultInjector(seed=11)
        grid = Grid(N, tmp_path, fault_injector=inj)
        arr = grid.create_array("sky", schema(), HashPartitioner(N),
                                replication=2)
        recs = records(150, seed=4)
        inj.schedule_kill(3, after=40)  # mid-load
        arr.load(recs)
        assert not grid.nodes[3].alive
        got = {c: cell.flux for c, cell in arr.scan()}
        assert got == {r.coords: r.values[0] for r in recs}

    def test_unreplicated_read_raises_quorum_error(self, tmp_path):
        inj = FaultInjector(seed=0)
        grid, arr = loaded_grid(tmp_path, "k1", inj, k=1)
        inj.kill(2)
        with pytest.raises(QuorumError):
            arr.subsample(WINDOW)

    def test_two_failures_with_k2_raise_quorum_error(self, tmp_path):
        inj = FaultInjector(seed=0)
        grid, arr = loaded_grid(tmp_path, "k2", inj, k=2)
        inj.kill(1)
        inj.kill(2)  # chained chain (1, 2) fully dead
        with pytest.raises(QuorumError):
            arr.aggregate(["x"], "sum")

    def test_backoff_is_deterministic_capped_and_jittered(self, tmp_path):
        inj = FaultInjector(seed=0)
        grid, arr = loaded_grid(tmp_path, "k1", inj, k=1)
        inj.kill(0)
        with pytest.raises(QuorumError):
            arr.subsample(WINDOW)
        events = [e for e in grid.failover_log if e.partition == 0]
        policy = grid.resilience.retry
        # Recorded backoff is exactly what the policy charges: capped
        # exponential with seeded jitter keyed on (array, partition).
        assert [e.backoff_ms for e in events] == [
            policy.backoff_ms(e.attempt, key=(e.array, e.partition))
            for e in events
        ]
        for e in events:
            base = policy.backoff_base_ms * 2 ** (e.attempt - 1)
            assert base <= e.backoff_ms <= min(
                base * (1 + policy.jitter_frac), policy.backoff_max_ms
            )
        assert len(events) == policy.max_attempts

    def test_backoff_never_exceeds_cap(self, tmp_path):
        inj = FaultInjector(seed=0)
        grid, arr = loaded_grid(tmp_path, "k1", inj, k=1)
        policy = grid.resilience.retry
        # Attempt counts far past the doubling range stay at the ceiling
        # (the old unbounded formula overflowed semantically here).
        assert policy.backoff_ms(60, key=("sky", 0)) == policy.backoff_max_ms


class TestDegradedMode:
    def test_subsample_partial_with_coverage(self, tmp_path):
        inj = FaultInjector(seed=0)
        grid, arr = loaded_grid(tmp_path, "g", inj, k=1)
        inj.kill(2)
        result = arr.subsample(WINDOW, degraded=True)
        assert isinstance(result, DegradedResult)
        assert result.coverage == CoverageReport(N, (("sky", 2),))
        assert result.coverage.fraction == pytest.approx(0.75)
        assert not result.coverage.complete
        # Every returned cell comes from a surviving partition.
        for coords, _ in result.array.cells():
            assert arr.partitioner.site_of(coords) != 2

    def test_degraded_is_complete_when_replicas_cover(self, tmp_path):
        inj = FaultInjector(seed=0)
        grid, arr = loaded_grid(tmp_path, "g", inj, k=2)
        inj.kill(2)
        result = arr.subsample(WINDOW, degraded=True)
        assert result.coverage.complete
        assert result.coverage.fraction == 1.0

    def test_degraded_aggregate_skips_lost_partition(self, tmp_path):
        inj = FaultInjector(seed=0)
        grid, arr = loaded_grid(tmp_path, "g", inj, k=1)
        inj.kill(1)
        result = arr.aggregate(["x"], "count", degraded=True)
        assert isinstance(result, DegradedResult)
        assert result.coverage.missing == (("sky", 1),)
        total = sum(cell.count for _, cell in result.array.cells()
                    if cell is not None)
        assert 0 < total < 120

    def test_degraded_sjoin_reports_both_sides(self, tmp_path):
        inj = FaultInjector(seed=0)
        grid = Grid(N, tmp_path, fault_injector=inj)
        p = BlockPartitioner(N, bounds=[100, 100], blocks=[2, 2])
        a = grid.create_array("sky", schema(), p)
        b = grid.create_array("cat", schema("cat", "mag"), p)
        recs = records(60, seed=5)
        a.load(recs)
        b.load([LoadRecord(r.coords, (1.0,)) for r in recs])
        inj.kill(3)
        result = a.sjoin(b, degraded=True)
        assert isinstance(result, DegradedResult)
        assert ("sky", 3) in result.coverage.missing
        assert result.array.count_occupied() > 0


class TestNodeRebuild:
    def test_rebuild_from_wal_restores_contents(self, tmp_path):
        inj = FaultInjector(seed=0)
        grid, arr = loaded_grid(tmp_path, "g", inj, k=2)
        before = {c: cell.flux for c, cell in arr.scan()}
        inj.kill(1)
        report = grid.rebuild_node(1)
        assert grid.nodes[1].alive
        assert report.cells_from_wal > 0
        assert report.cells_from_replicas == 0  # WAL already had everything
        after = {c: cell.flux for c, cell in arr.scan()}
        assert after == before

    def test_rebuild_fetches_writes_missed_while_down(self, tmp_path):
        inj = FaultInjector(seed=0)
        grid = Grid(N, tmp_path, fault_injector=inj)
        arr = grid.create_array("sky", schema(), HashPartitioner(N),
                                replication=2)
        # Disjoint coordinate ranges: loads are no-overwrite (Section 2.5),
        # so the late batch never re-addresses a cell the WAL already has.
        early = records(60, seed=0, ybounds=(1, 51))
        late = records(40, seed=99, ybounds=(51, 101))
        arr.load(early)
        inj.kill(1)
        arr.load(late)  # node 1's copies of these are dropped
        missed = sum(
            1 for r in late if 1 in arr.replica_sites(r.coords)
        )
        assert missed > 0
        report = grid.rebuild_node(1)
        assert report.cells_from_replicas == missed
        assert report.bytes_moved == missed * arr.cell_nbytes
        assert grid.ledger.total_bytes("rebuild") == report.bytes_moved
        # The rebuilt node now serves reads again, with full contents.
        got = {c: cell.flux for c, cell in arr.scan()}
        want = {r.coords: r.values[0] for r in early + late}
        assert got == want

    def test_rebuild_heals_torn_wal_from_replicas(self, tmp_path):
        inj = FaultInjector(seed=0)
        grid, arr = loaded_grid(tmp_path, "g", inj, k=2, n_records=50)
        node = grid.nodes[0]
        full = node.cell_count("sky")
        torn = inj.tear_wal_tail(node)  # crash mid-append
        assert torn > 0
        inj.kill(0)
        report = grid.rebuild_node(0)
        # The torn record's cell came back over the wire instead.
        assert report.cells_from_wal == full - 1
        assert report.cells_from_replicas == 1
        assert node.cell_count("sky") == full
        got = {c: cell.flux for c, cell in arr.scan()}
        assert got == {r.coords: r.values[0] for r in records(50)}

    def test_aborted_rebuild_leaves_node_down(self, tmp_path):
        """A damaged WAL aborts the rebuild — the node must not come back
        up half-empty pretending to be healthy."""
        from repro.core.errors import StorageError

        inj = FaultInjector(seed=0)
        grid, arr = loaded_grid(tmp_path, "g", inj, k=2)
        node = grid.nodes[2]
        node.wal.commit()
        lines = node.wal.path.read_text().splitlines(True)
        lines[1] = "garbage\n"  # mid-log corruption, not a torn tail
        node.wal.path.write_text("".join(lines))
        inj.kill(2)
        with pytest.raises(StorageError):
            grid.rebuild_node(2)
        assert not grid.nodes[2].alive
        # Replicas still cover everything: reads stay exact.
        assert sum(1 for _ in arr.scan()) == 120

    def test_rebuild_is_deterministic(self, tmp_path):
        reports = []
        for sub in ("a", "b"):
            inj = FaultInjector(seed=0)
            grid, arr = loaded_grid(tmp_path, sub, inj, k=2)
            inj.kill(2)
            arr.load(records(30, seed=50))
            reports.append(grid.rebuild_node(2))
        assert reports[0] == reports[1]


class TestFilterApplyUnderFailure:
    def test_filter_complete_from_replicas(self, tmp_path):
        inj = FaultInjector(seed=0)
        grid, arr = loaded_grid(tmp_path, "g", inj, k=2)
        expected = {
            c: cell.flux for c, cell in arr.scan()
            if cell is not None and cell.flux > 0.0
        }
        inj.kill(0)
        out = arr.filter(lambda c: c.flux > 0.0)
        got = {
            c: cell.flux for c, cell in out.scan() if cell is not None
        }
        assert got == expected

    def test_filter_raises_when_partition_lost(self, tmp_path):
        inj = FaultInjector(seed=0)
        grid, arr = loaded_grid(tmp_path, "g", inj, k=1)
        inj.kill(0)
        with pytest.raises(QuorumError):
            arr.filter(lambda c: True)
