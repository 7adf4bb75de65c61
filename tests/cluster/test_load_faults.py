"""Fault-tolerant checkpointed ingest on the replicated grid (Sections
2.7 + 2.8): crash/resume determinism, mid-load failover, transient I/O
retries, and WAL-driven cursor recovery.
"""

import os

import numpy as np
import pytest

from repro import define_array
from repro.core.errors import IngestError, LoadInterrupted, QuorumError
from repro.cluster import FaultInjector, Grid, HashPartitioner
from repro.storage.loader import LoadRecord

pytestmark = pytest.mark.tier1

N = 4
SIDE = 100


def records(n, seed=0):
    rng = np.random.default_rng(seed)
    seen, out = set(), []
    while len(out) < n:
        c = (int(rng.integers(1, SIDE + 1)), int(rng.integers(1, SIDE + 1)))
        if c in seen:
            continue
        seen.add(c)
        out.append(LoadRecord(c, (float(rng.normal()),), offset=len(out)))
    return out


def schema():
    return define_array("sky", {"flux": "float"}, ["x", "y"]).bind(
        [SIDE, SIDE]
    )


def build(directory, injector=None, k=2):
    grid = Grid(N, directory, fault_injector=injector)
    arr = grid.create_array("sky", schema(), HashPartitioner(N), replication=k)
    return grid, arr


def cells_of(arr):
    return sorted(
        (c, tuple(cell.values))
        for c, cell in arr.materialize().cells(include_null=False)
    )


def ground_truth(recs):
    return sorted((r.coords, tuple(r.values)) for r in recs)


class TestCheckpointedGridLoad:
    def test_fresh_load_matches_plain_load(self, tmp_path):
        recs = records(200)
        grid, arr = build(tmp_path / "ck")
        report = arr.load_checkpointed(iter(recs), batch_size=25)
        assert report.records_loaded == 200
        assert report.records_skipped == 0
        assert report.batches_replayed == 0
        assert cells_of(arr) == ground_truth(recs)

    def test_checkpoint_commits_survive_on_every_replica(self, tmp_path):
        recs = records(120)
        grid, arr = build(tmp_path / "chain", k=3)
        arr.load_checkpointed(iter(recs), batch_size=30)
        # Every logical partition's chain agrees on its substream cursor.
        for p in range(N):
            chain = arr.partition_chain(p)
            cursors = {
                grid.nodes[s].partition("sky").load_cursor(f"0/p{p}")
                for s in chain
            }
            assert len(cursors) == 1
            assert cursors.pop() >= 0

    def test_dirty_records_are_quarantined_not_fatal(self, tmp_path):
        recs = records(120)
        dirty = {
            7: LoadRecord((SIDE + 7, 1), (1.0,), offset=7),
            40: LoadRecord((1, 2, 3), (1.0,), offset=40),
            99: LoadRecord(recs[99].coords, ("junk",), offset=99),
        }
        stream = [dirty.get(i, r) for i, r in enumerate(recs)]
        grid, arr = build(tmp_path / "dirty")
        report = arr.load_checkpointed(
            iter(stream), batch_size=32, tolerant=True
        )
        assert report.records_quarantined == len(dirty)
        assert report.records_loaded + report.records_quarantined == len(recs)
        assert list(report.quarantine.offsets()) == sorted(dirty)
        assert [r.reason for r in report.quarantine] == [
            "out_of_bounds", "bad_arity", "type_error",
        ]
        assert cells_of(arr) == ground_truth(
            r for i, r in enumerate(recs) if i not in dirty
        )


class TestCrashResume:
    """The acceptance scenario: deterministic crash, resume, identical."""

    def run_with_crash(self, tmp_path, crash_after, n=200, batch=25):
        recs = records(n)
        inj = FaultInjector(seed=11)
        inj.schedule_load_crash(after_records=crash_after)
        grid, arr = build(tmp_path, injector=inj)
        with pytest.raises(LoadInterrupted) as exc:
            arr.load_checkpointed(iter(recs), batch_size=batch)
        assert exc.value.epoch == 0
        # The crash fires while the Nth record is being consumed, so
        # N - 1 records completed before it.
        assert exc.value.batch_seq == (crash_after - 1) // batch
        resumed = arr.load_checkpointed(iter(recs), batch_size=batch)
        return grid, arr, recs, resumed

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.75])
    def test_resume_is_cell_for_cell_identical(self, tmp_path, fraction):
        n = 200
        grid, arr, recs, resumed = self.run_with_crash(
            tmp_path / f"crash{fraction}", crash_after=int(n * fraction), n=n
        )
        assert cells_of(arr) == ground_truth(recs)
        assert resumed.records_skipped > 0
        assert resumed.batches_replayed > 0
        # No duplicates: every replica holds each of its cells once.
        total = sum(node.cell_count("sky") for node in grid.nodes)
        assert total == 2 * n  # replication factor k=2

    def test_resume_savings_scale_with_crash_point(self, tmp_path):
        early = self.run_with_crash(tmp_path / "early", crash_after=50)[3]
        late = self.run_with_crash(tmp_path / "late", crash_after=150)[3]
        assert late.records_skipped > early.records_skipped

    def test_crash_is_deterministic_per_seed(self, tmp_path):
        a = self.run_with_crash(tmp_path / "a", crash_after=100)[3]
        b = self.run_with_crash(tmp_path / "b", crash_after=100)[3]
        assert a.summary() == b.summary()


class TestFailoverDuringLoad:
    def test_node_death_mid_load_fails_over(self, tmp_path):
        recs = records(200)
        inj = FaultInjector(seed=5)
        grid, arr = build(tmp_path / "fo", injector=inj)
        inj.schedule_kill(0, after=150)
        report = arr.load_checkpointed(iter(recs), batch_size=25)
        assert report.records_loaded == 200
        # Movement to the replacement serving site is metered separately.
        assert grid.ledger.total_bytes("load_failover") > 0
        assert len(grid.failover_log) > 0
        assert cells_of(arr) == ground_truth(recs)

    def test_dead_chain_raises_quorum_error(self, tmp_path):
        recs = records(60)
        inj = FaultInjector(seed=5)
        grid, arr = build(tmp_path / "dead", injector=inj, k=1)
        inj.kill(0)
        with pytest.raises(QuorumError):
            arr.load_checkpointed(iter(recs), batch_size=20)


class TestTransientIO:
    def test_bursts_absorbed_by_bounded_retries(self, tmp_path):
        recs = records(80)
        inj = FaultInjector(seed=7)
        grid, arr = build(tmp_path / "io", injector=inj)
        inj.schedule_transient_io(1, failures=2)
        report = arr.load_checkpointed(iter(recs), batch_size=20)
        assert report.records_loaded == 80
        assert report.records_retried >= 2
        assert report.backoff_ms > 0.0
        assert inj.counts().get("io_transient", 0) == 2
        assert cells_of(arr) == ground_truth(recs)

    def test_persistent_fault_exhausts_retries(self, tmp_path):
        recs = records(40)
        inj = FaultInjector(seed=7)
        grid, arr = build(tmp_path / "io2", injector=inj)
        inj.schedule_transient_io(1, failures=500)
        with pytest.raises(IngestError):
            arr.load_checkpointed(iter(recs), batch_size=20, max_retries=2)

    def test_slow_site_latency_is_charged_not_slept(self, tmp_path):
        recs = records(60)
        inj = FaultInjector(seed=7)
        grid, arr = build(tmp_path / "slow", injector=inj)
        inj.set_slow_site(2, penalty_ms=0.5)
        report = arr.load_checkpointed(iter(recs), batch_size=20)
        assert report.store_latency_ms > 0.0
        assert report.records_loaded == 60


class TestWalCursorRecovery:
    def test_rebuild_restores_load_cursors(self, tmp_path):
        recs = records(120)
        inj = FaultInjector(seed=3)
        grid, arr = build(tmp_path / "wal", injector=inj)
        arr.load_checkpointed(iter(recs), batch_size=30)
        inj.kill(1)
        report = grid.rebuild_node(1)
        assert report.load_cursors_restored > 0
        # The restored cursors still dedup a replayed stream.
        resumed = arr.load_checkpointed(iter(recs), batch_size=30)
        assert resumed.records_loaded == 0
        assert resumed.records_skipped == 120
        assert cells_of(arr) == ground_truth(recs)


class TestWalCommit:
    """A grid batch commits in the node's WAL; buckets form once per node
    at the end of the load, stride-aligned over everything it buffered."""

    def test_a_load_spills_once_per_node(self, tmp_path):
        recs = records(256)
        grid = Grid(N, tmp_path / "spill")
        arr = grid.create_array(
            "sky", schema(), HashPartitioner(N), stride=(25, 25),
            replication=2,
        )
        before = [node.partition("sky").stats.snapshot() for node in grid.nodes]
        arr.load_checkpointed(iter(recs), batch_size=64)
        boxes = [set() for _ in grid.nodes]
        for r in recs:
            for site in arr.replica_sites(r.coords):
                boxes[site].add(tuple((c - 1) // 25 for c in r.coords))
        for node, was, touched in zip(grid.nodes, before, boxes):
            now = node.partition("sky").stats.snapshot()
            assert now["spills"] - was["spills"] == 1
            assert 0 < now["buckets_written"] - was["buckets_written"] <= len(touched)
            # four batches, committed for each of the k=2 chains it is on
            assert now["load_batches"] - was["load_batches"] == 4 * 2

    def test_buffered_commits_come_back_from_the_truncated_wal(self, tmp_path):
        batch, killed = 25, 1
        recs = records(200)
        inj = FaultInjector(seed=13)
        grid, arr = build(tmp_path / "buffered", injector=inj, k=1)
        inj.schedule_kill(killed, after=120)
        with pytest.raises(QuorumError):
            arr.load_checkpointed(iter(recs), batch_size=batch)
        node = grid.nodes[killed]
        assert not node.alive
        # Every committed cell of the dead node is buffered and WAL-logged
        # only: no bucket file was written.
        assert node.storage.get_array("sky").stats.spills == 0
        assert not list(node.directory.glob("*/bucket_*.bkt"))
        cursors = {
            p: grid.nodes[p].storage.get_array("sky").load_cursor(f"0/p{p}")
            for p in arr.partitions()
        }
        assert cursors[killed] >= 0
        # The crash keeps the log up to its last acknowledged commit, which
        # reached the file when it was acknowledged.
        on_disk = node.wal.path.stat().st_size
        node.wal.commit()
        raw = node.wal.path.read_bytes()
        acked = raw.index(b"\n", raw.rindex(b'"op": "load_commit"')) + 1
        assert on_disk >= acked
        os.truncate(node.wal.path, acked)

        report = grid.rebuild_node(killed)
        assert report.cells_from_replicas == 0  # k=1: the WAL alone
        have = {
            c: tuple(cell.values) for c, cell in node.scan_partition("sky")
        }
        assert have == {
            r.coords: tuple(r.values) for i, r in enumerate(recs)
            if arr.partitioner.site_of(r.coords) == killed
            and i // batch <= cursors[killed]
        }
        assert node.partition("sky").load_cursor(f"0/p{killed}") == cursors[killed]

        committed = [
            i for i, r in enumerate(recs)
            if i // batch <= cursors[arr.partitioner.site_of(r.coords)]
        ]
        resumed = arr.load_checkpointed(iter(recs), batch_size=batch)
        assert resumed.records_skipped == len(committed)
        assert resumed.batches_replayed == len({
            (i // batch, arr.partitioner.site_of(recs[i].coords))
            for i in committed
        })
        assert cells_of(arr) == ground_truth(recs)
