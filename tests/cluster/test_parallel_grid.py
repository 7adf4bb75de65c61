"""Parallel fan-out correctness: parallel == serial, degraded modes,
cache coherence under concurrency, and the fault-injected stress sweep.

The scheduler's contract is that a grid at ``parallelism=k`` returns
*exactly* what the serial grid returns, for every distributed operator —
results merged in partition order, failover and degraded behaviour
unchanged.  These tests run each operator on two identically-loaded grids
(parallelism 1 vs 8) and diff the answers — once as built, where both run
their partitions inline, and once with every site's reads slowed, where
the parallel grid's go through the pool — then stress the thread-safety
seams: concurrent queries against a shared grid, a node killed mid-query,
and a repartition racing a scan — with zero stale chunk-cache reads.
"""

import threading
import time

import numpy as np
import pytest

from repro import define_array
from repro.cluster import (
    BlockPartitioner,
    FaultInjector,
    Grid,
    HashPartitioner,
    HedgePolicy,
    QuorumError,
    RangePartitioner,
    ResiliencePolicy,
    readpath,
)
from repro.cluster.replication import DegradedResult
from repro.storage.loader import LoadRecord

N = 8
WINDOW = ((20, 20), (60, 70))


@pytest.fixture
def schema():
    return define_array("sky", {"flux": "float"}, ["x", "y"]).bind([100, 100])


def records(n, seed=0):
    rng = np.random.default_rng(seed)
    seen, out = set(), []
    while len(out) < n:
        c = (int(rng.integers(1, 101)), int(rng.integers(1, 101)))
        if c in seen:
            continue
        seen.add(c)
        out.append(LoadRecord(c, (float(rng.normal()),)))
    return out


def cells_of(arr_like):
    return {
        c: (None if cell is None else cell.values)
        for c, cell in arr_like.cells()
    }


class TestParallelSerialEquivalence:
    @staticmethod
    def grid(directory, parallelism, **kw):
        return Grid(N, directory, parallelism=parallelism, **kw)

    def loaded_pair(self, tmp_path, schema, recs, replication=2):
        """Two identically loaded grids: serial and parallel."""
        arrays = []
        for tag, par in (("serial", 1), ("parallel", 8)):
            grid = self.grid(
                tmp_path / tag, par, default_replication=replication
            )
            arr = grid.create_array("sky", schema, HashPartitioner(N))
            arr.load(recs)
            arrays.append(arr)
        return arrays

    def test_grid_default_parallelism(self, tmp_path):
        assert Grid(N, tmp_path / "a").parallelism == 8
        assert Grid(2, tmp_path / "b").parallelism == 2
        assert Grid(16, tmp_path / "c").parallelism == 8
        # Fault-drill grids keep the full width too (a slow-read drill
        # fans out over it): the injector is thread-safe with keyed
        # randomness.
        assert Grid(N, tmp_path / "d",
                    fault_injector=FaultInjector(seed=1)).parallelism == 8
        assert Grid(N, tmp_path / "e", parallelism=4,
                    fault_injector=FaultInjector(seed=1)).parallelism == 4

    def test_scan_identical(self, tmp_path, schema):
        serial, parallel = self.loaded_pair(tmp_path, schema, records(200))
        assert list(serial.scan()) == list(parallel.scan())

    def test_subsample_identical(self, tmp_path, schema):
        serial, parallel = self.loaded_pair(tmp_path, schema, records(200))
        assert cells_of(serial.subsample(WINDOW)) == cells_of(
            parallel.subsample(WINDOW)
        )

    @pytest.mark.parametrize("agg", ["sum", "avg", "min", "max", "count"])
    def test_aggregate_bit_identical(self, tmp_path, schema, agg):
        serial, parallel = self.loaded_pair(tmp_path, schema, records(300))
        a = serial.aggregate(["x"], agg)
        b = parallel.aggregate(["x"], agg)
        # Bit-identical (no approx): the partition-ordered merge gives the
        # same float accumulation order as the serial path.
        assert cells_of(a) == cells_of(b)

    def test_holistic_aggregate_identical(self, tmp_path, schema):
        from repro.core.udf import UserAggregate

        median = UserAggregate(
            name="median2",
            initial=lambda: [],
            transition=lambda s, v: s + [v],
            final=lambda s: float(np.median(s)) if s else 0.0,
        )
        serial, parallel = self.loaded_pair(tmp_path, schema, records(250))
        assert cells_of(serial.aggregate(["x"], median)) == cells_of(
            parallel.aggregate(["x"], median)
        )

    def test_sjoin_identical(self, tmp_path, schema):
        recs = records(150)
        other_schema = define_array(
            "cat", {"mag": "float"}, ["x", "y"]
        ).bind([100, 100])
        results = []
        for tag, par in (("serial", 1), ("parallel", 8)):
            grid = self.grid(tmp_path / tag, par, default_replication=2)
            left = grid.create_array("sky", schema, HashPartitioner(N))
            left.load(recs)
            right = grid.create_array("cat", other_schema, HashPartitioner(N))
            right.load([LoadRecord(r.coords, (abs(r.values[0]),))
                        for r in recs[::2]])
            results.append(cells_of(left.sjoin(right)))
        assert results[0] == results[1]

    def test_sjoin_shuffle_identical(self, tmp_path, schema):
        """Non-copartitioned operands force the shuffle path."""
        recs = records(120)
        other_schema = define_array(
            "cat", {"mag": "float"}, ["x", "y"]
        ).bind([100, 100])
        results = []
        for tag, par in (("serial", 1), ("parallel", 8)):
            grid = self.grid(tmp_path / tag, par)
            left = grid.create_array("sky", schema, HashPartitioner(N))
            left.load(recs)
            right = grid.create_array(
                "cat", other_schema,
                BlockPartitioner(N, bounds=[100, 100], blocks=[4, 2]),
            )
            right.load([LoadRecord(r.coords, (abs(r.values[0]),))
                        for r in recs[::3]])
            results.append(cells_of(left.sjoin(right)))
        assert results[0] == results[1]

    def test_filter_identical(self, tmp_path, schema):
        serial, parallel = self.loaded_pair(tmp_path, schema, records(200))
        a = serial.filter(lambda cell: cell.flux > 0, output_name="pos")
        b = parallel.filter(lambda cell: cell.flux > 0, output_name="pos")
        assert dict(a.scan()) == dict(b.scan())

    def test_apply_identical(self, tmp_path, schema):
        serial, parallel = self.loaded_pair(tmp_path, schema, records(200))
        a = serial.apply(lambda cell: cell.flux * 2, [("dbl", "float")],
                         output_name="dbl")
        b = parallel.apply(lambda cell: cell.flux * 2, [("dbl", "float")],
                           output_name="dbl")
        assert dict(a.scan()) == dict(b.scan())

    def test_regrid_identical(self, tmp_path, schema):
        serial, parallel = self.loaded_pair(tmp_path, schema, records(300))
        assert cells_of(serial.regrid([10, 10], "avg")) == cells_of(
            parallel.regrid([10, 10], "avg")
        )

    def test_repartition_identical(self, tmp_path, schema):
        serial, parallel = self.loaded_pair(tmp_path, schema, records(200))
        new_p = RangePartitioner(
            N, dim=0, boundaries=[12, 25, 37, 50, 62, 75, 87]
        )
        moved_a = serial.repartition(new_p)
        moved_b = parallel.repartition(new_p)
        assert moved_a == moved_b
        assert dict(serial.scan()) == dict(parallel.scan())

    def test_rebuild_node_identical(self, tmp_path, schema):
        reports = []
        datas = []
        for tag, par in (("serial", 1), ("parallel", 8)):
            grid = self.grid(tmp_path / tag, par, default_replication=2)
            arr = grid.create_array("sky", schema, HashPartitioner(N))
            arr.load(records(200))
            grid.nodes[2].fail()
            # Writes while down land only on survivors.
            arr.write((1, 1), (99.0,))
            arr.flush()
            report = grid.rebuild_node(2)
            reports.append(report)
            datas.append(dict(arr.scan()))
        assert datas[0] == datas[1]
        assert (reports[0].cells_from_replicas
                == reports[1].cells_from_replicas)


class TestLatencyParallelSerialEquivalence(TestParallelSerialEquivalence):
    """The same answers when every site's reads wait 1 ms, so the parallel
    grid's partition reads go through the scheduler's pool."""

    @staticmethod
    def grid(directory, parallelism, **kw):
        inj = FaultInjector(seed=0)
        grid = Grid(N, directory, parallelism=parallelism,
                    fault_injector=inj, **kw)
        for site in range(N):
            inj.set_slow_reads(site, 1.0)
        return grid


class TestLatencyDecidesThePool:
    """A statement's partition reads run on its own thread unless the
    grid's reads can wait (a slow-read fault or a hedge)."""

    @staticmethod
    def reading_threads(grid, schema, monkeypatch):
        seen = set()
        real = readpath.partition_blocks

        def spy(*args, **kwargs):
            seen.add(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(readpath, "partition_blocks", spy)
        arr = grid.create_array("sky", schema, HashPartitioner(N))
        arr.load(records(200))
        list(arr.scan())
        cells_of(arr.subsample(WINDOW))
        cells_of(arr.aggregate(["x"], "sum"))
        cells_of(arr.sjoin(arr))
        return seen

    def test_grid_without_waits_reads_on_the_calling_thread(
        self, tmp_path, schema, monkeypatch
    ):
        grid = Grid(N, tmp_path, parallelism=8, default_replication=2,
                    fault_injector=FaultInjector(seed=1))
        seen = self.reading_threads(grid, schema, monkeypatch)
        assert seen == {threading.get_ident()}

    @pytest.mark.parametrize("waits", ["slow_reads", "hedge"])
    def test_waiting_grid_reads_on_worker_threads(
        self, tmp_path, schema, monkeypatch, waits
    ):
        inj = FaultInjector(seed=1)
        hedge = HedgePolicy(delay_ms=50.0 if waits == "hedge" else None)
        grid = Grid(N, tmp_path, parallelism=8, default_replication=2,
                    fault_injector=inj, resilience=ResiliencePolicy(hedge=hedge))
        if waits == "slow_reads":
            inj.set_slow_reads(3, 1.0)
        seen = self.reading_threads(grid, schema, monkeypatch)
        assert seen and threading.get_ident() not in seen


class TestParallelFailover:
    def test_scan_fails_over_with_parallelism(self, tmp_path, schema):
        grid = Grid(N, tmp_path, parallelism=8, default_replication=2)
        arr = grid.create_array("sky", schema, HashPartitioner(N))
        recs = records(200)
        arr.load(recs)
        grid.nodes[3].fail()
        got = {c: cell.flux for c, cell in arr.scan()}
        assert got == {r.coords: r.values[0] for r in recs}
        assert grid.failover_log

    def test_quorum_error_deterministic_under_parallelism(
        self, tmp_path, schema
    ):
        grid = Grid(N, tmp_path, parallelism=8)  # replication=1
        arr = grid.create_array("sky", schema, HashPartitioner(N))
        arr.load(records(100))
        grid.nodes[2].fail()
        grid.nodes[5].fail()
        # The error surfaced is the first failing partition in index
        # order, regardless of which worker finished first.
        with pytest.raises(QuorumError, match="partition 2"):
            list(arr.scan())

    def test_degraded_subsample_under_parallelism(self, tmp_path, schema):
        grid = Grid(N, tmp_path, parallelism=8)
        arr = grid.create_array("sky", schema, HashPartitioner(N))
        recs = records(200)
        arr.load(recs)
        grid.nodes[4].fail()
        result = arr.subsample(((1, 1), (100, 100)), degraded=True)
        assert isinstance(result, DegradedResult)
        assert result.coverage.missing == (("sky", 4),)
        assert result.coverage.served_partitions == N - 1
        expect = {
            r.coords: r.values[0] for r in recs
            if arr.partitioner.site_of(r.coords) != 4
        }
        got = {
            c: cell.flux
            for c, cell in result.array.cells()
            if cell is not None
        }
        assert got == expect


class TestConcurrencyStress:
    """Mixed concurrent readers/writers, kills mid-query, repartition
    racing a scan — distributed results must always equal the local truth
    and never include a stale cached chunk."""

    def test_concurrent_readers_shared_grid(self, tmp_path, schema):
        grid = Grid(N, tmp_path, parallelism=8, default_replication=2)
        arr = grid.create_array("sky", schema, HashPartitioner(N))
        recs = records(300)
        arr.load(recs)
        truth = {r.coords: r.values[0] for r in recs}
        lo, hi = WINDOW
        wtruth = {
            c: v for c, v in truth.items()
            if all(l <= x <= h for x, l, h in zip(c, lo, hi))
        }
        errors = []

        def reader(i):
            try:
                for _ in range(3):
                    if i % 2 == 0:
                        got = {c: cell.flux for c, cell in arr.scan()}
                        assert got == truth
                    else:
                        sub = arr.subsample(WINDOW)
                        got = {
                            c: cell.flux for c, cell in sub.cells()
                            if cell is not None
                        }
                        assert got == wtruth
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

    def test_killed_node_mid_query_under_parallelism(self, tmp_path, schema):
        """A node dies while parallel workers are mid-gather (the kill
        fires on a metered transfer): every worker either read the primary
        before the kill or fails over to a surviving replica — the merged
        answer is complete either way."""
        inj = FaultInjector(seed=11)
        grid = Grid(
            N, tmp_path, fault_injector=inj, default_replication=2,
            parallelism=8,  # explicit opt-in: faults + parallel fan-out
        )
        arr = grid.create_array("sky", schema, HashPartitioner(N))
        recs = records(250)
        arr.load(recs)
        truth = {r.coords: r.values[0] for r in recs}
        # Fire 40 metered transfers into the gather (scan meters one
        # transfer per cell, so this lands mid-query).
        inj.schedule_kill(1, after=40)
        got = {c: cell.flux for c, cell in arr.scan()}
        assert got == truth
        assert not grid.nodes[1].alive

    def test_repartition_racing_scans(self, tmp_path, schema):
        """Windowed scans run while the main thread repartitions the array
        twice.  Mid-flight scans may legitimately race the catalog swap,
        so only cell *values* are checked: any coordinate a scan returns
        must carry the true value — a stale chunk-cache decode (old bucket
        file served for a reused bucket id) would surface here as a wrong
        value.
        """
        grid = Grid(N, tmp_path, parallelism=8, default_replication=2)
        arr = grid.create_array("sky", schema, HashPartitioner(N))
        recs = records(250)
        arr.load(recs)
        truth = {r.coords: r.values[0] for r in recs}
        stale = []
        stop = threading.Event()

        def scanner():
            while not stop.is_set():
                try:
                    sub = arr.subsample(WINDOW)
                    for c, cell in sub.cells():
                        if cell is not None and truth.get(c) != cell.flux:
                            stale.append((c, cell.flux))
                except Exception:
                    # Transient churn mid-repartition (failed reads while
                    # partitions move) is legal; stale *values* are not.
                    continue

        t = threading.Thread(target=scanner)
        t.start()
        try:
            new_p = RangePartitioner(
                N, dim=0, boundaries=[12, 25, 37, 50, 62, 75, 87]
            )
            arr.repartition(new_p)
            arr.repartition(HashPartitioner(N))
        finally:
            stop.set()
            t.join()
        assert stale == []
        # After the dust settles the data is exactly the truth.
        assert {c: cell.flux for c, cell in arr.scan()} == truth

    def test_concurrent_writes_and_reads(self, tmp_path, schema):
        grid = Grid(N, tmp_path, parallelism=8, default_replication=2)
        arr = grid.create_array("sky", schema, HashPartitioner(N))
        base = records(150)
        arr.load(base)
        extra = [r for r in records(150, seed=99)
                 if r.coords not in {b.coords for b in base}]
        errors = []

        def writer():
            try:
                for r in extra:
                    arr.write(r.coords, r.values)
                arr.flush()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def reader():
            try:
                base_truth = {r.coords: r.values[0] for r in base}
                for _ in range(4):
                    got = {c: cell.flux for c, cell in arr.scan()}
                    for c, v in base_truth.items():
                        assert got[c] == v  # loaded data never flickers
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        truth = {r.coords: r.values[0] for r in base + extra}
        assert {c: cell.flux for c, cell in arr.scan()} == truth


class TestExplainIntegration:
    SIDE = 12

    def make_db(self, tmp_path):
        from repro.database import SciDB

        db = SciDB(tmp_path)
        grid = db.create_grid(n_nodes=4, replication=2, parallelism=4)
        schema = define_array(
            "D", {"v": "float"}, ["x", "y"]
        ).bind([self.SIDE, self.SIDE])
        darr = grid.create_array("D", schema, HashPartitioner(4))
        darr.load(
            LoadRecord((x, y), (float(x * y),))
            for x in range(1, self.SIDE + 1)
            for y in range(1, self.SIDE + 1)
        )
        db.register("D", darr)
        return db

    def test_explain_reports_parallelism(self, tmp_path):
        db = self.make_db(tmp_path)
        rep = db.explain("select aggregate(D, {x}, sum(v))")
        agg = rep.root
        assert agg.distributed
        assert agg.parallelism == 4
        assert "parallelism=4" in rep.render()
        assert rep.reconciles()

    def test_explain_reports_cache_hit_ratio_when_hot(self, tmp_path):
        db = self.make_db(tmp_path)
        # Cold pass decodes every bucket and populates the node caches...
        db.execute("select aggregate(D, {x}, sum(v))")
        # ...so the explained (hot) pass serves decodes from cache.
        rep = db.explain("select aggregate(D, {x}, sum(v))")
        agg = rep.root
        assert agg.cache_hits > 0
        assert agg.cache_hit_ratio is not None
        assert agg.cache_hit_ratio > 0.5
        assert "cache_hit_ratio" in rep.render()

    def test_metrics_snapshot_includes_parallelism_and_cache(self, tmp_path):
        grid = Grid(4, tmp_path, parallelism=3)
        snap = grid.metrics_snapshot()
        assert snap["parallelism"] == 3
        assert all(n["chunk_cache"] is not None for n in snap["nodes"])
        assert all(
            "budget_bytes" in n["chunk_cache"] for n in snap["nodes"]
        )


class TestSlowReadLatencyOverlaps:
    """Injected slow reads are real (GIL-releasing) sleeps inside each
    partition fetch, so the scheduler overlaps them exactly as it would
    network round trips — measurable even on a single-core box."""

    @staticmethod
    def slow_grid(directory, parallelism, penalty_ms):
        inj = FaultInjector(seed=0)
        grid = Grid(N, directory, parallelism=parallelism, fault_injector=inj)
        for site in range(N):
            inj.set_slow_reads(site, penalty_ms)
        return grid

    def test_parallel_fetches_overlap(self, tmp_path, schema):
        recs = records(40)
        times = {}
        for par in (1, 8):
            grid = self.slow_grid(tmp_path / str(par), par, 25.0)
            arr = grid.create_array("sky", schema, HashPartitioner(N))
            arr.load(recs)
            times[par] = min(
                _timed(lambda: list(arr.scan())) for _ in range(3)
            )
        # Eight 25 ms waits overlapped by the pool must beat eight in a
        # row by a wide margin (generous bound: CI boxes are noisy).
        assert times[8] < times[1] * 0.6
        assert times[1] >= 8 * 0.025

    def test_results_identical_with_latency_on(self, tmp_path, schema):
        recs = records(60, seed=9)
        plain = Grid(N, tmp_path / "plain", parallelism=8)
        slow = self.slow_grid(tmp_path / "slow", 8, 5.0)
        got = []
        for grid in (plain, slow):
            arr = grid.create_array("sky", schema, HashPartitioner(N))
            arr.load(recs)
            got.append(
                {c: cell.values for c, cell in arr.scan()}
            )
        assert got[0] == got[1]


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
