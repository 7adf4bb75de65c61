"""E2 + E23: structural operators are data-agnostic → optimizable
(Section 2.2.1).

Three instances of the same principle:

* **planner pushdown** — ``subsample(filter(A))`` is rewritten to
  ``filter(subsample(A))``, shrinking the expensive per-cell predicate's
  input (measured via the executor's cells_examined counter and time);
* **R-tree bucket pruning** — a window scan over a persistent array reads
  only intersecting buckets, vs a full scan reading all of them;
* **statistics pruning (E23)** — per-bucket min/max statistics extend the
  promise to *value* predicates: a selective ``filter`` over a
  value-clustered grid array reads only the buckets whose range can
  match, vs the control arm ``PlannerConfig(enable_pruning=False)``.
"""

import statistics

import numpy as np
import pytest

from repro import SciDB, define_array
from repro.bench.harness import measure, ratio
from repro.cluster import HashPartitioner
from repro.query import Executor, Planner, PlannerConfig, array, attr, dim
from repro.storage.loader import LoadRecord
from repro.storage.manager import PersistentArray
from benchmarks.conftest import dense_2d

SIDE = 96


@pytest.fixture(scope="module")
def query_node():
    return (
        array("A")
        .filter(attr("v") > 0.0)
        .subsample((dim("x") >= 81) & (dim("y") >= 81))
        .node
    )


def fresh_executor(pushdown: bool):
    ex = Executor(planner=Planner(PlannerConfig(enable_pushdown=pushdown)))
    ex.register("A", dense_2d(SIDE, seed=0))
    return ex


class TestPlannerPushdown:
    def test_pushdown_enabled(self, benchmark, query_node):
        ex = fresh_executor(True)
        result = benchmark(lambda: ex.run(query_node))
        assert result.array.bounds == (16, 16)

    def test_pushdown_disabled(self, benchmark, query_node):
        ex = fresh_executor(False)
        result = benchmark(lambda: ex.run(query_node))
        assert result.array.bounds == (16, 16)

    def test_cells_examined_shrink(self, benchmark, query_node):
        opt = fresh_executor(True).run(query_node)
        naive = fresh_executor(False).run(query_node)
        assert opt.cells_examined == 16 * 16
        assert naive.cells_examined == SIDE * SIDE
        assert opt.array.content_equal(naive.array)
        benchmark(lambda: None)


@pytest.fixture(scope="module")
def persistent(tmp_path_factory):
    schema = define_array("E2", {"v": "float"}, ["x", "y"]).bind([512, 512])
    pa = PersistentArray(
        schema, tmp_path_factory.mktemp("e2"), memory_budget=1 << 30,
        stride=(64, 64),
    )
    rng = np.random.default_rng(1)
    for _ in range(4000):
        pa.append(
            (int(rng.integers(1, 513)), int(rng.integers(1, 513))),
            (float(rng.normal()),),
        )
    pa.flush()
    return pa


class TestBucketPruning:
    def test_window_scan_pruned(self, benchmark, persistent):
        out = benchmark(lambda: list(persistent.scan(((1, 1), (64, 64)))))
        assert all(c[0] <= 64 and c[1] <= 64 for c, _ in out)

    def test_full_scan(self, benchmark, persistent):
        out = benchmark(lambda: list(persistent.scan()))
        assert len(out) > 0

    def test_pruning_reads_fewer_buckets(self, benchmark, persistent):
        total = persistent.bucket_count()
        before = persistent.stats.buckets_read
        list(persistent.scan(((1, 1), (64, 64))))
        window_reads = persistent.stats.buckets_read - before
        before = persistent.stats.buckets_read
        list(persistent.scan())
        full_reads = persistent.stats.buckets_read - before
        assert full_reads == total
        assert window_reads <= max(1, total // 8)
        benchmark(lambda: None)


E23_SIDE = 96
E23_STRIDE = (8, 8)
UNPRUNED = PlannerConfig(enable_pruning=False)


@pytest.fixture(scope="module")
def clustered(tmp_path_factory):
    """``flux = x*side + y`` on a 4-node grid: bucket min/max ranges are
    tight and disjoint along x, the shape time-monotone telescope data
    approximates.  Chunk caches are off so a bucket read is a real decode."""
    db = SciDB(tmp_path_factory.mktemp("e23"))
    grid = db.create_grid("g", n_nodes=4, parallelism=4, chunk_cache_bytes=0)
    schema = define_array("sky", {"flux": "float"}, ["x", "y"]).bind(
        [E23_SIDE, E23_SIDE]
    )
    arr = grid.create_array(
        "sky", schema, HashPartitioner(4), stride=E23_STRIDE
    )
    arr.load(
        LoadRecord((x, y), (float(x * E23_SIDE + y),))
        for x in range(1, E23_SIDE + 1)
        for y in range(1, E23_SIDE + 1)
    )
    db.executor.register("sky", arr)
    # Matches exactly the last stride-row of x: 8/96 of the cells and,
    # because flux is clustered, the same fraction of the buckets.
    threshold = float((E23_SIDE - E23_STRIDE[0] + 1) * E23_SIDE)
    query = array("sky").filter(attr("flux") > threshold).node
    return db, grid, query


def buckets_read(grid):
    return sum(n.partition("sky").stats.buckets_read for n in grid.nodes)


class TestStatisticsPruning:
    def test_pruned_filter(self, benchmark, clustered):
        db, _, query = clustered
        result = benchmark(lambda: db.execute(query))
        assert result.value.count_present() == E23_STRIDE[0] * E23_SIDE

    def test_unpruned_filter(self, benchmark, clustered):
        db, _, query = clustered
        result = benchmark(lambda: db.execute(query, planner=UNPRUNED))
        assert result.value.count_present() == E23_STRIDE[0] * E23_SIDE

    def test_pruning_skips_buckets_and_time(self, benchmark, clustered):
        db, grid, query = clustered
        total = sum(n.partition("sky").bucket_count() for n in grid.nodes)
        before = buckets_read(grid)
        db.execute(query)
        pruned = buckets_read(grid) - before
        db.execute(query, planner=UNPRUNED)
        control = buckets_read(grid) - before - pruned
        estimated = db.explain(query).root.est_chunks
        # Both arms are warm by now.  Each round times the pair back to
        # back so machine drift lands on both; the median round is reported.
        speedup = statistics.median(
            ratio(
                measure(lambda: db.execute(query, planner=UNPRUNED),
                        repeats=1, warmup=0),
                measure(lambda: db.execute(query), repeats=1, warmup=0),
            )
            for _ in range(9)
        )
        benchmark.extra_info.update(
            buckets_total=total, buckets_read_pruned=pruned,
            buckets_read_unpruned=control, est_chunks=estimated,
            speedup=speedup,
        )
        assert control == total
        assert pruned / total <= 0.10
        assert pruned / control <= 0.25
        assert estimated == pruned  # k=1: logical == physical buckets
        assert speedup >= 2.0
        benchmark(lambda: None)
