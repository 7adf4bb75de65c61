"""E7: co-partitioning eliminates join data movement (Section 2.7).

"Such arrays would all be partitioned the same way, so that comparison
operations including joins do not require data movement."  Measured: the
bytes shuffled by a full-dimension Sjoin of two distributed arrays when
they are co-partitioned (zero) vs independently partitioned (every
misplaced right-hand cell crosses the wire), plus the uncertain-join
variant where boundary replication (Section 2.13) keeps even error-laden
positions join-local.
"""

import numpy as np
import pytest

from repro import PositionUncertainty, define_array
from repro.cluster import BlockPartitioner, Grid, HashPartitioner
from repro.storage.loader import LoadRecord

N_NODES = 4
SIDE = 100
N_CELLS = 600


def schema(name, attr):
    return define_array(name, {attr: "float"}, ["x", "y"]).bind([SIDE, SIDE])


def records(seed):
    rng = np.random.default_rng(seed)
    seen, out = set(), []
    while len(out) < N_CELLS:
        c = (int(rng.integers(1, SIDE + 1)), int(rng.integers(1, SIDE + 1)))
        if c not in seen:
            seen.add(c)
            out.append(LoadRecord(c, (float(rng.normal()),)))
    return out


def block_scheme():
    return BlockPartitioner(N_NODES, bounds=[SIDE, SIDE], blocks=[2, 2])


class TestJoinMovement:
    def test_copartitioned_join(self, benchmark, tmp_path):
        grid = Grid(N_NODES, tmp_path / "co")
        scheme = block_scheme()  # one partitioner: co-partitioned
        a = grid.create_array("sky", schema("Sky", "flux"), scheme)
        b = grid.create_array("cat", schema("Cat", "mag"), scheme)
        recs = records(0)
        a.load(recs)
        b.load([LoadRecord(r.coords, (2.0,)) for r in recs])
        grid.ledger.reset()
        out = benchmark(lambda: a.sjoin(b))
        assert grid.ledger.total_bytes("join_shuffle") == 0
        assert out.count_occupied() == N_CELLS

    def test_independent_join(self, benchmark, tmp_path):
        grid = Grid(N_NODES, tmp_path / "ind")
        a = grid.create_array("sky", schema("Sky", "flux"), block_scheme())
        b = grid.create_array("cat", schema("Cat", "mag"), HashPartitioner(N_NODES))
        recs = records(0)
        a.load(recs)
        b.load([LoadRecord(r.coords, (2.0,)) for r in recs])
        grid.ledger.reset()
        out = benchmark(lambda: a.sjoin(b))
        shuffled = grid.ledger.total_bytes("join_shuffle")
        # ~3/4 of right-hand cells live on the wrong node under an
        # unrelated scheme; each crossing is metered.
        assert shuffled > 0.5 * N_CELLS * b.cell_nbytes
        assert out.count_occupied() == N_CELLS

    def test_movement_report(self, benchmark, tmp_path):
        from repro.bench.harness import ResultTable

        rt = ResultTable(
            "E7: Sjoin data movement (bytes shuffled)",
            ["layout", "join_shuffle bytes", "result cells"],
        )
        for label, schemes in (
            ("co-partitioned", (block_scheme(), block_scheme())),
            ("independent", (block_scheme(), HashPartitioner(N_NODES))),
        ):
            grid = Grid(N_NODES, tmp_path / f"rep_{label.replace('-', '')}")
            a = grid.create_array("sky", schema("Sky", "flux"), schemes[0])
            b = grid.create_array("cat", schema("Cat", "mag"), schemes[1])
            recs = records(1)
            a.load(recs)
            b.load([LoadRecord(r.coords, (2.0,)) for r in recs])
            grid.ledger.reset()
            out = a.sjoin(b)
            rt.add(label, grid.ledger.total_bytes("join_shuffle"),
                   out.count_occupied())
        rt.print()
        benchmark.extra_info[rt.title] = rt.rows
        benchmark(lambda: None)


class TestUncertainJoin:
    def test_boundary_replication_keeps_join_local(self, benchmark, tmp_path):
        """Section 2.13: redundant placement near partition boundaries means
        uncertain spatial joins run without data movement."""
        grid = Grid(N_NODES, tmp_path / "unc")
        scheme = block_scheme()
        a = grid.create_array("obs", schema("Obs", "flux"), scheme)
        b = grid.create_array("ref", schema("Ref", "mag"), scheme)
        rng = np.random.default_rng(2)
        pu = PositionUncertainty((1.0, 1.0))
        # Observations hugging the x=50/51 block boundary.
        seen = set()
        observations = []
        while len(observations) < 100:
            pos = (float(rng.uniform(49.2, 51.8)),
                   float(rng.uniform(2.0, SIDE - 2.0)))
            if pu.home_cell(pos) in seen:
                continue
            seen.add(pu.home_cell(pos))
            observations.append((pos, (float(rng.normal()),)))
        a.load_uncertain(observations, pu)
        b.load_uncertain([(pos, (9.0,)) for pos, _ in observations], pu)
        replicated = grid.ledger.total_bytes("replication")
        assert replicated > 0
        grid.ledger.reset()
        out = benchmark(lambda: a.sjoin(b))
        assert grid.ledger.total_bytes("join_shuffle") == 0
        assert out.count_occupied() == 100
