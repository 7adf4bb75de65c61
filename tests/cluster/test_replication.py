"""Unit tests for k-way chunk replication: placement policies, routed
writes, metering, and the exception hierarchy (Section 2.7)."""

import numpy as np
import pytest

import repro.cluster as cluster
from repro import SciDBError, define_array
from repro.core.errors import (
    GridError,
    NodeFailedError,
    QuorumError,
    ReplicationError,
)
from repro.cluster import (
    ChainedDeclusteringPlacement,
    FaultInjector,
    Grid,
    HashPartitioner,
    ScatterPlacement,
)
from repro.storage.loader import LoadRecord


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


@pytest.fixture
def schema():
    return define_array("sky", {"flux": "float"}, ["x", "y"]).bind([100, 100])


class TestPlacementPolicies:
    def test_chained_declustering_wraps(self):
        p = ChainedDeclusteringPlacement()
        assert p.chain(0, 4, 2) == (0, 1)
        assert p.chain(3, 4, 2) == (3, 0)
        assert p.chain(2, 4, 3) == (2, 3, 0)

    def test_chain_is_primary_first_and_distinct(self):
        for placement in (ChainedDeclusteringPlacement(), ScatterPlacement(7)):
            for primary in range(5):
                chain = placement.chain(primary, 5, 3)
                assert chain[0] == primary
                assert len(set(chain)) == 3

    def test_scatter_is_deterministic(self):
        assert ScatterPlacement(3).chain(1, 8, 4) == ScatterPlacement(3).chain(
            1, 8, 4
        )

    def test_bad_factor_rejected(self):
        with pytest.raises(ReplicationError):
            ChainedDeclusteringPlacement().chain(0, 4, 5)
        with pytest.raises(ReplicationError):
            ChainedDeclusteringPlacement().chain(0, 4, 0)

    def test_unreachable_offset_rejected(self):
        # offset 2 on a 4-site grid only reaches 2 distinct sites.
        with pytest.raises(ReplicationError):
            ChainedDeclusteringPlacement(offset=2).chain(0, 4, 3)

    def test_factor_checked_at_array_creation(self, tmp_path, schema):
        grid = Grid(4, tmp_path)
        with pytest.raises(ReplicationError):
            grid.create_array("sky", schema, HashPartitioner(4), replication=5)


class TestReplicatedWrites:
    def test_every_cell_stored_k_times(self, tmp_path, schema):
        grid = Grid(4, tmp_path)
        arr = grid.create_array("sky", schema, HashPartitioner(4), replication=2)
        arr.load(records(60))
        assert arr.cell_count() == 120  # replicas included
        # ...but logically each cell exists once, and replicas are skipped
        # at the serving site, never shipped.
        assert sum(1 for _ in arr.scan()) == 60
        assert grid.ledger.total_bytes("gather") == 60 * arr.cell_nbytes

    def test_replication_traffic_metered(self, tmp_path, schema):
        grid = Grid(4, tmp_path)
        arr = grid.create_array("sky", schema, HashPartitioner(4), replication=3)
        arr.load(records(40))
        assert grid.ledger.total_bytes("load") == 40 * arr.cell_nbytes
        assert grid.ledger.total_bytes("replication") == 2 * 40 * arr.cell_nbytes

    def test_k1_has_zero_replication_overhead(self, tmp_path, schema):
        grid = Grid(4, tmp_path)
        arr = grid.create_array("sky", schema, HashPartitioner(4))
        arr.load(records(40))
        assert grid.ledger.total_bytes("replication") == 0

    def test_default_replication_from_grid(self, tmp_path, schema):
        grid = Grid(4, tmp_path, default_replication=2)
        arr = grid.create_array("sky", schema, HashPartitioner(4))
        assert arr.replication == 2

    def test_replica_sites_follow_chain(self, tmp_path, schema):
        grid = Grid(4, tmp_path)
        arr = grid.create_array("sky", schema, HashPartitioner(4), replication=2)
        for rec in records(10):
            sites = arr.replica_sites(rec.coords)
            assert sites[0] == arr.partitioner.site_of(rec.coords)
            assert len(set(sites)) == 2

    def test_write_survives_one_dead_replica(self, tmp_path, schema):
        inj = FaultInjector(seed=1)
        grid = Grid(4, tmp_path, fault_injector=inj)
        arr = grid.create_array("sky", schema, HashPartitioner(4), replication=2)
        inj.kill(2)
        arr.load(records(50))
        assert sum(1 for _ in arr.scan()) == 50
        assert grid.ledger.dropped_bytes() > 0  # deliveries to node 2

    def test_write_quorum_error_when_all_replicas_dead(self, tmp_path, schema):
        inj = FaultInjector(seed=1)
        grid = Grid(2, tmp_path, fault_injector=inj)
        arr = grid.create_array("sky", schema, HashPartitioner(2), replication=2)
        inj.kill(0)
        inj.kill(1)
        with pytest.raises(QuorumError):
            arr.write((1, 1), (1.0,))

    def test_uncertain_load_combines_with_replication(self, tmp_path):
        from repro import PositionUncertainty
        from repro.cluster import BlockPartitioner

        schema = define_array("sky", {"flux": "float"}, ["x", "y"]).bind(
            [100, 100]
        )
        grid = Grid(4, tmp_path)
        p = BlockPartitioner(4, bounds=[100, 100], blocks=[2, 2])
        arr = grid.create_array("sky", schema, p, replication=2)
        pu = PositionUncertainty((1.0, 1.0))
        arr.load_uncertain([((25.0, 25.0), (5.0,))], pu)
        # Interior observation: no uncertainty spread, but still k=2 copies.
        assert sum(1 for c in arr.cells_per_node() if c > 0) == 2
        assert grid.ledger.total_bytes("replication") == arr.cell_nbytes


class TestExceptionHierarchy:
    def test_grid_errors_under_scidb_error(self):
        assert issubclass(GridError, SciDBError)
        for exc in (NodeFailedError, QuorumError, ReplicationError):
            assert issubclass(exc, GridError)

    def test_node_failed_error_carries_node_id(self):
        err = NodeFailedError(3)
        assert err.node_id == 3
        assert "3" in str(err)

    def test_exported_from_cluster_package(self):
        for name in (
            "GridError", "NodeFailedError", "QuorumError", "ReplicationError",
            "FaultInjector", "CoverageReport", "DegradedResult",
            "RebuildReport", "ChainedDeclusteringPlacement", "ScatterPlacement",
        ):
            assert hasattr(cluster, name)
            assert name in cluster.__all__


class TestFastCellCount:
    def test_counter_matches_scan(self, tmp_path, schema):
        grid = Grid(4, tmp_path)
        arr = grid.create_array("sky", schema, HashPartitioner(4))
        arr.load(records(80))
        for node in grid.nodes:
            part = node.partition("sky")
            assert part.live_cells == sum(1 for _ in part.scan())

    def test_counter_dedups_overwrites(self, tmp_path, schema):
        grid = Grid(1, tmp_path)
        arr = grid.create_array("sky", schema, HashPartitioner(1))
        for _ in range(3):
            arr.write((5, 5), (1.0,))
        arr.flush()
        assert arr.cell_count() == 1

    def test_counter_survives_spills(self, tmp_path, schema):
        grid = Grid(1, tmp_path, memory_budget=256)  # force frequent spills
        arr = grid.create_array("sky", schema, HashPartitioner(1))
        arr.load(records(50))
        assert arr.cell_count() == 50
