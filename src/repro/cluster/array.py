"""One array's identity on the grid: partitions, replica chains, extents.

:class:`PartitionedArray` knows *where* cells live — which logical
partition a coordinate belongs to and which sites store that partition —
and nothing about moving them.  The write path
(:mod:`repro.cluster.writepath`) and the operators
(:mod:`repro.cluster.operators`) extend it; the read path
(:mod:`repro.cluster.readpath`) consults it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from ..core.errors import PartitioningError
from ..core.schema import ArraySchema
from .ledger import _cell_nbytes
from .partitioning import Partitioner
from .replication import ChainedDeclusteringPlacement, ReplicaPlacement

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .grid import Grid
    from .rebalance import Migration

__all__ = ["PartitionedArray"]

Coords = tuple[int, ...]


class PartitionedArray:
    """One array partitioned across the grid's nodes, ``k`` replicas deep."""

    def __init__(
        self,
        grid: "Grid",
        name: str,
        schema: ArraySchema,
        partitioner: Partitioner,
        replication: int = 1,
        placement: Optional[ReplicaPlacement] = None,
        stride: Optional[Sequence[int]] = None,
    ) -> None:
        if partitioner.n_sites != len(grid.nodes):
            raise PartitioningError(
                f"partitioner targets {partitioner.n_sites} sites, grid has "
                f"{len(grid.nodes)} nodes"
            )
        self.grid = grid
        #: the grid's identity as the planner's descriptions carry it
        self.grid_id = id(grid)
        self.name = name
        self.schema = schema
        self.partitioner = partitioner
        self.replication = replication
        self.placement = placement or ChainedDeclusteringPlacement()
        #: bucket stride of every node's partition — kept so a partition
        #: re-created later (rebuild, added node, repartition) buckets,
        #: and therefore prunes, exactly like the founding ones.
        self.stride = stride
        # Validate the chain for every partition up front.
        for p in partitioner.sites():
            self.chain_under(partitioner, p)
        self.cell_nbytes = _cell_nbytes(schema)
        #: in-flight elastic migration (cluster/rebalance.py), or None.
        #: While set, writes land in both homes and reads may
        #: dual-resolve against the new placement.
        self._migration: Optional["Migration"] = None
        # Per-dimension high-water marks for unbounded dimensions,
        # maintained on every stored delivery (under the grid's deliver
        # lock) — so _extent() is O(1) instead of a full rescan.
        self._dim_highwater: list[int] = [0] * schema.ndim

    # -- replica routing ---------------------------------------------------------

    def partitions(self) -> tuple[int, ...]:
        """Logical partition ids that can hold cells — every site for the
        classic partitioners, only ring members for membership-aware
        ones (a drained node's partition is empty by construction and
        must not be read or counted against coverage)."""
        return tuple(self.partitioner.sites())

    def chain_under(self, partitioner: Partitioner, p: int) -> tuple[int, ...]:
        """Replica chain for partition *p* under an arbitrary scheme.

        Membership-aware partitioners own their chains (chained
        declustering over ring members, never placing a replica on a
        drained site); the classic ones use the array's placement over
        the full site range.
        """
        chain_sites = getattr(partitioner, "chain_sites", None)
        if chain_sites is not None:
            return chain_sites(p, self.replication)
        return self.placement.chain(p, partitioner.n_sites, self.replication)

    def partition_chain(self, p: int) -> tuple[int, ...]:
        """Replica chain (primary first) for logical partition *p*."""
        return self.chain_under(self.partitioner, p)

    def replica_sites(self, coords: Coords) -> tuple[int, ...]:
        return self.partition_chain(self.partitioner.site_of(coords))

    # -- extents -----------------------------------------------------------------

    def _note_coords(self, stored: Sequence[Coords]) -> None:
        """Advance the per-dimension high-water marks (grid.deliver calls
        this under its delivery lock for every stored batch)."""
        for coords in stored:
            self._dim_highwater[:] = map(max, self._dim_highwater, coords)

    def _extent(self, dim_index: int) -> int:
        declared = self.schema.dimensions[dim_index].size
        if declared is not None:
            return declared
        # Unbounded: the per-dimension high-water mark maintained on every
        # write/ingest (see _note_coords) — O(1), no storage rescans.
        return self._dim_highwater[dim_index]

    @property
    def bounds(self) -> tuple[int, ...]:
        """Every dimension's extent, as :attr:`SciArray.bounds` reports it."""
        return tuple(self._extent(i) for i in range(self.schema.ndim))

    # -- balance -----------------------------------------------------------------

    def cell_count(self) -> int:
        """Total stored cells (replicas included) — the balance metric."""
        return sum(self.cells_per_node())

    def cells_per_node(self) -> list[int]:
        """Stored cells per node; dead nodes report 0 (unreachable)."""
        return [
            node.cell_count(self.name) if node.alive else 0
            for node in self.grid.nodes
        ]

    def imbalance(self) -> float:
        """max/mean stored cells per *alive* node; 1.0 is perfect balance.

        Dead nodes report 0 cells because they are unreachable, not
        because they are empty — including them in the mean would inflate
        the metric every time a node crashes, even when the survivors are
        perfectly balanced.
        """
        counts = [
            node.cell_count(self.name)
            for node in self.grid.nodes
            if node.alive
        ]
        if not counts:
            return 0.0
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 0.0

    def flush(self) -> None:
        for node in self.grid.alive_nodes():
            node.partition(self.name).flush()
