"""One array's identity on the grid: partitions, replica chains, extents.

:class:`PartitionedArray` knows *where* cells live — which logical
partition a coordinate belongs to and which sites store that partition —
and nothing about moving them.  The write path
(:mod:`repro.cluster.writepath`) and the operators
(:mod:`repro.cluster.operators`) extend it; the read path
(:mod:`repro.cluster.readpath`) consults it.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from ..core.array import Chunk
from ..core.errors import PartitioningError
from ..core.schema import ArraySchema
from .ledger import _cell_nbytes
from .partitioning import Partitioner
from .replication import ChainedDeclusteringPlacement, ReplicaPlacement

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .grid import Grid
    from .rebalance import Migration

__all__ = ["PartitionedArray", "Planes"]

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


class Planes:
    """A set of cells — with *sites*, one per site — kept per stride box
    as a boolean plane over the bounding box of the cells put in it,
    grown as cells arrive: a sparse set costs what its cells span, like
    the buckets storing them."""

    def __init__(self, stride: Sequence[int], sites: Optional[int] = None) -> None:
        self.stride, self.sites = np.array(stride), sites
        #: per stride box, ``(low corner, plane)``; a plane's axis 0 is the site
        self.planes: dict[Coords, tuple[np.ndarray, np.ndarray]] = {}

    def _by_box(self, coords: np.ndarray) -> list[tuple]:
        """``(stride box, rows of *coords* in it, their low corner, their
        high corner + 1)`` for each stride box *coords* (``(n, ndim)``
        integers) meet: one sort, not a pass per box."""
        if not len(coords):
            return []
        keys, inverse = np.unique((coords - 1) // self.stride, axis=0, return_inverse=True)
        order = np.argsort(inverse.ravel(), kind="stable")
        starts = np.searchsorted(inverse.ravel()[order], np.arange(len(keys)))
        lo, hi = (f.reduceat(coords[order], starts) for f in (np.minimum, np.maximum))
        return list(zip(map(tuple, keys.tolist()), np.split(order, starts[1:]), lo, hi + 1))

    def add(self, coords, value: bool = True, site: int = 0) -> None:
        """Put the cells at *coords* in the (*site*'s) set, or with *value*
        false take them out."""
        coords = np.reshape(coords, (-1, len(self.stride)))
        for key, rows, lo, hi in self._by_box(coords):
            at, plane = self.planes.get(key, (lo, None))
            cells = coords[rows]
            if plane is None:
                if not value:
                    continue
                plane = np.zeros((self.sites or 1, *(hi - lo)), dtype=bool)
                self.planes[key] = at, plane
            elif not value:
                cells = cells[((cells >= at) & (cells < at + plane.shape[1:])).all(1)]
            elif ((lo < at) | (hi > at + plane.shape[1:])).any():
                lo, hi = np.minimum(at, lo), np.maximum(at + plane.shape[1:], hi)
                grown = np.zeros((len(plane), *(hi - lo)), dtype=bool)
                grown[(slice(None), *_cut(at - lo, at - lo + plane.shape[1:]))] = plane
                at, plane = self.planes[key] = lo, grown
            plane[(site, *(cells - at).T)] = value

    def contains(self, coords: np.ndarray) -> np.ndarray:
        """Which of *coords* are in the set."""
        out = np.zeros(len(coords), dtype=bool)
        for key, rows, _lo, _hi in self._by_box(coords):
            if key in self.planes:
                at, plane = self.planes[key]
                cells = coords[rows] - at
                inside = ((cells >= 0) & (cells < plane.shape[1:])).all(1)
                out[rows[inside]] = plane[(0, *cells[inside].T)]
        return out

    def over(self, block: Chunk) -> np.ndarray:
        """Which of *block*'s occupied cells are in the set, as a plane
        over its box (with *sites*, one per site: axis 0)."""
        lo, hi, step = np.array(block.origin), np.add(block.origin, block.shape), self.stride
        out = np.zeros((self.sites or 1, *block.shape), dtype=bool)
        span = zip((lo - 1) // step, (hi - 2) // step + 1) if self.planes else [(0, 0)]
        for key in itertools.product(*itertools.starmap(range, span)):
            if key in self.planes:
                at, plane = self.planes[key]
                a, b = np.maximum(lo, at), np.minimum(hi, at + plane.shape[1:])
                if (a < b).all():
                    out[(slice(None), *_cut(a - lo, b - lo))] = plane[(slice(None), *_cut(a - at, b - at))]
        out &= block.state.astype(bool)
        return out if self.sites else out[0]

    def boxes(self, keys=None) -> list[Chunk]:
        """The set as blocks, one per stride box (of *keys*, if given),
        each over its plane, their states (copies) the cells."""
        found = (self.planes[k] for k in self.planes if keys is None or k in keys)
        return [
            Chunk(tuple(at.tolist()), plane.shape[1:], plane[0].copy(), {})
            for at, plane in found if plane.any()
        ]

    def __len__(self) -> int:
        return sum(int(np.count_nonzero(p)) for _at, p in self.planes.values())


def _cut(lo, hi) -> tuple:
    return tuple(map(slice, lo, hi))
