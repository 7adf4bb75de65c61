"""The grid's operators: choose partitions, read, fold or merge (§2.7).

Every operator on :class:`DistributedArray` has the same shape — choose
the partitions, read them through
:func:`~repro.cluster.readpath.read_partitions` (running the operator's
local phase where the data is), merge at the coordinator, wrap the
coverage — and the retry/breaker/hedge machinery that makes the read
survive broken nodes is entirely the read path's business:

* ``scan`` / ``subsample`` / ``materialize`` — one metered gather, with
  per-node R-tree window pruning and value pruning;
* ``aggregate`` / ``regrid`` — the local operators' one body
  (:class:`~repro.core.ops.content.Grouping`), its local phase run per
  partition and merged at the coordinator (algebraic aggregates move only
  partial states; holistic ones ship raw blocks);
* ``sjoin`` — local joins when the operands are co-partitioned, otherwise
  a shuffle of the right operand to the left's scheme first;
* ``filter`` / ``apply`` — node-local, zero movement;
* ``repartition`` — migrate to a new partitioning scheme, as the paper's
  time-varying partitioning requires.

With ``degraded=True`` (or ``on_unavailable="partial"``) a query that
lost every replica of some partition returns the partial answer plus a
:class:`~repro.cluster.replication.CoverageReport` instead of raising
:class:`~repro.core.errors.QuorumError`.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from ..core.array import Chunk, SciArray
from ..core.cells import Cell
from ..core.errors import (
    GridError,
    NodeFailedError,
    PartitioningError,
    QuorumError,
    SchemaError,
)
from ..core.ops import content as content_ops
from ..core.ops import structural as structural_ops
from ..core.ops.content import Grouping
from ..core.udf import UserAggregate
from .ledger import COORDINATOR
from .node import Node, Record
from .partitioning import Partitioner, is_copartitioned
from .readpath import Blocks, read_partitions
from .replication import CoverageReport, DegradedResult
from .resilience import Deadline, deadline_scope
from .writepath import WritableArray

__all__ = ["DistributedArray"]

Coords = tuple[int, ...]
Missing = list[tuple[str, int]]

def _unavailable_mode(degraded: bool, on_unavailable: str) -> tuple[bool, bool]:
    """``(partial, tolerate_deadline)`` for an operator's *degraded* /
    *on_unavailable* pair: a partial answer is wanted under either, and
    only ``"partial"`` also forgives a deadline-starved read."""
    if on_unavailable not in ("raise", "partial"):
        raise GridError(
            f"on_unavailable must be 'raise' or 'partial', "
            f"got {on_unavailable!r}"
        )
    tolerate_deadline = on_unavailable == "partial"
    return degraded or tolerate_deadline, tolerate_deadline


def _covered(
    out: SciArray, partial: bool, total_partitions: int, missing: Missing
) -> "SciArray | DegradedResult":
    """*out* as the operator returns it: bare, or with its coverage."""
    if not partial:
        return out
    return DegradedResult(
        out, CoverageReport(total_partitions, tuple(missing))
    )


class DistributedArray(WritableArray):
    """One array partitioned across the grid's nodes, ``k`` replicas deep."""

    # -- the gather ---------------------------------------------------------------

    def _gather_array(
        self,
        name: str,
        window: Optional[tuple[Coords, Coords]] = None,
        partial: bool = False,
        tolerate_deadline: bool = False,
        attr_ranges: Optional[dict] = None,
    ) -> tuple[SciArray, Missing]:
        """Gather (windowed) blocks at the coordinator, metered
        ``"gather"``, into one array: each partition read merged (one
        cached block per node where it can be), then one ``set_region``
        per block.

        Each logical partition is read from its first surviving replica,
        so the gather survives up to ``replication - 1`` failures per
        chain.  *attr_ranges* forwards the planner's value-pruning
        intervals to every node's storage manager (chunk skipping; pruned
        buckets' occupied cells come back NULL).
        """
        served, missing = read_partitions(
            self, window, "gather", degraded=partial,
            tolerate_deadline=tolerate_deadline, attr_ranges=attr_ranges,
            merged=True,
        )
        out = SciArray(self.schema, name=name)
        for _site, blocks in served.values():
            for block in blocks:
                out.set_region(block.origin, block.data, block.state)
        return out, missing

    def scan(
        self,
        window: Optional[tuple[Coords, Coords]] = None,
        degraded: bool = False,
        attr_ranges: Optional[dict] = None,
    ) -> Iterator[tuple[Coords, Optional[Cell]]]:
        """Gather (windowed) cells at the coordinator in partition order,
        metering the gather.  A partition with no surviving replica raises
        :class:`~repro.core.errors.QuorumError` — or, with
        ``degraded=True``, is silently skipped (partial answer)."""
        served, _missing = read_partitions(
            self, window, "gather", degraded=degraded, attr_ranges=attr_ranges
        )
        for _site, blocks in served.values():
            yield from blocks.cells()

    def subsample(
        self,
        window: tuple[Coords, Coords],
        degraded: bool = False,
        deadline: Optional[Deadline] = None,
        on_unavailable: str = "raise",
        attr_ranges: Optional[dict] = None,
    ) -> "SciArray | DegradedResult":
        """Window query executed with per-node bucket pruning.

        With ``degraded=True``, partitions that lost every replica are
        skipped and the partial answer comes back with a coverage report
        instead of a :class:`QuorumError`.  *deadline* bounds the query's
        wall time (installed as the ambient deadline for every partition
        task); *on_unavailable* decides what an unservable partition —
        dead chain or deadline-starved read — does: ``"raise"`` (default)
        propagates the error, ``"partial"`` marks the partition missing
        and returns a :class:`DegradedResult` within the budget.
        """
        partial, tolerate_deadline = _unavailable_mode(degraded, on_unavailable)
        with deadline_scope(deadline):
            out, missing = self._gather_array(
                f"{self.name}_window", window=window, partial=partial,
                tolerate_deadline=tolerate_deadline, attr_ranges=attr_ranges,
            )
        return _covered(out, partial, len(self.partitions()), missing)

    def materialize(self, attr_ranges: Optional[dict] = None) -> SciArray:
        return self._gather_array(self.name, attr_ranges=attr_ranges)[0]

    # -- grouped aggregation ------------------------------------------------------

    def _grouped(
        self,
        grouping: Grouping,
        reason: str,
        partial: bool = False,
        tolerate_deadline: bool = False,
    ) -> "SciArray | DegradedResult":
        """Run *grouping* over every logical partition and wrap coverage.

        Its pushed phase runs once per partition, at the serving site of
        the partition's replica chain — so it stays node-local even when
        the primary is dead, and replicas are never double-counted — and
        the coordinator merges the results in partition order, so float
        accumulation order, and the result bit for bit, match the local
        operator.  What crosses to the coordinator is metered as
        *reason* (:meth:`~repro.core.ops.content.Grouping.wire`).
        """
        served, missing = read_partitions(
            self, degraded=partial, tolerate_deadline=tolerate_deadline,
            local=grouping.pushed,
        )
        record, total = self.grid.ledger.record, {}
        for site, part in served.values():
            records, nbytes = grouping.wire(part, self.cell_nbytes)
            record(site, COORDINATOR, nbytes, reason, records)
            total = grouping.merge(total, part)
        out = grouping.write(total)
        return _covered(out, partial, len(self.partitions()), missing)

    def aggregate(
        self,
        group_dims: Sequence[str],
        agg: "str | UserAggregate",
        attr: Optional[str] = None,
        degraded: bool = False,
        deadline: Optional[Deadline] = None,
        on_unavailable: str = "raise",
    ) -> "SciArray | DegradedResult":
        """Grouped aggregation with local partials where algebraic
        (metered ``"aggregate"``).  *deadline* / *on_unavailable* behave
        as in :meth:`subsample`.
        """
        grouping = Grouping("aggregate", self, group_dims, agg, attr)
        partial, tolerate_deadline = _unavailable_mode(degraded, on_unavailable)
        with deadline_scope(deadline):
            return self._grouped(grouping, "aggregate", partial, tolerate_deadline)

    def regrid(
        self,
        factors: Sequence[int],
        agg: "str | UserAggregate" = "avg",
        attr: Optional[str] = None,
    ) -> SciArray:
        """Distributed Regrid: local partial aggregation per output block,
        merged at the coordinator.

        Output blocks can straddle partition boundaries, so unlike
        :meth:`filter`/:meth:`apply` this moves partial states (raw cells
        for a holistic aggregate) — metered as ``"regrid"``.
        """
        return self._grouped(Grouping("regrid", self, factors, agg, attr), "regrid")

    # -- join ---------------------------------------------------------------------

    def sjoin(
        self,
        other: "DistributedArray",
        on: Optional[Sequence[tuple[str, str]]] = None,
        degraded: bool = False,
    ) -> "SciArray | DegradedResult":
        """Structured join of two distributed arrays on all dimensions.

        Co-partitioned operands joined in order
        (:func:`~repro.cluster.partitioning.is_copartitioned`) join locally
        with **zero** shuffle; otherwise the right operand's cells are first
        repartitioned to the left's scheme (metered as ``"join_shuffle"``).
        Either side failing over to a replica keeps the join running; a
        partition with no surviving replica raises :class:`QuorumError`
        unless ``degraded=True``.
        """
        if on is None:
            on = list(zip(self.schema.dim_names, other.schema.dim_names))
        if len(on) != self.schema.ndim or len(on) != other.schema.ndim:
            raise SchemaError(
                "distributed sjoin joins all dimensions pairwise; use a "
                "local sjoin for partial-dimension joins"
            )
        # The result is the local operator's over empty operands (its
        # checks raise first).  A right cell's partner is the left cell at
        # its coordinates in the left's axis order (*perm*).
        out = structural_ops.sjoin(
            SciArray(self.schema, name=self.name), SciArray(other.schema, name=other.name), on
        )
        perm = [other.schema.dim_index(dict(on)[d]) for d in self.schema.dim_names]
        copartitioned = is_copartitioned(self, other, on)
        record = self.grid.ledger.record

        # Read every left partition in parallel (no per-cell metering: the
        # join runs at the serving site, which holds the cells locally).
        left_served, missing = read_partitions(self, degraded=degraded, merged=True)

        # The right side's blocks per left partition: co-partitioned, right
        # partition q *is* left partition q (and only the live ones are
        # read); otherwise every right cell is shuffled to the site joining
        # the matching left cell.
        right_parts = {p: Blocks() for p in left_served}
        total_partitions = len(self.partitions()) + (0 if copartitioned else len(other.partitions()))
        right_served, right_missing = read_partitions(
            other, degraded=degraded, merged=True,
            partitions=sorted(left_served) if copartitioned else None,
        )
        missing += right_missing
        for q, (r_site, r_blocks) in right_served.items():
            # Each right cell goes where its left partner is (when
            # co-partitioned, that is partition q itself).
            planes = self.partitioner.site_planes([Chunk(
                *([box[a] for a in perm] for box in (b.origin, b.shape)), None, {}
            ) for b in r_blocks])
            for block, primaries in zip(r_blocks, planes):
                primaries = primaries.transpose(np.argsort(perm))
                for t in np.unique(primaries[block.state != 0]).tolist():
                    if t not in left_served:
                        continue  # left side lost: nothing to join against
                    state = block.state * (primaries == t)
                    left_site = left_served[t][0]
                    if r_site != left_site:
                        # Diverging replica chains or schemes: the cells
                        # travel to the join site, one transfer each.
                        record(
                            r_site, left_site, other.cell_nbytes,
                            "join_shuffle", int(np.count_nonzero(state)),
                        )
                    right_parts[t].append(Chunk(block.origin, block.shape, state, block.data))

        # Each partition joins where it was read, with the local operator's
        # body; the coordinator writes and meters the results in order.
        def local_join(p: int) -> Optional[list]:
            left, right = left_served[p][1], right_parts[p]
            return list(structural_ops.sjoin_blocks(left, right, perm)) if left and right else None

        ordered = sorted(left_served)
        joined = self.grid.scheduler.map([(lambda p=p: local_join(p)) for p in ordered])
        for p, blocks in zip(ordered, joined):
            if blocks is not None:
                occupied = sum(int(np.count_nonzero(state)) for *_, state in blocks)
                nbytes = occupied * (self.cell_nbytes + other.cell_nbytes)
                record(left_served[p][0], COORDINATOR, nbytes, "gather")
            for origin, planes, state in blocks or ():
                out.set_region(origin, dict(zip(out.attr_names, planes)), state)
        return _covered(out, degraded, total_partitions, missing)

    # -- node-local operators -----------------------------------------------------

    def _node_local(
        self, output_name: str, local: Callable[[SciArray], SciArray]
    ) -> "DistributedArray":
        """A new array under the same partitioner (its schema is what
        *local*, a local operator's one body, makes of an empty array)
        whose every stored copy is *local* run over this array's copies on
        the same node: each node rewrites its own stored blocks, replica
        copies included — so the output is replicated exactly like the
        input — and stores the result through its WAL (:meth:`Node.store`)
        with **zero** movement.  Nodes that die mid-pass are skipped: their
        partitions' surviving replicas still produce complete output copies.
        """
        self._check_coverage()
        schema = local(SciArray(self.schema)).schema
        out = self.grid.create_array(
            output_name, schema, self.partitioner, stride=self.stride,
            replication=self.replication, placement=self.placement,
        )
        # Addresses are preserved, so the extent high-water carries over.
        out._dim_highwater = list(self._dim_highwater)

        def run(node: Node) -> None:
            try:
                stored = SciArray(self.schema, name=self.name)
                for block in node.blocks(self.name):
                    stored.set_region(block.origin, block.data, block.state)
                node.store(out.name, [
                    (coords, None if cell is None else cell.values)
                    for coords, cell in local(stored).cells()
                ])
                node.partition(out.name).flush()
            except NodeFailedError:
                pass  # replicas on surviving nodes cover this partition

        # One task per node touches only that node's storage, so the
        # fan-out needs no cross-task coordination.
        self.grid.scheduler.map(
            [(lambda node=node: run(node)) for node in self.grid.alive_nodes()]
        )
        return out

    def filter(
        self,
        predicate,
        output_name: Optional[str] = None,
    ) -> "DistributedArray":
        """Distributed Filter: runs node-local with **zero** movement
        (Filter preserves cell addresses; failing cells become NULL)."""
        return self._node_local(
            output_name or f"{self.name}_filtered",
            lambda stored: content_ops.filter(stored, predicate),
        )

    def apply(
        self,
        fn,
        output: Sequence[tuple[str, str]],
        output_name: Optional[str] = None,
    ) -> "DistributedArray":
        """Distributed Apply: node-local per-cell computation, no movement."""
        return self._node_local(
            output_name or f"{self.name}_applied",
            lambda stored: content_ops.apply(stored, fn, output),
        )

    def _check_coverage(self) -> None:
        """Raise QuorumError if any partition has lost every replica."""
        for p in self.partitions():
            chain = self.partition_chain(p)
            if not any(self.grid.nodes[s].alive for s in chain):
                raise QuorumError(
                    f"partition {p} of {self.name!r}: every replica site "
                    f"of {chain} is dead"
                )

    # -- repartitioning --------------------------------------------------------------

    def repartition(self, new_partitioner: Partitioner) -> int:
        """Migrate to *new_partitioner*; returns cells whose primary moved.

        Movement is metered as ``"repartition"``; replica copies already
        resident on their (new) target node do not move (and cost
        nothing).  Reads fail over to surviving replicas, so a
        repartition can run through a node failure.
        """
        if new_partitioner.n_sites != len(self.grid.nodes):
            raise PartitioningError("new partitioner targets a different grid size")
        # Gather every logical cell once (in parallel), remembering who
        # served it; redistribution below stays serial so the delivery —
        # and with it fault ordering — is deterministic.
        served, _missing = read_partitions(self)
        # Snapshot current physical placement: copies already on their new
        # home are free.
        prior: dict[int, frozenset[Coords]] = {}
        for node in self.grid.alive_nodes():
            prior[node.node_id] = node.partition(self.name).live_coords()
        # Rebuild partitions on every live node, then replay.
        for node in self.grid.alive_nodes():
            node.storage.drop_array(self.name)
            node.create_partition(self.name, self.schema, stride=self.stride)
        moved = 0
        for p, (src_site, blocks) in served.items():
            # Partition p's records per new-chain destination, in read
            # order: those already resident there before the migration
            # are free copies, the rest travel.
            free: dict[int, list[Record]] = {}
            sent: dict[int, list[Record]] = {}
            for coords, cell in blocks.cells():
                record = (coords, None if cell is None else cell.values)
                new_primary = new_partitioner.site_of(coords)
                moved += new_primary != p
                for dst in self.chain_under(new_partitioner, new_primary):
                    to = free if coords in prior.get(dst, ()) else sent
                    to.setdefault(dst, []).append(record)
            for dst, records in sorted(free.items()):
                node = self.grid.nodes[dst]
                if node.alive:
                    node.store(self.name, records)
            for dst, records in sorted(sent.items()):
                self.grid.deliver(
                    src_site, dst, self.cell_nbytes, "repartition",
                    self.name, records,
                )
        self.flush()
        self.partitioner = new_partitioner
        return moved
