"""The grid's write path: routed, replicated, checkpointed loads (§2.7, §2.8).

``load`` / ``write`` route cells by the array's partitioner, to every
replica site when ``replication`` > 1 (extra copies metered as
``"replication"``).  ``load_uncertain`` is PanSTARRS-style boundary
replication: an observation whose true position may fall in a
neighbouring partition is stored redundantly in every candidate
partition, so "uncertain spatial joins can be performed without moving
data elements" (Section 2.13).

:meth:`WritableArray.load_checkpointed` gives the write path the fault
tolerance reads have: the load stream is divided into numbered batches
committed atomically per replica chain (a WAL ``load_commit`` record on
every site), malformed records are quarantined instead of aborting the
stream, transient I/O faults are retried with recorded backoff, a
substream whose primary dies mid-load fails over to the
replica chain (metered ``"load_failover"``), and a killed loader resumes
from the last committed batch with idempotent replay — see
:mod:`repro.storage.loader`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from ..core.errors import QuorumError
from ..core.uncertainty import PositionUncertainty
from ..storage.loader import BulkLoader, LoadRecord, LoadReport
from ..storage.quarantine import QuarantineStore
from .array import PartitionedArray
from .ledger import COORDINATOR

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .node import Node

__all__ = ["WritableArray"]

Coords = tuple[int, ...]


class WritableArray(PartitionedArray):
    """A partitioned array plus the ways cells get into it."""

    def write(self, coords: Coords, values: Optional[tuple]) -> None:
        """Route one cell to all of its replica sites.

        The primary copy is metered as ``"load"``, the extras as
        ``"replication"``.  Delivery is fire-and-forget: a transfer lost
        in flight (an injected drop, or a node crashing on this very
        tick) loses that copy silently, like a real lossy fabric.  Only
        when *every* replica site is already dead — no copy could
        possibly land — does the write raise :class:`QuorumError`.
        """
        self._route(coords, values, failover=False)

    def write_failover(self, coords: Coords,
                       values: Optional[tuple]) -> tuple[int, bool]:
        """Write one cell, failing the serving copy over past dead sites.

        Unlike the fire-and-forget :meth:`write`, the *serving* copy of a
        cell whose primary is dead moves to the first surviving site of
        the replica chain — PR 1's placement, now used on the write path —
        metered under the ``"load_failover"`` ledger category.  Copies to
        other chain sites stay ``"replication"``; deliveries addressed to
        dead sites are recorded as dropped, exactly as :meth:`write` does.
        Returns ``(serving_site, failed_over)``; raises
        :class:`QuorumError` only when the chain is fully dead.
        """
        return self._route(coords, values, failover=True)

    def _route(
        self, coords: Coords, values: Optional[tuple], failover: bool
    ) -> tuple[int, bool]:
        """Deliver one cell to its whole chain; the *lead* copy — the
        primary's, or with *failover* the first surviving site's — is the
        one metered as the load itself.  Under the grid's delivery lock,
        so a rebalance cutover lands before or after the whole write."""
        with self.grid._deliver_lock:
            sites = self.replica_sites(coords)
            serving = next(
                (s for s in sites if self.grid.nodes[s].alive), None
            )
            if serving is None:
                raise QuorumError(
                    f"write {coords} to {self.name!r}: every replica site "
                    f"of {sites} is dead"
                )
            lead = serving if failover else sites[0]
            lead_reason = "load" if lead == sites[0] else "load_failover"
            for site in sites:
                self.grid.deliver(
                    COORDINATOR, site, self.cell_nbytes,
                    lead_reason if site == lead else "replication",
                    self.name, [(coords, values)],
                )
            self._dual_write(coords, values)
        return serving, serving != sites[0]

    def _dual_write(self, coords: Coords, values: Optional[tuple]) -> None:
        """During an elastic migration, land the write in its *new* homes
        too (:meth:`~repro.cluster.rebalance.Migration.dual_write`)."""
        if self._migration is not None:
            self._migration.dual_write(coords, values)

    def load(self, records: Iterable[LoadRecord]) -> int:
        n = 0
        for rec in records:
            self.write(rec.coords, rec.values)
            n += 1
        self.flush()
        return n

    def load_checkpointed(
        self,
        stream: Iterable[LoadRecord],
        batch_size: int = 64,
        load_epoch: int = 0,
        tolerant: bool = True,
        quarantine: Optional[QuarantineStore] = None,
        max_retries: int = 3,
    ) -> LoadReport:
        """Checkpointed, fault-tolerant, resumable bulk load (Section 2.8).

        The stream is divided into numbered batches routed to per-partition
        substreams; each batch commits atomically on every surviving site
        of the partition's replica chain (a WAL ``load_commit`` record; the
        cells spill into buckets at the end of the load).  It survives:

        * **malformed records** — quarantined with reason + offset
          (``tolerant=True``), surfaced in the returned
          :class:`~repro.storage.loader.LoadReport`;
        * **transient I/O faults** — bounded retries with recorded
          exponential backoff;
        * **node death mid-load** — the substream fails over to the
          replica chain (``"load_failover"`` in the ledger);
          :class:`QuorumError` only when a chain is fully dead;
        * **loader crashes** — re-drive the same stream with the same
          ``load_epoch``: committed batches are skipped per site, the
          in-flight batch replays idempotently, and the result is
          cell-for-cell identical to an uninterrupted load.
        """
        sinks = {
            p: _PartitionLoadSink(self, p)
            for p in self.partitions()
        }
        faults = self.grid.faults
        latency_before = self.grid.store_latency_ms
        loader = BulkLoader(
            sinks,
            route=self.partitioner.site_of,
            batch_size=batch_size,
            load_epoch=load_epoch,
            tolerant=tolerant,
            quarantine=quarantine,
            max_retries=max_retries,
            backoff_base_ms=self.grid.resilience.retry.backoff_base_ms,
            backoff_max_ms=self.grid.resilience.retry.backoff_max_ms,
            on_record=faults.on_load_record if faults is not None else None,
        )
        with loader:
            loader.load(stream)
        report = loader.report()
        report.store_latency_ms = (
            self.grid.store_latency_ms - latency_before
        )
        return report

    def load_uncertain(
        self,
        observations: Iterable[tuple[tuple[float, ...], tuple]],
        uncertainty: PositionUncertainty,
    ) -> int:
        """Load (position, values) observations with boundary replication.

        Each observation is stored in its home cell on every site that owns
        one of its candidate cells — plus, with ``replication`` > 1, the
        home cell's replica chain; copies beyond the home site are metered
        with reason ``"replication"``.
        """
        n = 0
        for position, values in observations:
            home = uncertainty.home_cell(position)
            sites = {self.partitioner.site_of(c)
                     for c in uncertainty.candidate_cells(position)}
            replicas = self.replica_sites(home)
            sites.update(replicas)
            home_site = replicas[0]
            if not any(self.grid.nodes[s].alive for s in sites):
                raise QuorumError(
                    f"uncertain load at {home}: every candidate site of "
                    f"{sorted(sites)} is dead"
                )
            for site in sorted(sites):
                reason = "load" if site == home_site else "replication"
                self.grid.deliver(
                    COORDINATOR, site, self.cell_nbytes, reason,
                    self.name, [(home, values)],
                )
            n += 1
        self.flush()
        return n


class _PartitionLoadSink:
    """One logical partition's substream target for the checkpointed loader.

    The :class:`~repro.storage.loader.BulkLoader` sees the same sink
    surface a :class:`~repro.storage.manager.PersistentArray` offers
    (``schema``/``append``/``flush``/``load_cursor``/``commit_load_batch``)
    but every append routes through the grid's failover write and every
    checkpoint commits on each surviving site of the partition's replica
    chain — so the checkpoint survives exactly the failures the data does.
    """

    def __init__(self, array: WritableArray, partition: int) -> None:
        self.array = array
        self.partition = partition
        self.schema = array.schema
        self._serving: Optional[int] = None

    def _alive_chain(self) -> list["Node"]:
        grid = self.array.grid
        return [
            grid.nodes[s]
            for s in self.array.partition_chain(self.partition)
            if grid.nodes[s].alive
        ]

    def append(self, coords: Coords, values: Optional[tuple]) -> None:
        serving, failed_over = self.array.write_failover(coords, values)
        if failed_over and serving != self._serving:
            # One failover event per serving-site transition, not per cell.
            primary = self.array.partition_chain(self.partition)[0]
            self.array.grid._log_failover(
                self.array.name, self.partition, primary, attempt=1
            )
        self._serving = serving

    def flush(self) -> None:
        for node in self._alive_chain():
            node.partition(self.array.name).flush()

    def _cursor_key(self, epoch: "int | str") -> str:
        # Replica chains overlap (chained declustering guarantees it), so
        # one node's partition store backs several logical partitions.
        # Scoping the cursor key by partition keeps one substream's
        # commits from making a sibling substream skip its own batches.
        return f"{epoch}/p{self.partition}"

    def load_cursor(self, epoch: "int | str" = 0) -> int:
        """Furthest batch any surviving replica committed for *this*
        partition's substream.

        ``max`` is sound because commits happen only after the batch's
        cells were delivered to the whole chain: a replica whose cursor
        lags still holds (or can WAL-replay) every cell of the batch.
        """
        key = self._cursor_key(epoch)
        cursors = [
            node.partition(self.array.name).load_cursor(key)
            for node in self._alive_chain()
        ]
        return max(cursors, default=-1)

    def commit_load_batch(self, epoch: "int | str", seq: int) -> None:
        nodes = self._alive_chain()
        if not nodes:
            raise QuorumError(
                f"commit of load batch {seq} for partition "
                f"{self.partition} of {self.array.name!r}: chain is dead"
            )
        key = self._cursor_key(epoch)
        for node in nodes:
            node.commit_load_batch(self.array.name, key, seq)
