"""The simulated shared-nothing grid and its movement ledger (Section 2.7).

A :class:`Grid` owns N :class:`~repro.cluster.node.Node` workers and a
:class:`DataMovementLedger`.  Every byte that crosses a node boundary —
load routing, repartitioning, join shuffles, aggregate partials, result
gathers, uncertainty replication — is recorded with a reason, so the
partitioning experiments (E6/E7) report exact, deterministic movement
instead of noisy wall-clock proxies.

Distributed operators implemented on :class:`DistributedArray`:

* ``load`` / ``write`` — route cells by the array's partitioner, to every
  replica site when ``replication`` > 1 (extra copies metered as
  ``"replication"``);
* ``load_uncertain`` — PanSTARRS-style boundary replication: an
  observation whose true position may fall in a neighbouring partition is
  stored redundantly in every candidate partition, so "uncertain spatial
  joins can be performed without moving data elements" (Section 2.13);
* ``subsample`` — window scans with per-node R-tree pruning;
* ``aggregate`` — local partial aggregation, coordinator merge (algebraic
  aggregates move only partial states; holistic ones fall back to raw
  shipment);
* ``sjoin`` — local joins when the operands are co-partitioned, otherwise
  an explicit repartition of the right operand first;
* ``repartition`` — migrate to a new partitioning scheme, as the paper's
  time-varying partitioning requires.

Fault tolerance (the common case on a grid "sufficiently large that there
will always be broken nodes"): reads are organised around *logical
partitions* — partition ``p`` is the set of cells whose primary site is
``p``, and with k-way replication it is stored on every site of
``placement.chain(p, n, k)``.  A query that finds a replica dead — even
mid-scan, when a scheduled fault fires on a metered transfer — retries
the partition on the next site of the chain under the grid's
:class:`~repro.cluster.resilience.ResiliencePolicy`: bounded attempts
with capped, seeded-jitter backoff (recorded in
:attr:`Grid.failover_log`), per-node circuit breakers that skip
repeatedly-failing nodes straight to their replicas, optional hedged
backup reads against the next replica (exactly-once preserved by
buffered metering — only the winning attempt's meters commit), and
cooperative deadlines propagated into every per-partition task.  Only
when *every* replica of some partition is dead does the query raise
:class:`~repro.core.errors.QuorumError` — unless called with
``degraded=True`` (or ``on_unavailable="partial"``), which instead
returns the partial answer plus a
:class:`~repro.cluster.replication.CoverageReport`.
:meth:`Grid.rebuild_node` brings a crashed node back by replaying its
per-node WAL and copying anything missing (metered ``"rebuild"``) from
surviving replicas.  Fault drills and parallel fan-out compose: the
injector is thread-safe and keyed-deterministic, so a drill runs at full
``parallelism`` rather than forcing the grid serial.

The *write* path gets the same treatment via
:meth:`DistributedArray.load_checkpointed`: the load stream is divided
into numbered batches committed atomically per replica chain (cursor
files + WAL ``load_commit`` records), malformed records are quarantined
instead of aborting the stream, transient I/O faults are retried with
recorded backoff, a substream whose primary dies mid-load fails over to
the replica chain (metered ``"load_failover"``), and a killed loader
resumes from the last committed batch with idempotent replay — see
:mod:`repro.storage.loader`.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from ..core.array import SciArray
from ..core.cells import Cell
from ..core.errors import (
    DeadlineExceededError,
    GridError,
    NodeFailedError,
    PartitioningError,
    QuorumError,
    SchemaError,
    StorageError,
    TransientIOError,
)
from ..core.ops import content as content_ops
from ..core.ops import structural as structural_ops
from ..core.schema import ArraySchema, Dimension
from ..core.udf import UserAggregate, get_aggregate
from ..core.uncertainty import PositionUncertainty
from ..obs import tracing
from ..obs.recorder import emit as _flight_emit
from ..storage.loader import BulkLoader, LoadRecord, LoadReport
from ..storage.quarantine import QuarantineStore
from .faults import FailoverEvent, FaultInjector
from .node import Node
from .partitioning import Partitioner
from .resilience import (
    CircuitBreaker,
    Deadline,
    MeterBuffer,
    ResiliencePolicy,
    RetryPolicy,
    current_deadline,
    deadline_scope,
    sleep_under_deadline,
)
from .rebalance import Migration, Rebalancer, RebalanceReport
from .scheduler import PartitionScheduler, default_parallelism
from .replication import (
    ChainedDeclusteringPlacement,
    CoverageReport,
    DegradedResult,
    RebuildReport,
    ReplicaPlacement,
)

__all__ = ["Transfer", "DataMovementLedger", "DistributedArray", "Grid"]

Coords = tuple[int, ...]

#: Coordinator pseudo-site in ledger entries.
COORDINATOR = -1


def _wants_partial(on_unavailable: str) -> bool:
    """Validate an ``on_unavailable`` mode; True for ``"partial"``."""
    if on_unavailable not in ("raise", "partial"):
        raise GridError(
            f"on_unavailable must be 'raise' or 'partial', "
            f"got {on_unavailable!r}"
        )
    return on_unavailable == "partial"

#: Merge functions for algebraic built-in aggregates (state x state -> state).
_ALGEBRAIC_MERGES: dict[str, Callable[[Any, Any], Any]] = {
    "sum": lambda a, b: a + b,
    "count": lambda a, b: a + b,
    "avg": lambda a, b: (a[0] + b[0], a[1] + b[1]),
    "min": lambda a, b: b if a is None else (a if b is None else min(a, b)),
    "max": lambda a, b: b if a is None else (a if b is None else max(a, b)),
    "stdev": lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2]),
}


@dataclass(frozen=True)
class Transfer:
    """One metered inter-node transfer."""

    src: int
    dst: int
    nbytes: int
    reason: str


class DataMovementLedger:
    """Append-only record of all inter-node traffic.

    Besides delivered transfers, the ledger tracks *dropped* ones —
    deliveries addressed to a dead node or eaten by the fault injector —
    so injected faults stay observable in the same accounting that the
    partitioning experiments use.
    """

    def __init__(self) -> None:
        self.transfers: list[Transfer] = []
        self.dropped: list[Transfer] = []
        #: Optional hook called with each recorded Transfer (the fault
        #: injector's simulated clock ticks here).
        self.on_record: Optional[Callable[[Transfer], None]] = None
        # Scheduler workers meter gathers concurrently; the log append and
        # the injector tick must stay one atomic step so fault ordering is
        # a function of the transfer sequence, not thread interleaving.
        self._lock = threading.Lock()

    def record(self, src: int, dst: int, nbytes: int, reason: str) -> None:
        if src != dst:  # local work is free by definition of shared-nothing
            transfer = Transfer(src, dst, nbytes, reason)
            with self._lock:
                self.transfers.append(transfer)
                if self.on_record is not None:
                    self.on_record(transfer)
            # Whatever operator span is open absorbs this movement, so
            # per-operator bytes_moved reconciles with the ledger delta
            # by construction.
            tracing.add_current_pair("bytes_moved", nbytes, "transfers", 1)

    def record_dropped(self, src: int, dst: int, nbytes: int, reason: str) -> None:
        with self._lock:
            self.dropped.append(Transfer(src, dst, nbytes, reason))
        tracing.add_current("bytes_dropped", nbytes)

    def total_bytes(self, reason: Optional[str] = None) -> int:
        return sum(
            t.nbytes for t in self.transfers if reason is None or t.reason == reason
        )

    def dropped_bytes(self, reason: Optional[str] = None) -> int:
        return sum(
            t.nbytes for t in self.dropped if reason is None or t.reason == reason
        )

    def by_reason(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for t in self.transfers:
            out[t.reason] = out.get(t.reason, 0) + t.nbytes
        return out

    def reset(self) -> None:
        self.transfers.clear()
        self.dropped.clear()


def _cell_nbytes(schema: ArraySchema) -> int:
    """Wire-size estimate of one cell: coords + attribute payload."""
    size = 8 * schema.ndim
    for a in schema.attributes:
        if a.is_native:
            size += a.type.numpy_dtype.itemsize
        else:
            size += 32
    return size


class DistributedArray:
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

    def _note_coords(self, coords: Coords) -> None:
        """Advance the per-dimension high-water marks (grid.deliver calls
        this under its delivery lock for every stored cell)."""
        hw = self._dim_highwater
        for i, c in enumerate(coords):
            if c > hw[i]:
                hw[i] = c

    # -- writes ------------------------------------------------------------------

    def write(self, coords: Coords, values: Optional[tuple]) -> None:
        """Route one cell to all of its replica sites.

        The primary copy is metered as ``"load"``, the extras as
        ``"replication"``.  Delivery is fire-and-forget: a transfer lost
        in flight (an injected drop, or a node crashing on this very
        tick) loses that copy silently, like a real lossy fabric.  Only
        when *every* replica site is already dead — no copy could
        possibly land — does the write raise :class:`QuorumError`.
        """
        sites = self.replica_sites(coords)
        if not any(self.grid.nodes[s].alive for s in sites):
            raise QuorumError(
                f"write {coords} to {self.name!r}: every replica site of "
                f"{sites} is dead"
            )
        for i, site in enumerate(sites):
            reason = "load" if i == 0 else "replication"
            self.grid.deliver(
                COORDINATOR, site, self.cell_nbytes, reason,
                self.name, coords, values,
            )
        self._dual_write(coords, values)

    def _dual_write(self, coords: Coords, values: Optional[tuple]) -> None:
        """During an elastic migration, land the write in its *new* homes
        too (metered ``"rebalance_dual"``), so no interleaving of ticks
        and writes can lose an update: whichever placement ends up
        serving after cutover-or-abort already has the cell."""
        mig = self._migration
        if mig is None:
            return
        old_sites = set(self.replica_sites(coords))
        for site in mig.new_chain(coords):
            if site in old_sites:
                continue
            try:
                if self.grid.deliver(
                    COORDINATOR, site, self.cell_nbytes, "rebalance_dual",
                    self.name, coords, values,
                ):
                    mig.note_delivered(coords, site)
            except TransientIOError:
                # Copy lost at the receiving disk: pre-cutover
                # verification re-queues it from the old home.
                pass
        mig.note_write(coords)

    def load(self, records: Iterable[LoadRecord]) -> int:
        n = 0
        for rec in records:
            self.write(rec.coords, rec.values)
            n += 1
        self.flush()
        return n

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
        sites = self.replica_sites(coords)
        serving = next(
            (s for s in sites if self.grid.nodes[s].alive), None
        )
        if serving is None:
            raise QuorumError(
                f"write {coords} to {self.name!r}: every replica site of "
                f"{sites} is dead"
            )
        failed_over = serving != sites[0]
        for site in sites:
            if site == serving:
                reason = "load_failover" if failed_over else "load"
            else:
                reason = "replication"
            self.grid.deliver(
                COORDINATOR, site, self.cell_nbytes, reason,
                self.name, coords, values,
            )
        self._dual_write(coords, values)
        return serving, failed_over

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
        of the partition's replica chain (cursor file + WAL ``load_commit``
        record).  The load survives:

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
                    self.name, home, values,
                )
            n += 1
        self.flush()
        return n

    def flush(self) -> None:
        for node in self.grid.alive_nodes():
            node.partition(self.name).flush()

    # -- partition reads with failover ---------------------------------------------

    def _attempt_read(
        self,
        site: int,
        p: int,
        window: Optional[tuple[Coords, Coords]],
        per_cell_reason: Optional[str],
        attempt: int,
        deadline: Optional[Deadline],
        buf: Optional[MeterBuffer] = None,
        attr_ranges: Optional[dict] = None,
    ) -> list[tuple[Coords, Optional[Cell]]]:
        """One read attempt of partition *p* against a single *site*.

        Sleeps any injected slow-read penalty (deadline-aware slices),
        then scans the site's partition restricted to coordinates whose
        primary is *p*.  Metering goes to the grid's ledger/counters
        directly, or into *buf* when this is a hedged attempt whose
        meters must stay private until it wins.

        Raises :class:`NodeFailedError` (node died, possibly mid-scan),
        :class:`TransientIOError` (injected read fault), or
        :class:`DeadlineExceededError` — classification is the caller's
        job.
        """
        grid = self.grid
        node = grid.nodes[site]
        faults = grid.faults
        if faults is not None:
            # May raise TransientIOError (scheduled read burst).
            penalty_ms = faults.intercept_read(site, p, attempt)
            if penalty_ms > 0.0:
                # Injected slowness at the serving site.  A real sleep
                # (not accounting): it releases the GIL, so concurrent
                # partition fetches overlap under the scheduler exactly
                # as network waits would — and it is sliced so a slow
                # site cannot carry the query past its deadline.
                sleep_under_deadline(
                    penalty_ms, deadline,
                    what=f"fetch of partition {p} from node {site}",
                )
        # Per-cell metering exists so the injector's transfer clock
        # ticks *during* the scan — a scheduled kill can land
        # mid-read and exercise the partial-read-discard path.
        # Without an injector the clock has no observer, and the
        # per-cell ledger/counter locks become the contention
        # hot-spot under parallel fan-out — so gathers are metered
        # as one bulk transfer per partition (same total bytes).
        meter_per_cell = per_cell_reason is not None and faults is not None
        if buf is None:
            record = grid.ledger.record
            bump = node.counters.add
        else:
            record = buf.record
            bump = lambda name, n=1: buf.counter(node, name, n)  # noqa: E731
        cells: list[tuple[Coords, Optional[Cell]]] = []
        seen = 0
        for coords, cell in node.scan_partition(
            self.name, window, attr_ranges
        ):
            seen += 1
            if deadline is not None and seen % 64 == 0:
                deadline.check(f"scan of partition {p} on node {site}")
            if self.partitioner.site_of(coords) != p:
                continue  # replica of another partition
            if meter_per_cell:
                bump("cells_scanned")
                record(
                    site, COORDINATOR, self.cell_nbytes, per_cell_reason
                )
            cells.append((coords, cell))
        if not meter_per_cell:
            # Local (un-gathered) reads count as scans too.
            bump("cells_scanned", len(cells))
            if per_cell_reason is not None and cells:
                record(
                    site, COORDINATOR,
                    len(cells) * self.cell_nbytes, per_cell_reason,
                )
        return cells

    def _hedge_backup_site(
        self, chain: tuple[int, ...], primary: int
    ) -> Optional[int]:
        """The replica a hedged read would back *primary* up with: the
        next alive site of the chain (wrapping) whose breaker admits a
        request; ``None`` when the chain offers no backup."""
        grid = self.grid
        start = chain.index(primary)
        for offset in range(1, len(chain)):
            site = chain[(start + offset) % len(chain)]
            if site == primary or not grid.nodes[site].alive:
                continue
            if grid.breakers[site].allow():
                return site
        return None

    def _hedged_attempt(
        self,
        site: int,
        backup: int,
        p: int,
        window: Optional[tuple[Coords, Coords]],
        per_cell_reason: Optional[str],
        attempt: int,
        deadline: Optional[Deadline],
        attr_ranges: Optional[dict] = None,
    ) -> tuple[int, list[tuple[Coords, Optional[Cell]]]]:
        """Read partition *p* from *site*, hedging against *backup*.

        The primary attempt runs in a helper thread, metering into a
        private :class:`MeterBuffer`.  If it has not answered within the
        hedge delay, a backup attempt is launched against *backup* and
        the first success wins; the winner's buffer is committed (on this
        thread, so the open operator span absorbs the movement) and the
        loser's is discarded — exactly-once accounting by construction.
        Each attempt settles its own site's breaker.  Raises the primary
        attempt's failure only after *both* attempts have failed.
        """
        grid = self.grid
        policy = grid.resilience
        results: "queue.Queue[tuple[int, Any, Optional[BaseException]]]" = (
            queue.Queue()
        )

        def run(attempt_site: int) -> None:
            buf = MeterBuffer()
            try:
                cells = self._attempt_read(
                    attempt_site, p, window, per_cell_reason,
                    attempt, deadline, buf, attr_ranges,
                )
            except BaseException as exc:  # classified by the consumer
                results.put((attempt_site, None, exc))
            else:
                results.put((attempt_site, (cells, buf), None))

        threading.Thread(
            target=run, args=(site,),
            name=f"repro-hedge-p{p}", daemon=True,
        ).start()
        launched = [site]
        delay_s = (policy.hedge.delay_ms or 0.0) / 1e3
        failures: list[tuple[int, BaseException]] = []
        deadline_exc: Optional[DeadlineExceededError] = None
        while True:
            try:
                timeout: Optional[float]
                if len(launched) == 1:
                    timeout = delay_s
                elif deadline is not None:
                    timeout = max(deadline.remaining_ms(), 1.0) / 1e3
                else:
                    timeout = None
                got = results.get(timeout=timeout)
            except queue.Empty:
                if len(launched) == 1:
                    # Hedge delay elapsed: launch the backup read.
                    grid._count_resilience("hedges")
                    tracing.add_current("hedges", 1)
                    threading.Thread(
                        target=run, args=(backup,),
                        name=f"repro-hedge-p{p}b", daemon=True,
                    ).start()
                    launched.append(backup)
                    continue
                # Both in flight and the deadline ran out while waiting.
                grid._count_resilience("deadline_misses")
                raise DeadlineExceededError(
                    deadline.budget_ms if deadline is not None else 0.0,
                    f"hedged read of partition {p}",
                )
            attempt_site, payload, exc = got
            if exc is None:
                cells, buf = payload
                buf.commit(grid)
                grid.breakers[attempt_site].record_success()
                if attempt_site != site:
                    grid._count_resilience("hedge_wins")
                    tracing.add_current("hedge_wins", 1)
                return attempt_site, cells
            if isinstance(exc, DeadlineExceededError):
                grid.breakers[attempt_site].abandon()
                deadline_exc = exc
            elif policy.retry.retryable(exc):
                grid.breakers[attempt_site].record_failure()
                failures.append((attempt_site, exc))
            else:
                grid.breakers[attempt_site].abandon()
                raise exc
            if len(launched) == 1:
                # Primary failed before the hedge fired: no point hedging
                # a request we can simply retry on the next chain site.
                break
            if len(failures) + (deadline_exc is not None) >= len(launched):
                break
        # The caller logs the *primary* site's failover when we raise; any
        # other failed attempt is logged here, attributed to its own site.
        for failed_site, _exc in failures:
            if failed_site != site:
                grid._log_failover(self.name, p, failed_site, attempt)
        if deadline_exc is not None:
            # Out of time beats out of retries: the deadline propagates.
            grid._count_resilience("deadline_misses")
            raise deadline_exc
        raise next((e for s, e in failures if s == site), failures[0][1])

    def _read_partition(
        self,
        p: int,
        window: Optional[tuple[Coords, Coords]] = None,
        per_cell_reason: Optional[str] = None,
        degraded: bool = False,
        attr_ranges: Optional[dict] = None,
    ) -> tuple[Optional[int], Optional[list[tuple[Coords, Optional[Cell]]]]]:
        """Read logical partition *p* from the first surviving replica,
        under the grid's :class:`~repro.cluster.resilience.ResiliencePolicy`.

        Walks the replica chain for up to ``retry.max_attempts`` passes.
        Per attempt: the ambient deadline is checked (cooperative
        cancellation), dead nodes are skipped (logged as failovers with
        capped, seeded-jitter backoff), nodes whose circuit breaker is
        open are skipped straight to their replicas (except on the final
        pass, where the breaker is forced as a half-open probe so an open
        breaker can never manufacture a :class:`QuorumError` against a
        reachable replica), and — when hedging is enabled and a backup
        replica exists — a backup read races the primary after the hedge
        delay.  A node dying *mid-scan* discards the partial read and
        fails over; transient read faults are absorbed the same way.

        Returns ``(serving_site, cells)`` where cells are restricted to
        coordinates whose primary is *p* — which both deduplicates
        replicas and makes per-partition reads exactly-once for
        aggregation.  With ``per_cell_reason`` set, each returned cell is
        metered as a transfer from the serving site to the coordinator.

        Raises :class:`QuorumError` when the chain is exhausted, or
        returns ``(None, None)`` instead if *degraded* is True;
        :class:`DeadlineExceededError` always propagates.
        """
        chain = self.partition_chain(p)
        grid = self.grid
        policy = grid.resilience
        deadline = current_deadline()
        attempt = 0
        for pass_no in range(1, policy.retry.max_attempts + 1):
            final_pass = pass_no == policy.retry.max_attempts
            for site in chain:
                attempt += 1
                if deadline is not None and deadline.expired:
                    grid._count_resilience("deadline_misses")
                    tracing.add_current("deadline_misses", 1)
                    deadline.check(f"read of partition {p}")
                node = grid.nodes[site]
                if not node.alive:
                    grid._log_failover(self.name, p, site, attempt)
                    continue
                breaker = grid.breakers[site]
                if not breaker.allow(force=final_pass):
                    grid._count_resilience("breaker_skips")
                    tracing.add_current("breaker_skips", 1)
                    continue
                backup = (
                    self._hedge_backup_site(chain, site)
                    if policy.hedge.enabled else None
                )
                try:
                    if backup is not None:
                        served, cells = self._hedged_attempt(
                            site, backup, p, window, per_cell_reason,
                            attempt, deadline, attr_ranges,
                        )
                    else:
                        cells = self._attempt_read(
                            site, p, window, per_cell_reason,
                            attempt, deadline, attr_ranges=attr_ranges,
                        )
                        breaker.record_success()
                        served = site
                except DeadlineExceededError:
                    if backup is None:
                        # The budget ran out, not the node: don't judge it.
                        breaker.abandon()
                        grid._count_resilience("deadline_misses")
                    tracing.add_current("deadline_misses", 1)
                    raise
                except Exception as exc:
                    if not policy.retry.retryable(exc):
                        if backup is None:
                            breaker.abandon()
                        raise
                    if backup is None:
                        breaker.record_failure()
                    # Failed over: charge the policy's capped backoff.
                    grid._log_failover(self.name, p, site, attempt)
                    continue
                if served != chain[0]:
                    grid.nodes[served].counters.add("failovers_served")
                tracing.mark_current("nodes", served)
                tracing.add_current("cells_scanned", len(cells))
                return served, cells
        fallback = self._dual_resolve_read(
            p, window, per_cell_reason, attr_ranges
        )
        if fallback is not None:
            return fallback
        if degraded:
            return None, None
        raise QuorumError(
            f"partition {p} of {self.name!r}: no surviving replica among "
            f"sites {chain} after {attempt} attempts"
        )

    def _dual_resolve_read(
        self,
        p: int,
        window: Optional[tuple[Coords, Coords]],
        per_cell_reason: Optional[str],
        attr_ranges: Optional[dict] = None,
    ) -> Optional[tuple[int, list[tuple[Coords, Optional[Cell]]]]]:
        """Serve partition *p* from the migration's *new* homes after the
        old chain is exhausted.

        During an elastic migration every already-moved (or dual-written)
        cell also lives at its new-placement sites; when the old chain is
        fully dead the read fails over to those copies.  Exactly-once is
        preserved: only cells whose *old* primary is *p* are served (the
        same dedup rule every chain read applies), each at most once; and
        metering follows the PR-6 :class:`MeterBuffer` pattern — buffered
        per contributing site and committed all-or-nothing, so a partial
        union scan that cannot cover the partition meters nothing.

        Returns ``None`` (not an error) when there is no migration or the
        new homes cannot account for every known cell of *p* — the caller
        then degrades or raises :class:`QuorumError` exactly as before.
        """
        mig = self._migration
        if mig is None:
            return None
        grid = self.grid
        deadline = current_deadline()
        buf = MeterBuffer()
        got: dict[Coords, tuple[int, Optional[Cell]]] = {}
        for site in mig.new_partitioner.sites():
            node = grid.nodes[site]
            if not node.alive:
                continue
            try:
                for coords, cell in node.scan_partition(
                    self.name, window, attr_ranges
                ):
                    if deadline is not None and len(got) % 64 == 0:
                        deadline.check(
                            f"dual-resolve of partition {p} on node {site}"
                        )
                    if self.partitioner.site_of(coords) != p:
                        continue  # belongs to another old partition
                    if coords in got:
                        continue  # already served by an earlier member
                    if not mig.trusted(coords, site):
                        continue  # stale resurrection: never serve it
                    got[coords] = (site, cell)
            except (NodeFailedError, TransientIOError):
                continue  # another member may still cover these cells
        # Completeness: every cell the migration knows belongs to p (and
        # the window) must have been found, else the answer would be
        # silently partial — fall back to the ordinary failure path.
        with mig._lock:
            known = list(mig.known)
        for coords in known:
            if self.partitioner.site_of(coords) != p:
                continue
            if window is not None and not all(
                l <= c <= h
                for c, l, h in zip(coords, window[0], window[1])
            ):
                continue
            if coords not in got:
                return None
        # Commit the buffered accounting only now that the read is known
        # complete: per-site bulk meters plus scan counters.
        per_site: dict[int, int] = {}
        for site, _cell in got.values():
            per_site[site] = per_site.get(site, 0) + 1
        for site, count in per_site.items():
            buf.counter(grid.nodes[site], "cells_scanned", count)
            if per_cell_reason is not None:
                buf.record(
                    site, COORDINATOR,
                    count * self.cell_nbytes, per_cell_reason,
                )
        buf.commit(grid)
        grid._count_resilience("dual_reads")
        served = (
            max(per_site, key=lambda s: (per_site[s], -s))
            if per_site
            else next(
                (
                    s for s in mig.new_partitioner.sites()
                    if grid.nodes[s].alive
                ),
                None,
            )
        )
        if served is None:
            return None
        cells = sorted(
            ((coords, cell) for coords, (_s, cell) in got.items()),
        )
        tracing.mark_current("nodes", served)
        tracing.add_current("cells_scanned", len(cells))
        tracing.add_current("dual_reads", 1)
        grid.nodes[served].counters.add("failovers_served")
        return served, cells

    def _read_partitions(
        self,
        window: Optional[tuple[Coords, Coords]] = None,
        per_cell_reason: Optional[str] = None,
        degraded: bool = False,
        partitions: Optional[Sequence[int]] = None,
        tolerate_deadline: bool = False,
        attr_ranges: Optional[dict] = None,
    ) -> list[tuple[Optional[int], Optional[list[tuple[Coords, Optional[Cell]]]]]]:
        """Fan :meth:`_read_partition` across partitions via the scheduler.

        Results come back in partition order regardless of which worker
        finished first, so every caller merges exactly as the serial path
        did.  A fully dead chain raises :class:`QuorumError` (first failing
        partition wins deterministically) unless *degraded* is set, in
        which case its slot is ``(None, None)``.  With *tolerate_deadline*
        (the ``on_unavailable="partial"`` path) a partition whose read ran
        out of deadline budget is likewise returned as ``(None, None)`` —
        partial coverage instead of a failed query.
        """
        if partitions is None:
            partitions = self.partitions()

        def read_one(p: int) -> tuple:
            try:
                return self._read_partition(
                    p, window, per_cell_reason, degraded, attr_ranges
                )
            except DeadlineExceededError:
                if not tolerate_deadline:
                    raise
                return None, None

        return self.grid.scheduler.map(
            [(lambda p=p: read_one(p)) for p in partitions]
        )

    # -- reads -------------------------------------------------------------------

    def scan(
        self,
        window: Optional[tuple[Coords, Coords]] = None,
        degraded: bool = False,
        attr_ranges: Optional[dict] = None,
    ) -> Iterator[tuple[Coords, Optional[Cell]]]:
        """Gather (windowed) cells at the coordinator, metering the gather.

        Reads each logical partition from its first surviving replica, so
        the scan survives up to ``replication - 1`` failures per chain.
        A partition with no surviving replica raises
        :class:`~repro.core.errors.QuorumError` — or, with
        ``degraded=True``, is silently skipped (partial answer).
        *attr_ranges* forwards the planner's value-pruning intervals to
        every node's storage manager (chunk skipping; pruned buckets'
        occupied cells come back NULL).
        """
        for p, (_site, cells) in zip(
            self.partitions(),
            self._read_partitions(
                window, "gather", degraded, attr_ranges=attr_ranges
            ),
        ):
            if cells is None:
                if degraded:
                    continue
                # Defensive: _read_partition raises before returning None
                # on the strict path, but an error here must never be an
                # assert — `python -O` would turn a dead chain into
                # silent data loss.
                raise QuorumError(
                    f"partition {p} of {self.name!r}: no surviving replica"
                )
            yield from cells

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
        partial = degraded or _wants_partial(on_unavailable)
        out = SciArray(self.schema, name=f"{self.name}_window")
        missing: list[tuple[str, int]] = []
        with deadline_scope(deadline):
            for p, (_site, cells) in zip(
                self.partitions(),
                self._read_partitions(
                    window, "gather", partial,
                    tolerate_deadline=_wants_partial(on_unavailable),
                    attr_ranges=attr_ranges,
                ),
            ):
                if cells is None:
                    missing.append((self.name, p))
                    continue
                for coords, cell in cells:
                    out.set_unchecked(
                        coords, None if cell is None else cell.values
                    )
        if partial:
            report = CoverageReport(len(self.partitions()), tuple(missing))
            return DegradedResult(out, report)
        return out

    def materialize(self, attr_ranges: Optional[dict] = None) -> SciArray:
        # Partition reads yield schema-conforming cells at 1-based coords,
        # so the checked set() path (coord normalisation, bounds, record
        # coercion) is pure overhead here — and this loop is the gather
        # hot path for every distributed operator.
        out = SciArray(self.schema, name=self.name)
        unchecked = out.set_unchecked
        for coords, cell in self.scan(attr_ranges=attr_ranges):
            unchecked(coords, None if cell is None else cell.values)
        return out

    # -- distributed operators ----------------------------------------------------

    def aggregate(
        self,
        group_dims: Sequence[str],
        agg: "str | UserAggregate",
        attr: Optional[str] = None,
        degraded: bool = False,
        deadline: Optional[Deadline] = None,
        on_unavailable: str = "raise",
    ) -> "SciArray | DegradedResult":
        """Grouped aggregation with local partials where algebraic.

        Each logical partition is aggregated exactly once, at the serving
        site of its replica chain — so the partials stay node-local even
        when the primary is dead, and replicas are never double-counted.
        *deadline* / *on_unavailable* behave as in :meth:`subsample`.
        """
        aggregate_fn = agg if isinstance(agg, UserAggregate) else get_aggregate(agg)
        attr_name = attr or self.schema.attr_names[0]
        positions = [self.schema.dim_index(d) for d in group_dims]
        merge = _ALGEBRAIC_MERGES.get(aggregate_fn.name)
        tolerate_deadline = _wants_partial(on_unavailable)
        partial_mode = degraded or tolerate_deadline

        merged: dict[Coords, Any] = {}
        missing: list[tuple[str, int]] = []
        with deadline_scope(deadline):
            self._aggregate_partials(
                merge, aggregate_fn, attr_name, positions,
                partial_mode, tolerate_deadline, merged, missing,
            )

        out = content_ops.write_states(
            content_ops.group_output(
                f"{self.name}_agg", f"{self.name}_agg", aggregate_fn,
                (self.schema.dimensions[p] for p in positions),
            ),
            aggregate_fn, merged,
        )
        if partial_mode:
            report = CoverageReport(len(self.partitions()), tuple(missing))
            return DegradedResult(out, report)
        return out

    def _aggregate_partials(
        self,
        merge: Optional[Callable[[Any, Any], Any]],
        aggregate_fn: UserAggregate,
        attr_name: str,
        positions: list[int],
        degraded: bool,
        tolerate_deadline: bool,
        merged: dict[Coords, Any],
        missing: list[tuple[str, int]],
    ) -> None:
        """Run :meth:`aggregate`'s read/transition phase into *merged*."""
        def key_of(coords: Coords) -> Coords:
            return tuple(coords[q] for q in positions)

        if merge is not None:
            # Algebraic: the local phase (scan + per-group transitions)
            # runs in scheduler workers; the coordinator merges partial
            # states in partition order, so float accumulation order — and
            # therefore the result, bit for bit — matches the serial path.
            def local_phase(p: int) -> Optional[tuple[int, dict[Coords, Any]]]:
                try:
                    site, cells = self._read_partition(p, degraded=degraded)
                except DeadlineExceededError:
                    if not tolerate_deadline:
                        raise
                    return None
                if cells is None:
                    return None
                return site, content_ops.fold_cells(
                    cells, key_of, aggregate_fn, attr_name
                )

            partials = self.grid.scheduler.map(
                [
                    (lambda p=p: local_phase(p))
                    for p in self.partitions()
                ]
            )
            for p, partial in zip(self.partitions(), partials):
                if partial is None:
                    missing.append((self.name, p))
                    continue
                self._merge_partial(*partial, merge, merged, "aggregate")
        else:
            # Holistic user aggregate: ship raw values to the coordinator.
            # Reads fan out; the transitions themselves stay coordinator-
            # side and in partition order (holistic state is not mergeable,
            # and order-dependent aggregates must see the serial order).
            def shipped(site: int, cells: Iterable) -> Iterator:
                # Ledger each PRESENT cell as the fold consumes it.
                for item in cells:
                    if item[1] is not None:
                        self.grid.ledger.record(
                            site, COORDINATOR, self.cell_nbytes, "aggregate"
                        )
                    yield item

            for p, (site, cells) in zip(
                self.partitions(),
                self._read_partitions(
                    degraded=degraded, tolerate_deadline=tolerate_deadline
                ),
            ):
                if cells is None:
                    missing.append((self.name, p))
                    continue
                content_ops.fold_cells(
                    shipped(site, cells), key_of, aggregate_fn, attr_name, merged
                )

    def _merge_partial(
        self,
        site: int,
        local: dict[Coords, Any],
        merge: Callable[[Any, Any], Any],
        merged: dict[Coords, Any],
        reason: str,
    ) -> None:
        """Ship one partition's partial states to the coordinator (24 B
        each, the partial-state wire estimate) and merge them in."""
        for key, state in local.items():
            self.grid.ledger.record(site, COORDINATOR, 24, reason)
            merged[key] = merge(merged[key], state) if key in merged else state

    def sjoin(
        self,
        other: "DistributedArray",
        on: Optional[Sequence[tuple[str, str]]] = None,
        degraded: bool = False,
    ) -> "SciArray | DegradedResult":
        """Structured join of two distributed arrays on all dimensions.

        Co-partitioned operands (equal partitioners — see
        :func:`repro.cluster.copartition.is_copartitioned`) join locally
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

        missing: list[tuple[str, int]] = []
        copartitioned = self.partitioner == other.partitioner

        # Read every left partition in parallel (no per-cell metering: the
        # join runs at the serving site, which holds the cells locally).
        left_served: dict[int, tuple[int, list]] = {}
        for p, (site, cells) in zip(
            self.partitions(), self._read_partitions(degraded=degraded)
        ):
            if cells is None:
                missing.append((self.name, p))
                continue
            left_served[p] = (site, cells)

        # Assemble the right side per left partition.
        right_parts: dict[int, SciArray] = {
            p: SciArray(other.schema, name=f"{other.name}@p{p}")
            for p in left_served
        }
        total_partitions = len(self.partitions())
        if copartitioned:
            live = sorted(left_served)
            right_reads = other._read_partitions(
                degraded=degraded, partitions=live
            )
            for p, (r_site, r_cells) in zip(live, right_reads):
                if r_cells is None:
                    missing.append((other.name, p))
                    continue
                left_site = left_served[p][0]
                for coords, cell in r_cells:
                    if r_site != left_site:
                        # Replica chains diverge (different k/placement):
                        # the right cells must travel to the join site.
                        self.grid.ledger.record(
                            r_site, left_site, other.cell_nbytes, "join_shuffle"
                        )
                    right_parts[p].set(coords, cell)
        else:
            # Shuffle right cells to the site joining the matching left cell.
            total_partitions += len(other.partitions())
            for q, (r_site, r_cells) in zip(
                other.partitions(),
                other._read_partitions(degraded=degraded),
            ):
                if r_cells is None:
                    missing.append((other.name, q))
                    continue
                for coords, cell in r_cells:
                    target = self.partitioner.site_of(coords)
                    if target not in left_served:
                        continue  # left side lost: nothing to join against
                    left_site = left_served[target][0]
                    if r_site != left_site:
                        self.grid.ledger.record(
                            r_site, left_site, other.cell_nbytes, "join_shuffle"
                        )
                    right_parts[target].set(coords, cell)

        # Local joins are pure per partition: fan them out, merge the
        # results (and meter the gathers) serially in partition order.
        def local_join(
            p: int, left_site: int, cells: list
        ) -> Optional[SciArray]:
            left = SciArray(self.schema, name=f"{self.name}@p{p}")
            for coords, cell in cells:
                left.set(coords, cell)
            right = right_parts[p]
            if left.count_occupied() == 0 or right.count_occupied() == 0:
                return None
            return structural_ops.sjoin(left, right, on=on)

        ordered = sorted(left_served)
        locals_ = self.grid.scheduler.map(
            [
                (lambda p=p: local_join(p, *left_served[p]))
                for p in ordered
            ]
        )
        out: Optional[SciArray] = None
        for p, local in zip(ordered, locals_):
            if local is None:
                continue
            left_site = left_served[p][0]
            self.grid.ledger.record(
                left_site,
                COORDINATOR,
                local.count_occupied() * (self.cell_nbytes + other.cell_nbytes),
                "gather",
            )
            if out is None:
                out = local.empty_like(name=f"{self.name}_sjoin_{other.name}")
            for coords, cell in local.cells():
                out.set(coords, cell)
        if out is None:
            # Build an empty result with the joined schema.
            left = SciArray(self.schema)
            right = SciArray(other.schema)
            out = structural_ops.sjoin(left, right, on=on)
        if degraded:
            report = CoverageReport(total_partitions, tuple(missing))
            return DegradedResult(out, report)
        return out

    def filter(
        self,
        predicate,
        output_name: Optional[str] = None,
    ) -> "DistributedArray":
        """Distributed Filter: runs node-local with **zero** movement.

        Filter preserves cell addresses, so each node filters its own
        partition in place under the same partitioner — replica copies
        included, which keeps the output replicated exactly like the
        input.  Nodes that die mid-filter are skipped: their partitions'
        surviving replicas still produce complete output copies.
        """
        self._check_coverage()
        out = self.grid.create_array(
            output_name or f"{self.name}_filtered", self.schema,
            self.partitioner, stride=self.stride,
            replication=self.replication, placement=self.placement,
        )
        # Filter preserves addresses, so the extent high-water carries over.
        out._dim_highwater = list(self._dim_highwater)

        def filter_node(node: Node) -> None:
            try:
                target = node.partition(out.name)
                for coords, cell in node.scan_partition(self.name):
                    if cell is not None and predicate(cell):
                        target.append(coords, cell.values)
                    else:
                        target.append(coords, None)
                target.flush()
            except NodeFailedError:
                pass  # replicas on surviving nodes cover this partition

        # Node-local, zero movement: one task per node touches only that
        # node's storage, so the fan-out needs no cross-task coordination.
        self.grid.scheduler.map(
            [
                (lambda node=node: filter_node(node))
                for node in self.grid.alive_nodes()
            ]
        )
        return out

    def apply(
        self,
        fn,
        output: Sequence[tuple[str, str]],
        output_name: Optional[str] = None,
    ) -> "DistributedArray":
        """Distributed Apply: node-local per-cell computation, no movement."""
        from ..core.schema import define_array

        self._check_coverage()
        out_schema = define_array(
            f"{self.schema.name}_applied",
            values=list(output),
            dims=[(d.name, d.size) for d in self.schema.dimensions],
        )
        out = self.grid.create_array(
            output_name or f"{self.name}_applied", out_schema,
            self.partitioner, stride=self.stride,
            replication=self.replication, placement=self.placement,
        )
        out._dim_highwater = list(self._dim_highwater)
        n_out = len(output)

        def apply_node(node: Node) -> None:
            try:
                target = node.partition(out.name)
                for coords, cell in node.scan_partition(self.name):
                    if cell is None:
                        target.append(coords, None)
                        continue
                    result = fn(cell)
                    if n_out == 1 and not isinstance(result, tuple):
                        result = (result,)
                    target.append(coords, result)
                target.flush()
            except NodeFailedError:
                pass

        self.grid.scheduler.map(
            [
                (lambda node=node: apply_node(node))
                for node in self.grid.alive_nodes()
            ]
        )
        return out

    def _check_coverage(self) -> None:
        """Raise QuorumError if any partition has lost every replica."""
        for p in self.partitions():
            chain = self.partition_chain(p)
            if not any(self.grid.nodes[s].alive for s in chain):
                raise QuorumError(
                    f"partition {p} of {self.name!r}: every replica site "
                    f"of {chain} is dead"
                )

    def regrid(
        self,
        factors: Sequence[int],
        agg: "str | UserAggregate" = "avg",
        attr: Optional[str] = None,
    ) -> SciArray:
        """Distributed Regrid: local partial aggregation per output block,
        merged at the coordinator (algebraic aggregates only).

        Output blocks can straddle partition boundaries, so unlike
        :meth:`filter`/:meth:`apply` this moves partial states — metered as
        ``"regrid"``.
        """
        aggregate_fn = agg if isinstance(agg, UserAggregate) else get_aggregate(agg)
        merge = _ALGEBRAIC_MERGES.get(aggregate_fn.name)
        if merge is None:
            raise SchemaError(
                f"distributed regrid needs an algebraic aggregate, "
                f"not {aggregate_fn.name!r}"
            )
        attr_name = attr or self.schema.attr_names[0]
        if len(factors) != self.schema.ndim:
            raise SchemaError(
                f"regrid needs {self.schema.ndim} factors, got {len(factors)}"
            )
        def local_phase(p: int) -> tuple[int, dict[Coords, Any]]:
            site, cells = self._read_partition(p)
            if site is None or cells is None:  # pragma: no cover - defensive
                raise QuorumError(
                    f"partition {p} of {self.name!r}: no surviving replica"
                )
            return site, content_ops.fold_cells(
                cells,
                lambda coords: tuple(
                    (c - 1) // f + 1 for c, f in zip(coords, factors)
                ),
                aggregate_fn, attr_name,
            )

        partials = self.grid.scheduler.map(
            [
                (lambda p=p: local_phase(p))
                for p in self.partitions()
            ]
        )
        merged: dict[Coords, Any] = {}
        for site, local in partials:
            self._merge_partial(site, local, merge, merged, "regrid")
        return content_ops.write_states(
            content_ops.group_output(
                f"{self.name}_regrid", f"{self.name}_regrid", aggregate_fn,
                (
                    Dimension(d.name, (self._extent(i) + f - 1) // f)
                    for i, (d, f) in enumerate(
                        zip(self.schema.dimensions, factors)
                    )
                ),
            ),
            aggregate_fn, merged,
        )

    def _extent(self, dim_index: int) -> int:
        declared = self.schema.dimensions[dim_index].size
        if declared is not None:
            return declared
        # Unbounded: the per-dimension high-water mark maintained on every
        # write/ingest (see _note_coords) — O(1), no storage rescans.
        return self._dim_highwater[dim_index]

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
        collected: list[tuple[int, Coords, Optional[tuple]]] = []
        for p, (site, cells) in zip(self.partitions(), self._read_partitions()):
            if site is None or cells is None:  # pragma: no cover - defensive
                raise QuorumError(
                    f"partition {p} of {self.name!r}: no surviving replica"
                )
            for coords, cell in cells:
                collected.append(
                    (site, coords, None if cell is None else cell.values)
                )
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
        for src_site, coords, values in collected:
            new_primary = new_partitioner.site_of(coords)
            if new_primary != self.partitioner.site_of(coords):
                moved += 1
            chain = self.chain_under(new_partitioner, new_primary)
            for dst in chain:
                if coords in prior.get(dst, ()):
                    # Already resident before the migration: free.
                    node = self.grid.nodes[dst]
                    if node.alive:
                        node.store(self.name, coords, values)
                    continue
                self.grid.deliver(
                    src_site, dst, self.cell_nbytes, "repartition",
                    self.name, coords, values,
                )
        self.flush()
        self.partitioner = new_partitioner
        return moved


class _PartitionLoadSink:
    """One logical partition's substream target for the checkpointed loader.

    The :class:`~repro.storage.loader.BulkLoader` sees the same sink
    surface a :class:`~repro.storage.manager.PersistentArray` offers
    (``schema``/``append``/``flush``/``load_cursor``/``commit_load_batch``)
    but every append routes through the grid's failover write and every
    checkpoint commits on each surviving site of the partition's replica
    chain — so the checkpoint survives exactly the failures the data does.
    """

    def __init__(self, array: DistributedArray, partition: int) -> None:
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


class Grid:
    """A simulated shared-nothing cluster rooted at one directory."""

    def __init__(
        self,
        n_nodes: int,
        directory: "str | Path",
        memory_budget: int = 1 << 20,
        fault_injector: Optional[FaultInjector] = None,
        default_replication: int = 1,
        parallelism: Optional[int] = None,
        chunk_cache_bytes: int = 8 << 20,
        resilience: Optional[ResiliencePolicy] = None,
    ) -> None:
        if n_nodes < 1:
            raise PartitioningError("a grid needs at least one node")
        directory = Path(directory)
        # Remembered for elastic growth: add_node() provisions new
        # workers with the same storage knobs as the founding members.
        self.directory = directory
        self.memory_budget = memory_budget
        self.chunk_cache_bytes = chunk_cache_bytes
        self.nodes = [
            Node(
                i,
                directory / f"node_{i:03d}",
                memory_budget=memory_budget,
                chunk_cache_bytes=chunk_cache_bytes,
            )
            for i in range(n_nodes)
        ]
        self.ledger = DataMovementLedger()
        self.default_replication = default_replication
        # The resilience bundle: an explicit policy wins; otherwise the
        # default one, seeded from the fault injector so jitter is
        # drill-reproducible.
        if resilience is None:
            resilience = ResiliencePolicy(
                retry=RetryPolicy(
                    seed=fault_injector.seed if fault_injector is not None
                    else 0,
                ),
            )
        self.resilience = resilience
        self.breakers = [
            CircuitBreaker(f"node_{i}", resilience.breaker)
            for i in range(n_nodes)
        ]
        self._resilience_lock = threading.Lock()
        self.resilience_counters: dict[str, int] = {
            "hedges": 0,
            "hedge_wins": 0,
            "breaker_skips": 0,
            "deadline_misses": 0,
            "dual_reads": 0,
        }
        self.failover_log: list[FailoverEvent] = []
        #: simulated latency charged by slow-site faults (the grid never sleeps)
        self.store_latency_ms = 0.0
        self.faults: Optional[FaultInjector] = None
        if fault_injector is not None:
            fault_injector.attach(self)
        # Intra-query fan-out.  Fault drills run at full parallelism too:
        # the injector is thread-safe and its randomness is keyed (not a
        # shared stream), so a drill is reproducible from (workload, seed)
        # even when scheduler workers race — the old force-serial special
        # case for fault-injected grids is gone.
        if parallelism is None:
            parallelism = default_parallelism(n_nodes)
        self.parallelism = parallelism
        self.scheduler = PartitionScheduler(parallelism)
        # Writes and failover logging are cross-node critical sections.
        self._deliver_lock = threading.RLock()
        self._failover_lock = threading.Lock()
        self._arrays: dict[str, DistributedArray] = {}
        # Elastic-operations bookkeeping: in-flight migrations, finished
        # migration reports, and node rebuild reports — all surfaced in
        # metrics_snapshot() / explain.
        self.active_rebalancers: list[Rebalancer] = []
        self.rebalance_log: list[RebalanceReport] = []
        self.rebuilds: list[RebuildReport] = []

    # -- liveness --------------------------------------------------------------------

    def alive_nodes(self) -> list[Node]:
        return [node for node in self.nodes if node.alive]

    def members(self) -> tuple[int, ...]:
        """Node ids currently part of the grid.  Retired slots are
        excluded but never renumbered — a node id is forever."""
        return tuple(n.node_id for n in self.nodes if not n.retired)

    # -- elastic membership ----------------------------------------------------------

    def _ring_target(
        self, arr: "DistributedArray", members: tuple[int, ...]
    ) -> Partitioner:
        """The partitioner *arr* should migrate to for *members*.

        Ring-partitioned arrays keep their ring with the membership
        delta applied — that is what bounds movement at ~1/(N+1) per
        added/removed member.  Any other scheme converts to a consistent
        hash ring, a one-time full reshuffle that buys every later
        membership change the cheap path.
        """
        from .partitioning import ConsistentHashPartitioner

        if len(members) < arr.replication:
            raise PartitioningError(
                f"array {arr.name!r} needs {arr.replication} members for "
                f"its replica chains; membership would be {members}"
            )
        current = arr.partitioner
        if isinstance(current, ConsistentHashPartitioner):
            out = current
            for m in sorted(set(members) - set(current.members)):
                out = out.with_member(m)
            for m in sorted(set(current.members) - set(members)):
                out = out.without_member(m)
            return out
        return ConsistentHashPartitioner(len(self.nodes), members=members)

    def add_node(
        self,
        max_transfer_cells_per_tick: int = 64,
        interleave: Optional[Callable[[], None]] = None,
    ) -> tuple[int, list[RebalanceReport]]:
        """Grow the grid by one worker, online.

        Provisions the node with the grid's storage knobs, then migrates
        every array to a ring including the new member — throttled
        background copies (metered ``"rebalance"``) interleaved with
        serving traffic, moving only ~1/(N+1) of each array's cells.
        Returns the new node id and one report per migrated array.
        """
        nid = len(self.nodes)
        node = Node(
            nid,
            self.directory / f"node_{nid:03d}",
            memory_budget=self.memory_budget,
            chunk_cache_bytes=self.chunk_cache_bytes,
        )
        self.nodes.append(node)
        self.breakers.append(
            CircuitBreaker(f"node_{nid}", self.resilience.breaker)
        )
        for name, arr in self._arrays.items():
            node.create_partition(name, arr.schema, stride=arr.stride)
        _flight_emit("node_add", node=nid, members=len(self.nodes))
        members = self.members()
        reports: list[RebalanceReport] = []
        for name in self.names():
            arr = self._arrays[name]
            reports.append(
                self.rebalance(
                    name, self._ring_target(arr, members),
                    max_transfer_cells_per_tick=max_transfer_cells_per_tick,
                    interleave=interleave,
                )
            )
        return nid, reports

    def drain_node(
        self,
        node_id: int,
        max_transfer_cells_per_tick: int = 64,
        interleave: Optional[Callable[[], None]] = None,
    ) -> list[RebalanceReport]:
        """Move every chunk off *node_id*, online.

        The node stays up as an empty standby (it serves old-chain reads
        until each array's cutover) — :meth:`remove_node` retires it for
        good.  Each array migrates to its ring minus the drained member;
        with replication, sources come from surviving chain copies, so a
        drain can even evacuate a dead node's logical data.
        """
        node = self.nodes[node_id]
        if node.retired:
            raise GridError(f"node {node_id} is retired")
        members = tuple(m for m in self.members() if m != node_id)
        if not members:
            raise GridError("cannot drain the grid's last member")
        _flight_emit("node_drain", node=node_id, remaining=len(members))
        reports: list[RebalanceReport] = []
        for name in self.names():
            arr = self._arrays[name]
            target = self._ring_target(arr, members)
            if target.descriptor() == arr.partitioner.descriptor():
                continue  # already places nothing on node_id
            reports.append(
                self.rebalance(
                    name, target,
                    max_transfer_cells_per_tick=max_transfer_cells_per_tick,
                    interleave=interleave,
                )
            )
        return reports

    def remove_node(
        self,
        node_id: int,
        max_transfer_cells_per_tick: int = 64,
        interleave: Optional[Callable[[], None]] = None,
    ) -> list[RebalanceReport]:
        """Drain *node_id*, then retire it (``alive=False``,
        ``retired=True``).  If any drain migration aborts the node is
        left in place, still serving — removal is all-or-nothing."""
        node = self.nodes[node_id]
        if node.retired:
            raise GridError(f"node {node_id} is already retired")
        reports = self.drain_node(
            node_id,
            max_transfer_cells_per_tick=max_transfer_cells_per_tick,
            interleave=interleave,
        )
        failed = [r.array for r in reports if r.aborted]
        if failed:
            raise GridError(
                f"drain of node {node_id} aborted for {failed}; "
                f"node not removed"
            )
        node.retired = True
        node.alive = False
        _flight_emit("node_remove", node=node_id)
        return reports

    # -- online rebalancing ----------------------------------------------------------

    def start_rebalance(
        self,
        array_name: str,
        new_partitioner: Partitioner,
        max_transfer_cells_per_tick: int = 64,
    ) -> Rebalancer:
        """Plan a throttled migration and attach it to the array
        (dual-homed writes, dual-resolve read fallback) without running
        it — chaos drills drive ``tick()``/``finalize()`` themselves so
        kills and scans can land between any two ticks."""
        arr = self.get_array(array_name)
        rb = Rebalancer(
            self, arr, new_partitioner,
            max_transfer_cells_per_tick=max_transfer_cells_per_tick,
        )
        rb.plan()
        self.active_rebalancers.append(rb)
        return rb

    def rebalance(
        self,
        array_name: str,
        new_partitioner: Partitioner,
        max_transfer_cells_per_tick: int = 64,
        interleave: Optional[Callable[[], None]] = None,
        max_ticks: Optional[int] = None,
    ) -> RebalanceReport:
        """Migrate one array to *new_partitioner* as a throttled
        background task; *interleave* — the serving traffic the
        migration must not starve — runs between ticks."""
        rb = self.start_rebalance(
            array_name, new_partitioner,
            max_transfer_cells_per_tick=max_transfer_cells_per_tick,
        )
        return rb.run(interleave=interleave, max_ticks=max_ticks)

    def _rebalance_done(
        self, rebalancer: Rebalancer, report: RebalanceReport
    ) -> None:
        if rebalancer in self.active_rebalancers:
            self.active_rebalancers.remove(rebalancer)
        self.rebalance_log.append(report)

    def rebalance_snapshot(self) -> dict[str, Any]:
        """Progress of in-flight migrations plus finished-run totals."""
        return {
            "active": [rb.progress() for rb in self.active_rebalancers],
            "completed": [asdict(r) for r in self.rebalance_log],
            "cells_moved": sum(r.cells_moved for r in self.rebalance_log),
            "copies_delivered": sum(
                r.copies_delivered for r in self.rebalance_log
            ),
            "throttle_hits": sum(
                r.throttle_hits for r in self.rebalance_log
            ) + sum(rb.throttle_hits for rb in self.active_rebalancers),
            "aborted": sum(1 for r in self.rebalance_log if r.aborted),
        }

    # -- observability ---------------------------------------------------------------

    def metrics_snapshot(self) -> dict[str, Any]:
        """One unified, JSON-able view of the grid's accounting: the
        movement ledger, per-node work counters and storage stats, the
        failover log, and simulated store latency."""
        return {
            "parallelism": self.parallelism,
            "ledger": {
                "total_bytes": self.ledger.total_bytes(),
                "by_reason": self.ledger.by_reason(),
                "transfers": len(self.ledger.transfers),
                "dropped_bytes": self.ledger.dropped_bytes(),
                "dropped": len(self.ledger.dropped),
            },
            "nodes": [
                {
                    "node_id": node.node_id,
                    "alive": node.alive,
                    "retired": node.retired,
                    **node.counters.snapshot(),
                    "storage": node.storage.total_stats(),
                    "chunk_cache": (
                        node.storage.chunk_cache.stats()
                        if node.storage.chunk_cache is not None
                        else None
                    ),
                }
                for node in self.nodes
            ],
            "failovers": len(self.failover_log),
            "store_latency_ms": self.store_latency_ms,
            "resilience": self.resilience_snapshot(),
            "rebalance": self.rebalance_snapshot(),
            "rebuilds": [asdict(r) for r in self.rebuilds],
            "arrays": sorted(self._arrays),
        }

    def resilience_snapshot(self) -> dict[str, Any]:
        """Retry/breaker/hedge accounting for reconciliation: policy
        parameters, the grid-wide counters, and per-node breaker states
        (with their full transition counts)."""
        with self._resilience_lock:
            counters = dict(self.resilience_counters)
        return {
            "policy": self.resilience.describe(),
            "failovers": len(self.failover_log),
            **counters,
            "breaker_transitions": sum(
                len(b.transitions) for b in self.breakers
            ),
            "breakers": [b.snapshot() for b in self.breakers],
        }

    def _count_resilience(self, name: str, n: int = 1) -> None:
        with self._resilience_lock:
            self.resilience_counters[name] = (
                self.resilience_counters.get(name, 0) + n
            )
        if name == "deadline_misses":
            _flight_emit("deadline_miss", count=n)

    def _log_failover(self, array: str, partition: int, site: int,
                      attempt: int) -> None:
        backoff_ms = self.resilience.retry.backoff_ms(
            attempt, key=(array, partition)
        )
        with self._failover_lock:
            self.failover_log.append(
                FailoverEvent(array, partition, site, attempt, backoff_ms)
            )
        self.nodes[site].counters.add("read_retries")
        tracing.add_current("failovers", 1)

    # -- the delivery fabric -----------------------------------------------------------

    def deliver(
        self,
        src: int,
        dst: int,
        nbytes: int,
        reason: str,
        array_name: str,
        coords: Coords,
        values: Optional[tuple],
    ) -> bool:
        """Send one cell to a node, through the fault injector.

        Returns True when the cell was stored.  Deliveries to a dead node
        — or eaten by an injected drop — are recorded in the ledger's
        ``dropped`` list instead of the transfer log.  Metering happens
        *before* the store, so a scheduled kill firing on this transfer
        loses the cell, exactly like a real crash between receive and ack.
        """
        # One delivery at a time grid-wide: the injector's RNG draw, the
        # liveness check, the metered record (which may fire a kill) and
        # the store must stay one atomic sequence even when scheduler
        # workers (parallel repartition/rebuild) deliver concurrently.
        with self._deliver_lock:
            node = self.nodes[dst]
            if not node.alive:
                self.ledger.record_dropped(src, dst, nbytes, reason)
                return False
            if self.faults is not None:
                verdict, values = self.faults.intercept(
                    src, dst, nbytes, reason, values
                )
                if verdict == "drop":
                    self.ledger.record_dropped(src, dst, nbytes, reason)
                    return False
                # Transient I/O fault at the receiving disk: the bytes moved
                # but nothing was stored.  Recorded as dropped, then raised
                # for the loader's bounded-retry policy to absorb.
                try:
                    self.store_latency_ms += self.faults.intercept_store(dst)
                except TransientIOError:
                    self.ledger.record_dropped(src, dst, nbytes, reason)
                    raise
            self.ledger.record(src, dst, nbytes, reason)  # may fire a kill
            if not node.alive:
                return False
            node.counters.add("bytes_received", nbytes)
            if 0 <= src < len(self.nodes):
                self.nodes[src].counters.add("bytes_sent", nbytes)
            node.store(array_name, coords, values)
            arr = self._arrays.get(array_name)
            if arr is not None:
                arr._note_coords(coords)
            return True

    # -- catalog ------------------------------------------------------------------------

    def create_array(
        self,
        name: str,
        schema: ArraySchema,
        partitioner: Partitioner,
        stride: Optional[Sequence[int]] = None,
        replication: Optional[int] = None,
        placement: Optional[ReplicaPlacement] = None,
    ) -> DistributedArray:
        if name in self._arrays:
            raise PartitioningError(f"distributed array {name!r} already exists")
        for node in self.alive_nodes():
            node.create_partition(name, schema, stride=stride)
        arr = DistributedArray(
            self, name, schema, partitioner,
            replication=replication if replication is not None
            else self.default_replication,
            placement=placement,
            stride=stride,
        )
        self._arrays[name] = arr
        return arr

    def get_array(self, name: str) -> DistributedArray:
        try:
            return self._arrays[name]
        except KeyError:
            raise PartitioningError(f"no distributed array named {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._arrays)

    # -- node rebuild -------------------------------------------------------------------

    def rebuild_node(self, node_id: int) -> RebuildReport:
        """Bring a crashed node back: WAL replay plus replica copy-back.

        The node restarts with empty storage (a crash loses all in-memory
        state; only the per-node write-ahead log survives on disk).  The
        rebuild then (1) re-creates every registered partition, (2)
        replays the WAL — a torn tail legally ends the replay early — and
        (3) copies every cell the node should hold but doesn't (WAL gaps,
        writes that happened while it was down) from the first surviving
        replica in each affected chain, metered as ``"rebuild"``.
        """
        node = self.nodes[node_id]
        if node.retired:
            raise GridError(f"node {node_id} is retired; nothing to rebuild")
        node.restart()
        try:
            for name, arr in self._arrays.items():
                node.create_partition(name, arr.schema, stride=arr.stride)
            from_wal = node.replay_wal(set(self._arrays))
        except StorageError:
            # A damaged WAL aborts the rebuild; the node must not come
            # back up half-empty pretending to be healthy.
            node.fail()
            raise
        before = self.ledger.total_bytes("rebuild")

        def copy_partition(name: str, arr: DistributedArray, p: int,
                           have: frozenset[Coords]) -> int:
            """Copy partition *p*'s missing cells from a surviving replica.

            `have` is a task-local snapshot: the coords each task copies
            belong to its own partition only (filtered by ``site_of``), so
            partition tasks never race on the same cell address.
            """
            chain = arr.partition_chain(p)
            local_have = set(have)
            copied = 0
            sources = [
                s for s in chain
                if s != node_id and self.nodes[s].alive
            ]
            for source in sources:
                try:
                    for coords, cell in self.nodes[source].scan_partition(
                        name
                    ):
                        if arr.partitioner.site_of(coords) != p:
                            continue
                        if coords in local_have:
                            continue
                        values = None if cell is None else cell.values
                        if self.deliver(
                            source, node_id, arr.cell_nbytes, "rebuild",
                            name, coords, values,
                        ):
                            local_have.add(coords)
                            copied += 1
                    break  # one surviving source suffices
                except NodeFailedError:
                    continue  # source died mid-copy: try the next one
            return copied

        tasks = []
        for name, arr in self._arrays.items():
            have = frozenset(node.partition(name).live_coords())
            for p in arr.partitions():
                if node_id not in arr.partition_chain(p):
                    continue
                tasks.append(
                    lambda name=name, arr=arr, p=p, have=have:
                        copy_partition(name, arr, p, have)
                )
        from_replicas = sum(self.scheduler.map(tasks))
        for name in self._arrays:
            node.partition(name).flush()
        # A rebuilt node is healthy by construction: close its breaker so
        # queries stop detouring past it for a stale cooldown.
        self.breakers[node_id].record_success()
        report = RebuildReport(
            node_id=node_id,
            cells_from_wal=from_wal,
            cells_from_replicas=from_replicas,
            bytes_moved=self.ledger.total_bytes("rebuild") - before,
            load_cursors_restored=node.load_cursors_restored,
        )
        self.rebuilds.append(report)
        _flight_emit(
            "node_rebuild",
            node=node_id,
            cells_from_wal=from_wal,
            cells_from_replicas=from_replicas,
            bytes_moved=report.bytes_moved,
        )
        return report
