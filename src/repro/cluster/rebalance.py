"""Online elastic rebalancing: throttled background chunk migration.

The paper's §2 grid requirement is a cluster that grows by adding
commodity nodes; ROADMAP item 4 makes that concrete: adding node ``N+1``
must move only ~``1/(N+1)`` of chunks, as a background task interleaved
with serving reads.  This module is the migration engine behind
:meth:`Grid.add_node`, :meth:`Grid.drain_node` and
:meth:`Grid.remove_node`:

* a :class:`Migration` tracks one array's move from its current
  partitioner to a target (usually two
  :class:`~repro.cluster.partitioning.ConsistentHashPartitioner` rings
  differing by one member);
* a :class:`Rebalancer` drives it in throttled ticks
  (``max_transfer_cells_per_tick``), copying each relocating cell from a
  surviving holder of its *old* replica chain to every site of its *new*
  chain — metered as ``"rebalance"`` in the movement ledger;
* between ticks the grid keeps serving: reads resolve against the old
  placement until cutover (falling back to the new homes only when an
  old chain is fully dead — see
  :mod:`repro.cluster.readpath`), and writes land in *both*
  homes (``"rebalance_dual"`` copies) so no tick ordering can lose an
  update;
* a verification pass before cutover re-checks every logical cell is
  resident at all of its new homes (copies lost to crashes, drops or
  transient I/O are re-queued), then the partitioner is swapped and
  stale old-home copies are deleted through the WAL — so a crash after
  cutover replays the cleanup too;
* under :meth:`Rebalancer.run`, a node death mid-migration either never
  blocks a move (the run completes) or deterministically aborts with a
  diagnosis; an abort rolls back every delivered copy and leaves the
  old placement serving, untouched.

Trust rule: an existing copy at a destination only counts if the site is
part of the cell's old chain, or this migration delivered it.  A copy
resurrected by WAL replay on a node that was dead during some earlier
cutover (so its deletes were never logged) is *not* trusted and gets
overwritten — stale values can never be promoted to serving copies.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Callable, Optional

from ..core.errors import (
    GridError,
    NodeFailedError,
    PartitioningError,
    StorageError,
    TransientIOError,
)
from ..obs.recorder import emit as _flight_emit
from .node import Record
from .partitioning import Partitioner
from .readpath import read_partitions

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .grid import DistributedArray, Grid

__all__ = ["Migration", "Rebalancer", "RebalanceReport"]

Coords = tuple[int, ...]


@dataclass
class RebalanceReport:
    """The accounting for one finished (or aborted) migration."""

    array: str
    old_descriptor: tuple
    new_descriptor: tuple
    #: logical cells enumerated when the migration was planned
    cells_total: int
    #: logical cells that needed at least one copy delivered
    cells_moved: int
    #: physical copies delivered, metered as ``"rebalance"``
    copies_delivered: int
    #: stale old-home copies deleted at cutover
    cells_dropped: int
    #: writes that landed in both homes during the migration window
    dual_writes: int
    bytes_moved: int
    ticks: int
    throttle_hits: int
    aborted: bool
    reason: str = ""

    def moved_fraction(self, stored_cells: int) -> float:
        """Delivered copies as a fraction of *stored_cells* (the
        replicas-included count the ≤1.5/(N+1) acceptance bound is
        stated against)."""
        return self.copies_delivered / stored_cells if stored_cells else 0.0


class Migration:
    """Shared state of one in-flight migration (array ↔ write path ↔
    rebalancer).  Thread-safe: ingest writers note dual writes from
    scheduler workers while the rebalancer ticks."""

    def __init__(
        self, array: "DistributedArray", new_partitioner: Partitioner
    ) -> None:
        self.array = array
        self.new_partitioner = new_partitioner
        self._lock = threading.RLock()
        #: every logical cell address the migration knows about — the
        #: planned population plus anything written during the window.
        #: This is what pre-cutover verification checks against.
        self.known: set[Coords] = set()
        #: cells still owing a copy to some new home, oldest first
        self.pending: dict[Coords, None] = {}
        #: (coords, site) copies this migration delivered — the trust set
        #: and the abort rollback list
        self.delivered: set[tuple[Coords, int]] = set()
        #: cells for which at least one copy was delivered
        self.moved_cells: set[Coords] = set()
        self.dual_writes = 0

    # -- routing -----------------------------------------------------------------

    def new_chain(self, coords: Coords) -> tuple[int, ...]:
        """The cell's replica chain under the *target* partitioner."""
        p = self.new_partitioner.site_of(coords)
        return self.array.chain_under(self.new_partitioner, p)

    def old_chain(self, coords: Coords) -> tuple[int, ...]:
        return self.array.replica_sites(coords)

    # -- bookkeeping ---------------------------------------------------------------

    def note_write(self, coords: Coords) -> None:
        """A write landed during the migration window (dual-homed by the
        caller); make sure verification covers it."""
        with self._lock:
            self.known.add(coords)
            self.dual_writes += 1

    def note_delivered(self, coords: Coords, site: int) -> None:
        with self._lock:
            self.delivered.add((coords, site))

    def trusted(self, coords: Coords, site: int) -> bool:
        """Is an existing copy of *coords* at *site* authoritative?

        Old-chain copies are (they are what the array is serving); so are
        copies this migration delivered.  Anything else — e.g. a stale
        copy WAL-resurrected on a rebuilt node — must be overwritten.
        """
        if site in self.old_chain(coords):
            return True
        with self._lock:
            return (coords, site) in self.delivered

    def enqueue(self, coords: Coords) -> None:
        with self._lock:
            self.pending.setdefault(coords)

    def take(self, n: int) -> list[Coords]:
        """Dequeue up to *n* pending cells, oldest first."""
        with self._lock:
            batch = list(islice(self.pending, n))
            for coords in batch:
                del self.pending[coords]
            return batch

    def pending_count(self) -> int:
        with self._lock:
            return len(self.pending)


class Rebalancer:
    """Drives one array's migration in throttled, interleavable ticks.

    :meth:`run` is the background-task shape — tick, let the caller
    serve (``interleave``), repeat, verify, cut over.  Chaos drills and
    the elastic grid operations drive :meth:`tick` / :meth:`finalize`
    directly so kills and scans can land between any two ticks.
    """

    #: consecutive zero-progress full passes tolerated before an abort
    STALL_LIMIT = 2

    def __init__(
        self,
        grid: "Grid",
        array: "DistributedArray",
        new_partitioner: Partitioner,
        max_transfer_cells_per_tick: int = 64,
    ) -> None:
        if max_transfer_cells_per_tick < 1:
            raise GridError("max_transfer_cells_per_tick must be positive")
        if new_partitioner.n_sites != len(grid.nodes):
            raise PartitioningError(
                f"target partitioner addresses {new_partitioner.n_sites} "
                f"sites, grid has {len(grid.nodes)} nodes"
            )
        if array._migration is not None:
            raise GridError(
                f"array {array.name!r} is already rebalancing"
            )
        # The target must be able to host the replication factor.
        array.chain_under(
            new_partitioner, new_partitioner.sites()[0]
        )
        self.grid = grid
        self.array = array
        # Captured now: after cutover the array serves the new scheme.
        self._old_descriptor = array.partitioner.descriptor()
        self.throttle = int(max_transfer_cells_per_tick)
        self.migration = Migration(array, new_partitioner)
        self.ticks = 0
        self.throttle_hits = 0
        self.copies_delivered = 0
        self.cells_dropped = 0
        self.finished = False
        self.aborted = False
        self.reason = ""
        self._planned = False

    # -- lifecycle -----------------------------------------------------------------

    def plan(self) -> int:
        """Enumerate the logical population and queue relocating cells.

        Uses the ordinary failover read path (no metering reason: the
        plan ships coordinates, not values — values are read at tick
        time so the freshest write always wins).  Attaches the migration
        to the array, which turns on dual-homed writes and the
        dual-resolve read fallback.  Returns the number of queued cells.
        """
        if self._planned:
            raise GridError("rebalance already planned")
        arr, mig = self.array, self.migration
        served, _missing = read_partitions(arr)
        for _site, blocks in served.values():
            for coords, _cell in blocks.cells():
                mig.known.add(coords)
                if self._owed(coords):
                    mig.enqueue(coords)
        self._planned = True
        arr._migration = mig
        _flight_emit(
            "rebalance_plan",
            array=arr.name,
            cells_total=len(mig.known),
            cells_queued=mig.pending_count(),
        )
        return mig.pending_count()

    def tick(self) -> int:
        """Move up to ``max_transfer_cells_per_tick`` cells; returns how
        many made progress.  Blocked cells (dead destination, no live
        source *right now*) re-queue — a later tick, after a rebuild,
        can still complete them."""
        if not self._planned:
            raise GridError("plan() the rebalance before ticking it")
        if self.finished:
            raise GridError("this rebalance already finished")
        mig = self.migration
        self.ticks += 1
        if mig.pending_count() > self.throttle:
            # The backlog didn't fit this tick's budget: that's the
            # transfer-rate throttle visibly holding traffic back.
            self.throttle_hits += 1
        batch = mig.take(self.throttle)
        # Read-and-deliver holds the grid's delivery lock, so no write
        # lands between a source read and the copy it feeds.
        with self.grid._deliver_lock:
            moved, blocked = self._move(batch)
        for coords in blocked:
            mig.enqueue(coords)
        self.array.flush()
        _flight_emit(
            "rebalance_tick",
            array=self.array.name,
            tick=self.ticks,
            moved=moved,
            pending=mig.pending_count(),
        )
        return moved

    def finalize(self) -> bool:
        """Verify-and-cutover: returns True when the cutover happened.

        Re-checks every known cell is resident (and trusted) at all of
        its new homes, re-queueing any gap; with an empty queue and a
        clean verify, swaps the partitioner and deletes stale old-home
        copies through the WAL.  Returns False when cells are still
        pending — tick more (possibly after a rebuild) and try again.
        """
        if self.finished:
            return not self.aborted
        mig = self.migration
        if mig.pending_count() > 0:
            return False
        if self._verify():
            return False
        self._cutover()
        return True

    def run(
        self,
        interleave: Optional[Callable[[], None]] = None,
        max_ticks: Optional[int] = None,
    ) -> RebalanceReport:
        """Throttled background migration to completion (or abort).

        *interleave* runs between ticks — the serving traffic the
        migration must not starve.  Deterministic failure semantics: a
        node death that never blocks a move lets the run complete; one
        that does (dead destination, or a cell with no surviving trusted
        source) aborts after :data:`STALL_LIMIT` zero-progress passes,
        with the first blocked cell diagnosed in ``reason``.
        """
        if not self._planned:
            self.plan()
        stalled = 0
        while not self.finished:
            if max_ticks is not None and self.ticks >= max_ticks:
                self.abort(f"tick budget {max_ticks} exhausted")
                break
            moved = self.tick()
            if interleave is not None:
                interleave()
            if self.finalize():
                break
            if moved == 0:
                stalled += 1
                if stalled >= self.STALL_LIMIT:
                    self.abort(self._diagnose())
                    break
            else:
                stalled = 0
        return self.report()

    def abort(self, reason: str) -> RebalanceReport:
        """Roll the migration back: delete every copy it delivered (where
        the holder is alive and the copy is not also an old-chain copy)
        and detach — the old placement was never touched and keeps
        serving."""
        if self.finished:
            raise GridError("this rebalance already finished")
        arr, grid, mig = self.array, self.grid, self.migration
        arr._migration = None
        rolled_back = 0
        for coords, site in sorted(mig.delivered):
            node = grid.nodes[site]
            # An old-chain copy is also a legitimate old-home copy: kept.
            if node.alive and site not in mig.old_chain(coords):
                rolled_back += node.delete(arr.name, coords)
        self.aborted = True
        self.finished = True
        self.reason = reason
        self.cells_dropped = rolled_back
        _flight_emit(
            "rebalance_abort",
            array=arr.name,
            reason=reason,
            rolled_back=rolled_back,
        )
        report = self.report()
        grid._rebalance_done(self, report)
        return report

    # -- the move ------------------------------------------------------------------

    def _owed(self, coords: Coords) -> list[int]:
        """New-chain sites still lacking a trusted copy of *coords*."""
        mig, grid, arr = self.migration, self.grid, self.array
        return [
            s for s in mig.new_chain(coords)
            if not (
                grid.nodes[s].has_cell(arr.name, coords)
                and mig.trusted(coords, s)
            )
        ]

    def _move(self, batch: list[Coords]) -> tuple[int, list[Coords]]:
        """Copy each cell of *batch* to every new home it is missing from.

        A cell's source is its first live trusted holder that still has
        it, as before; each source is read once, over the window of the
        tick's cells, and each (source, destination) pair gets one
        delivery.  Returns how many cells moved (delivered at least one
        copy and owe none) and, in batch order, the blocked ones — dead
        destination, no live trusted source, a copy lost — to re-queue."""
        mig, grid, arr = self.migration, self.grid, self.array
        want = set(batch)
        window = (tuple(map(min, zip(*batch))), tuple(map(max, zip(*batch))))
        reads: dict[int, dict[Coords, Optional[tuple]]] = {}
        owed: dict[Coords, list[int]] = {}
        sends: dict[tuple[int, int], list[Record]] = {}
        for coords in batch:
            dsts = owed[coords] = self._owed(coords)
            if not dsts or not all(grid.nodes[s].alive for s in dsts):
                continue
            chains = (*mig.old_chain(coords), *mig.new_chain(coords))
            for site in dict.fromkeys(chains):
                if site in dsts or not (
                    grid.nodes[site].has_cell(arr.name, coords)
                    and mig.trusted(coords, site)
                ):
                    continue
                if site not in reads:
                    reads[site] = self._read(site, want, window)
                if coords in reads[site]:
                    for dst in dsts:
                        sends.setdefault((site, dst), []).append(
                            (coords, reads[site][coords])
                        )
                    break
        copies: Counter[Coords] = Counter()
        for (site, dst), records in sorted(sends.items()):
            try:
                stored = grid.deliver(
                    site, dst, arr.cell_nbytes, "rebalance", arr.name, records,
                )
            except TransientIOError:
                stored = []  # bytes moved, store failed: retry next tick
            for coords in stored:
                mig.note_delivered(coords, dst)
            copies.update(stored)
        self.copies_delivered += sum(copies.values())
        mig.moved_cells.update(copies)
        owing = [c for c in batch if owed[c]]
        blocked = [c for c in owing if copies[c] < len(owed[c])]
        return len(owing) - len(blocked), blocked

    def _read(self, site: int, want: set[Coords], window: tuple) -> dict:
        """``coords -> values`` of the cells of *want* node *site* stores
        in *window*; empty when the node dies under the read."""
        try:
            return {
                coords: None if cell is None else cell.values
                for coords, cell in self.grid.nodes[site].scan_partition(
                    self.array.name, window
                )
                if coords in want
            }
        except (NodeFailedError, StorageError):
            return {}

    def _verify(self) -> int:
        """Re-queue every known cell missing a trusted copy at any new
        home; returns how many were re-queued."""
        mig = self.migration
        with mig._lock:
            known = list(mig.known)
        owing = [coords for coords in known if self._owed(coords)]
        for coords in owing:
            mig.enqueue(coords)
        return len(owing)

    def _cutover(self) -> None:
        """Swap the serving placement and clean up old-home copies.

        Deletions go through :meth:`Node.delete` (WAL-logged), so a
        crash-and-replay after cutover re-applies them instead of
        resurrecting the stale copies.  Only old-chain copies of known
        cells are touched — boundary-replicated copies from
        ``load_uncertain`` live outside replica chains and survive.
        """
        arr, grid, mig = self.array, self.grid, self.migration
        old_partitioner = arr.partitioner
        # Under the delivery lock a write routes wholly before the swap
        # (and is dual-written) or wholly after it.
        with grid._deliver_lock:
            arr._migration = None
            arr.partitioner = mig.new_partitioner
        dropped = 0
        with mig._lock:
            known = list(mig.known)
        for coords in known:
            new_sites = set(mig.new_chain(coords))
            old_chain = arr.chain_under(
                old_partitioner, old_partitioner.site_of(coords)
            )
            for site in old_chain:
                node = grid.nodes[site]
                # A dead node's copies come back with its WAL at rebuild,
                # untrusted: they never serve (the module's trust rule).
                if site not in new_sites and node.alive:
                    dropped += node.delete(arr.name, coords)
        self.cells_dropped = dropped
        self.finished = True
        _flight_emit(
            "rebalance_cutover",
            array=arr.name,
            cells_moved=len(mig.moved_cells),
            old_copies_dropped=dropped,
            ticks=self.ticks,
        )
        report = self.report()
        grid._rebalance_done(self, report)

    def _diagnose(self) -> str:
        """Name the first blocked cell's problem for the abort reason."""
        mig, grid, arr = self.migration, self.grid, self.array
        with mig._lock:
            head = next(iter(mig.pending), None)
        if head is None:
            return "stalled with an empty queue"
        dead_dsts = [
            s for s in mig.new_chain(head) if not grid.nodes[s].alive
        ]
        if dead_dsts:
            return (
                f"cell {head}: destination node(s) {dead_dsts} dead"
            )
        return f"cell {head}: no surviving trusted source"

    # -- observability --------------------------------------------------------------

    def progress(self) -> dict:
        mig = self.migration
        return {
            "array": self.array.name,
            "cells_total": len(mig.known),
            "cells_moved": len(mig.moved_cells),
            "cells_remaining": mig.pending_count(),
            "copies_delivered": self.copies_delivered,
            "dual_writes": mig.dual_writes,
            "ticks": self.ticks,
            "throttle_hits": self.throttle_hits,
            "finished": self.finished,
            "aborted": self.aborted,
        }

    def report(self) -> RebalanceReport:
        mig = self.migration
        return RebalanceReport(
            array=self.array.name,
            old_descriptor=self._old_descriptor,
            new_descriptor=mig.new_partitioner.descriptor(),
            cells_total=len(mig.known),
            cells_moved=len(mig.moved_cells),
            copies_delivered=self.copies_delivered,
            cells_dropped=self.cells_dropped,
            dual_writes=mig.dual_writes,
            bytes_moved=self.copies_delivered * self.array.cell_nbytes,
            ticks=self.ticks,
            throttle_hits=self.throttle_hits,
            aborted=self.aborted,
            reason=self.reason,
        )
