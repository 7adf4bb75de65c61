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
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from ..core.errors import (
    GridError,
    NodeFailedError,
    PartitioningError,
    StorageError,
    TransientIOError,
)
from ..obs.recorder import emit as _flight_emit
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
        #: cells still owing a copy to some new home
        self.pending: deque[Coords] = deque()
        self._pending_set: set[Coords] = set()
        #: (coords, site) copies this migration delivered — the trust set
        #: and the abort rollback list
        self.delivered: list[tuple[Coords, int]] = []
        self._fresh: set[tuple[Coords, int]] = set()
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
            self.delivered.append((coords, site))
            self._fresh.add((coords, site))

    def trusted(self, coords: Coords, site: int) -> bool:
        """Is an existing copy of *coords* at *site* authoritative?

        Old-chain copies are (they are what the array is serving); so are
        copies this migration delivered.  Anything else — e.g. a stale
        copy WAL-resurrected on a rebuilt node — must be overwritten.
        """
        if site in self.old_chain(coords):
            return True
        with self._lock:
            return (coords, site) in self._fresh

    def enqueue(self, coords: Coords) -> None:
        with self._lock:
            if coords not in self._pending_set:
                self._pending_set.add(coords)
                self.pending.append(coords)

    def pop(self) -> Optional[Coords]:
        with self._lock:
            if not self.pending:
                return None
            coords = self.pending.popleft()
            self._pending_set.discard(coords)
            return coords

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
        plan ships coordinates, not values — values are re-read per cell
        at tick time so the freshest write always wins).  Attaches the
        migration to the array, which turns on dual-homed writes and the
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
        moved = 0
        requeue: list[Coords] = []
        for _ in range(self.throttle):
            coords = mig.pop()
            if coords is None:
                break
            outcome = self._move_cell(coords)
            if outcome == "blocked":
                requeue.append(coords)
            elif outcome == "moved":
                moved += 1
            # "done": already fully resident — progress, nothing moved.
        for coords in requeue:
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
        for coords, site in mig.delivered:
            node = grid.nodes[site]
            if not node.alive:
                continue
            if site in mig.old_chain(coords):
                continue  # also a legitimate old-home copy: keep it
            if node.delete(arr.name, coords):
                rolled_back += 1
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

    # -- the per-cell move ---------------------------------------------------------

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

    def _move_cell(self, coords: Coords) -> str:
        """Copy *coords* to every new home it is missing from.

        Returns ``"done"`` (already resident), ``"moved"`` (delivered at
        least one copy and owes none), or ``"blocked"`` (dead
        destination / no live trusted source / delivery lost — re-queue
        and retry later)."""
        mig, grid, arr = self.migration, self.grid, self.array
        dsts = self._owed(coords)
        if not dsts:
            return "done"
        if any(not grid.nodes[s].alive for s in dsts):
            return "blocked"
        source = self._source_for(coords, dsts)
        if source is None:
            return "blocked"
        src_site, values = source
        complete = True
        delivered_here = 0
        for dst in dsts:
            try:
                ok = grid.deliver(
                    src_site, dst, arr.cell_nbytes, "rebalance",
                    arr.name, coords, values,
                )
            except TransientIOError:
                ok = False  # bytes moved, store failed: retry next tick
            if ok:
                delivered_here += 1
                mig.note_delivered(coords, dst)
            else:
                complete = False
        self.copies_delivered += delivered_here
        if delivered_here:
            mig.moved_cells.add(coords)
        return "moved" if complete else "blocked"

    def _source_for(
        self, coords: Coords, dsts: list[int]
    ) -> Optional[tuple[int, Optional[tuple]]]:
        """A live trusted holder of *coords* and its current value."""
        grid, arr, mig = self.grid, self.array, self.migration
        candidates = list(mig.old_chain(coords)) + list(
            mig.new_chain(coords)
        )
        for site in candidates:
            node = grid.nodes[site]
            if site in dsts or not node.has_cell(arr.name, coords):
                continue
            if not mig.trusted(coords, site):
                continue
            try:
                cell = node.partition(arr.name).get(coords)
            except (NodeFailedError, StorageError):
                continue  # died under us / raced a delete: next candidate
            return site, None if cell is None else cell.values
        return None

    def _verify(self) -> int:
        """Re-queue every known cell missing a trusted copy at any new
        home; returns how many were re-queued."""
        mig = self.migration
        with mig._lock:
            known = list(mig.known)
        requeued = 0
        for coords in known:
            if self._owed(coords):
                mig.enqueue(coords)
                requeued += 1
        return requeued

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
                if site in new_sites:
                    continue
                node = grid.nodes[site]
                if not node.alive:
                    continue  # WAL replay at rebuild resurrects these,
                    # but they are untrusted and never serve (see module
                    # docstring's trust rule).
                if node.delete(arr.name, coords):
                    dropped += 1
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
            head = mig.pending[0] if mig.pending else None
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
