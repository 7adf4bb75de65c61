"""Online elastic rebalancing: throttled background chunk migration.

The engine behind :meth:`Grid.add_node`, :meth:`Grid.drain_node` and
:meth:`Grid.remove_node` (the paper's §2.7 grid grows by adding nodes,
moving ~``1/(N+1)`` of the chunks while reads are served).  A
:class:`Migration` tracks one array's move to a target partitioner; a
:class:`Rebalancer` drives it in throttled ticks, copying each relocating
cell from a holder of its *old* replica chain to every site of its *new*
chain (``"rebalance"``).  Until the cutover, reads resolve against the old
placement (the new homes serve only a fully dead old chain), and writes
land in both homes (``"rebalance_dual"``).  Verification re-queues what a
new home lacks; the cutover swaps the partitioner and deletes old-home
copies through the WAL; an abort rolls back every delivered copy.

Placement is decided per block, never per cell (:meth:`Migration.owed`),
and the migration's state is cell sets kept as planes over the array's
stride boxes (:class:`~repro.cluster.array.Planes`); DESIGN §3.3.  Trust
rule: a copy at a destination counts only if the site is in the cell's
old chain, or this migration delivered it and no dual write has missed
it since — a copy a WAL replay resurrected is overwritten, never served.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from ..core.array import Chunk, block_cells
from ..core.errors import (
    GridError,
    NodeFailedError,
    PartitioningError,
    StorageError,
    TransientIOError,
)
from ..obs.recorder import emit as _flight_emit
from .array import Planes
from .ledger import COORDINATOR
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
    rebalancer).  Thread-safe: writers' dual writes land through it from
    scheduler workers while the rebalancer ticks."""

    def __init__(
        self, array: "DistributedArray", new_partitioner: Partitioner
    ) -> None:
        self.array = array
        self.old_partitioner = array.partitioner
        self.new_partitioner = new_partitioner
        self._lock = threading.RLock()
        n, k = new_partitioner.n_sites, array.replication
        # The chain table: per (old primary, new primary), the old chain
        # then the new one.  Building it checks the target hosts k replicas.
        old, new = (
            {p: array.chain_under(pt, p) for p in pt.sites()}
            for pt in (self.old_partitioner, new_partitioner)
        )
        self._chains = np.zeros((n, n, 2 * k), dtype=np.int64)
        self._member = np.eye(n, dtype=bool)  # [site, s]: is s that site
        for (o, chain), (p, then) in itertools.product(old.items(), new.items()):
            self._chains[o, p] = chain + then
        # Planes keyed like the partitions' buckets, by their stride.
        stride = next(
            (node.partition(array.name).stride for node in array.grid.alive_nodes()),
            array.stride,
        )
        #: the planned population plus every dual write: what verify checks
        self.known = Planes(stride)
        #: per site, the copies delivered there: what an abort rolls back
        self.delivered = Planes(stride, n)
        #: per site, delivered copies a dual write missed since: untrusted
        self.stale = Planes(stride, n)
        #: cells for which at least one copy was delivered
        self.moved = Planes(stride)
        #: cells owing a copy, in queue order (``(n, ndim)`` coordinates)
        self.pending = np.zeros((0, array.schema.ndim), dtype=np.int64)
        self.dual_writes = 0
        #: set once the plan has read the population into ``known``
        self.planned = False

    # -- routing -----------------------------------------------------------------

    def new_chain(self, coords: Coords) -> tuple[int, ...]:
        """The cell's replica chain under the *target* partitioner."""
        p = self.new_partitioner.site_of(coords)
        return self.array.chain_under(self.new_partitioner, p)

    def old_chain(self, coords: Coords) -> tuple[int, ...]:
        return self.array.replica_sites(coords)

    def chains(self, block: Chunk) -> np.ndarray:
        """Per cell of *block*'s box, its old chain then its new one."""
        o = self.old_partitioner.site_planes([block])[0]
        return self._chains[o, self.new_partitioner.site_planes([block])[0]]

    def owed(self, block: Chunk, held: Optional[np.ndarray] = None) -> tuple:
        """Per site (axis 0), the cells of *block* (its state marks them)
        that site is owed: in their new chain, it holds (*held*, per site;
        ``None``: nothing) no trusted copy — one in the cell's old chain,
        or delivered by this migration and missed by no dual write since.
        Returns ``(owed, old, trusted, chains)``: per site, the cells whose
        old chain holds it and those it holds trusted; per cell, its old
        chain then its new one."""
        chains, k = self.chains(block), self.array.replication
        old, new = (self._member[:, chains[..., i:i + k]].any(-1) for i in (0, k))
        with self._lock:
            trusted = old | self.delivered.over(block) & ~self.stale.over(block)
        owed = new & block.state.astype(bool)
        if held is not None:
            owed &= ~(held & trusted)
        return owed, old, trusted, chains

    # -- bookkeeping ---------------------------------------------------------------

    def dual_write(self, coords: Coords, values: Optional[tuple]) -> None:
        """Land a write made during the migration in its *new* homes too
        (``"rebalance_dual"``), so whichever placement serves after the
        cutover or an abort has it, and make verify cover it.  A home the
        copy misses loses its trust in whatever copy it holds: owed
        again, it is re-sent from the old home (an abort still rolls back
        what was delivered there)."""
        arr = self.array
        old = arr.replica_sites(coords)
        for site in (s for s in self.new_chain(coords) if s not in old):
            try:
                landed = bool(arr.grid.deliver(
                    COORDINATOR, site, arr.cell_nbytes, "rebalance_dual",
                    arr.name, [(coords, values)],
                ))
            except TransientIOError:
                landed = False
            with self._lock:
                self.stale.add([coords], not landed, site)
                if landed:
                    self.delivered.add([coords], site=site)
        with self._lock:
            self.known.add([coords])
            self.dual_writes += 1

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
            raise GridError(f"array {array.name!r} is already rebalancing")
        self.grid, self.array = grid, array
        self.throttle = int(max_transfer_cells_per_tick)
        self.migration = Migration(array, new_partitioner)
        self.ticks = self.throttle_hits = 0
        self.copies_delivered = self.cells_dropped = 0
        self.finished = self.aborted = False
        self.reason = ""

    # -- lifecycle -----------------------------------------------------------------

    def plan(self) -> int:
        """Read the logical population and queue its owing cells, in read
        order; returns how many.  The migration is attached first, so a
        write from then on is dual-written and known; the read is the
        ordinary failover read (it ships no values: a tick reads those, so
        the freshest write wins).  If the read raises, the migration is
        detached and what writes dual-wrote meanwhile is rolled back.
        """
        if self.migration.planned:
            raise GridError("rebalance already planned")
        arr, mig = self.array, self.migration
        arr._migration = mig
        try:
            served, _missing = read_partitions(arr)
        except Exception:
            arr._migration = None
            self._delete(rollback=True)
            raise
        order = _cells([b for _site, blocks in served.values() for b in blocks], mig.pending)
        with mig._lock:
            mig.known.add(order)
        owing = self._owing()
        with mig._lock:
            mig.pending = np.concatenate([mig.pending, order[owing.contains(order)]])
        mig.planned = True
        _flight_emit(
            "rebalance_plan",
            array=arr.name,
            cells_total=self.progress()["cells_total"],
            cells_queued=mig.pending_count(),
        )
        return mig.pending_count()

    def tick(self) -> int:
        """Move up to ``max_transfer_cells_per_tick`` cells; returns how
        many of them owe nothing afterwards, whoever settled them.  The
        others go back to the tail, for a later tick (after a rebuild)."""
        if not self.migration.planned:
            raise GridError("plan() the rebalance before ticking it")
        if self.finished:
            raise GridError("this rebalance already finished")
        mig = self.migration
        self.ticks += 1
        with mig._lock:
            if mig.pending_count() > self.throttle:
                # The backlog didn't fit this tick's budget: that's the
                # transfer-rate throttle visibly holding traffic back.
                self.throttle_hits += 1
            batch, mig.pending = np.split(mig.pending, [self.throttle])
        # Read-and-deliver holds the grid's delivery lock, so no write
        # lands between a source read and the copy it feeds.
        with self.grid._deliver_lock:
            blocked = self._move(batch) if len(batch) else batch
        with mig._lock:
            mig.pending = np.concatenate([mig.pending, blocked])
        self.array.flush()
        moved = len(batch) - len(blocked)
        _flight_emit(
            "rebalance_tick",
            array=self.array.name,
            tick=self.ticks,
            moved=moved,
            pending=mig.pending_count(),
        )
        return moved

    def finalize(self) -> bool:
        """Verify-and-cutover: with an empty queue, re-queue every known
        cell a new home lacks a trusted copy of, and if there is none cut
        over.  Returns True when the cutover happened; else tick more
        (possibly after a rebuild) and try again."""
        if self.finished:
            return not self.aborted
        mig = self.migration
        if mig.pending_count() > 0:
            return False
        owing = _cells(self._owing().boxes(), mig.pending)  # verify: what a new home lacks
        if len(owing):
            with mig._lock:
                mig.pending = np.concatenate([mig.pending, owing])
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
        if not self.migration.planned:
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
        self.array._migration = None
        self.cells_dropped = self._delete(rollback=True)
        self.aborted = self.finished = True
        self.reason = reason
        _flight_emit(
            "rebalance_abort",
            array=self.array.name,
            reason=reason,
            rolled_back=self.cells_dropped,
        )
        report = self.report()
        self.grid._rebalance_done(self, report)
        return report

    # -- the move ------------------------------------------------------------------

    def _stored(self, window, sites=None) -> list[list[Chunk]]:
        """Per site (of *sites*; ``None``: all), the blocks it stores in
        *window*; a dead site, or one that dies under the read, holds
        nothing."""
        out = []
        for site, node in enumerate(self.grid.nodes):
            read = node.alive and (sites is None or site in sites)
            try:
                out.append(list(node.blocks(self.array.name, window)) if read else [])
            except (NodeFailedError, StorageError):
                out.append([])
        return out

    def _owing(self) -> Planes:
        """The known cells some new home is owed, given what each site
        stores now (each site read once, whole)."""
        mig, owing = self.migration, Planes(self.migration.known.stride)
        held = Planes(mig.known.stride, len(self.grid.nodes))
        for site, blocks in enumerate(self._stored(None)):
            held.add(_cells(blocks, mig.pending), site=site)
        with mig._lock:
            known = mig.known.boxes()
        for box in known:
            box.state = mig.owed(box, held.over(box))[0].any(0)
        owing.add(_cells(known, mig.pending))
        return owing

    def _move(self, batch: np.ndarray) -> np.ndarray:
        """Copy the cells of *batch* to every new home owed them, each from
        its first live site holding a trusted copy, old chain first; a
        cell with a dead destination waits.  Each site of a box's chains is
        read once per stride box of the batch, over the box's known cells,
        and each (source, destination) pair gets one delivery.  Returns, in
        batch order, the cells still owing a copy — dead destination, no
        live trusted source, a copy lost."""
        mig, grid, arr = self.migration, self.grid, self.array
        dead = [not node.alive for node in grid.nodes]
        taken, sends, owing = Planes(mig.known.stride), {}, []
        taken.add(batch)
        with mig._lock:
            boxes = mig.known.boxes(taken.planes)
        for box in boxes:  # each over its known cells, for cached site planes
            box.state = taken.over(box)
            blocks = self._stored(box.box, set(np.unique(mig.chains(box)).tolist()))
            held = np.zeros((len(blocks), *box.shape), dtype=bool)
            for site, found in enumerate(blocks):
                for b in found:
                    held[site][_within(b, box)] |= b.state.astype(bool)
            owed, _old, trusted, chains = mig.owed(box, held)
            order = np.moveaxis(chains, -1, 0)
            found = np.take_along_axis(held & trusted, order, 0)
            source = np.take_along_axis(order, found.argmax(0)[None], 0)[0]
            go = owed & found.any(0) & ~owed[dead].any(0)
            dst, *cells = np.nonzero(go)
            for src, to in set(zip(source[tuple(cells)].tolist(), dst.tolist())):
                sent = go[to] & (source == src)
                sends.setdefault((src, to), []).extend(
                    (coords, None if cell is None else cell.values)
                    for b in blocks[src] for coords, cell in block_cells(
                        b.origin, b.data, b.state * sent[_within(b, box)],
                        arr.schema.attr_names,
                    )
                )
            owing.append((box, owed))
        got = Planes(mig.known.stride, len(grid.nodes))
        for (src, dst), records in sorted(sends.items()):
            try:
                stored = grid.deliver(
                    src, dst, arr.cell_nbytes, "rebalance", arr.name, records,
                )
            except TransientIOError:
                stored = []  # bytes moved, store failed: retry next tick
            with mig._lock:
                mig.delivered.add(stored, site=dst)
                mig.stale.add(stored, False, dst)
                mig.moved.add(stored)
            got.add(stored, site=dst)
            self.copies_delivered += len(stored)
        still = Planes(mig.known.stride)
        for box, owed in owing:
            still.add(np.argwhere((owed & ~got.over(box)).any(0)) + box.origin)
        return batch[still.contains(batch)]

    def _delete(self, rollback: bool) -> int:
        """WAL-log and delete on each live site the known cells it holds
        off their old chain that this migration delivered there
        (*rollback*), or else off their new chain; returns how many were
        stored."""
        mig, grid = self.migration, self.grid
        with mig._lock:
            known = mig.known.boxes()
        dropped = 0
        for box in known:
            owed, old = mig.owed(box)[:2]  # owed, with nothing held: the new chain
            with mig._lock:
                stale = mig.delivered.over(box) & ~old if rollback else old & ~owed
            for site, plane in enumerate(stale & box.state):
                if grid.nodes[site].alive:
                    for coords in (np.argwhere(plane) + box.origin).tolist():
                        dropped += grid.nodes[site].delete(self.array.name, tuple(coords))
        return dropped

    def _cutover(self) -> None:
        """Swap the serving placement and delete, WAL-logged (a crash
        replays the cleanup), the old-chain copies of known cells off their
        new chain — boundary copies from ``load_uncertain`` live outside
        replica chains and survive.  A dead node's copies come back with
        its WAL, untrusted: they never serve (the module's trust rule)."""
        arr, grid, mig = self.array, self.grid, self.migration
        # Under the delivery lock a write routes wholly before the swap
        # (and is dual-written) or wholly after it.
        with grid._deliver_lock:
            arr._migration = None
            arr.partitioner = mig.new_partitioner
        self.cells_dropped = self._delete(rollback=False)
        self.finished = True
        _flight_emit(
            "rebalance_cutover",
            array=arr.name,
            cells_moved=self.progress()["cells_moved"],
            old_copies_dropped=self.cells_dropped,
            ticks=self.ticks,
        )
        report = self.report()
        grid._rebalance_done(self, report)

    def _diagnose(self) -> str:
        """Name the first blocked cell's problem for the abort reason."""
        mig = self.migration
        with mig._lock:
            if not len(mig.pending):
                return "stalled with an empty queue"
            coords = tuple(mig.pending[0].tolist())
        one = (1,) * len(coords)
        dead = [
            site for site, owed in enumerate(mig.owed(Chunk(coords, one, np.ones(one), {}))[0])
            if owed.any() and not self.grid.nodes[site].alive
        ]
        if dead:
            return f"cell {coords}: destination node(s) {dead} dead"
        return f"cell {coords}: no surviving trusted source"

    # -- observability --------------------------------------------------------------

    def progress(self) -> dict:
        mig = self.migration
        with mig._lock:
            total, moved = len(mig.known), len(mig.moved)
        return dict(
            array=self.array.name, cells_total=total, cells_moved=moved,
            cells_remaining=mig.pending_count(),
            copies_delivered=self.copies_delivered, dual_writes=mig.dual_writes,
            ticks=self.ticks, throttle_hits=self.throttle_hits,
            finished=self.finished, aborted=self.aborted,
        )

    def report(self) -> RebalanceReport:
        progress = self.progress()
        del progress["cells_remaining"], progress["finished"]
        return RebalanceReport(
            old_descriptor=self.migration.old_partitioner.descriptor(),
            new_descriptor=self.migration.new_partitioner.descriptor(),
            cells_dropped=self.cells_dropped,
            bytes_moved=self.copies_delivered * self.array.cell_nbytes,
            reason=self.reason,
            **progress,
        )


def _cells(blocks: list[Chunk], like: np.ndarray) -> np.ndarray:
    """The occupied cells of *blocks*, in order, as coordinates *like*'s."""
    return np.concatenate([like[:0]] + [np.argwhere(b.state) + b.origin for b in blocks])


def _within(block: Chunk, box: Chunk) -> tuple:
    """Where *block*, inside *box*, lies in the box's planes."""
    at = np.subtract(block.origin, box.origin)
    return tuple(map(slice, at, at + block.shape))
