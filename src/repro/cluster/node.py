"""A worker node in the simulated shared-nothing grid (Section 2.7).

Each node owns a private :class:`~repro.storage.manager.StorageManager`
(shared-nothing: no node ever touches another's storage) and counts the
work it does.  The grid layer is the only channel between nodes, and every
transfer through it is metered.

Fault-tolerance additions: a node can **fail** (``alive`` flips to False
and every storage access raises
:class:`~repro.core.errors.NodeFailedError`, including mid-scan — which is
how queries detect a crash under them) and later **restart**: a restart
wipes the in-memory storage state, exactly like a process crash, leaving
only the per-node write-ahead log on disk.  Recovery replays that WAL and
:meth:`Grid.rebuild_node <repro.cluster.grid.Grid.rebuild_node>` fills any
gap (e.g. a torn WAL tail) from surviving replicas.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterator, Optional, Sequence

from ..core.array import Chunk
from ..core.cells import Cell
from ..core.errors import NodeFailedError
from ..core.schema import ArraySchema
from ..obs.recorder import emit as _flight_emit
from ..storage.manager import PersistentArray, StorageManager
from ..storage.wal import WriteAheadLog

__all__ = ["Node", "NodeCounters"]

Coords = tuple[int, ...]
#: one cell on the move: its address and its values (``None``: NULL)
Record = tuple[Coords, Optional[tuple]]


@dataclass
class NodeCounters:
    """Per-node work accounting (thread-safe via :meth:`add`)."""

    cells_stored: int = 0
    cells_scanned: int = 0
    bytes_received: int = 0
    bytes_sent: int = 0
    local_queries: int = 0
    failovers_served: int = 0
    read_retries: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def add(self, counter: str, n: int = 1) -> None:
        """Atomically bump one counter — scheduler workers share a node."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + n)

    def snapshot(self) -> dict[str, int]:
        """A plain-dict view for metrics reporting."""
        return {
            f.name: getattr(self, f.name) for f in fields(self) if f.compare
        }


class Node:
    """One shared-nothing worker: local storage, a WAL, plus counters."""

    def __init__(
        self,
        node_id: int,
        directory: "str | Path",
        memory_budget: int = 1 << 20,
        chunk_cache_bytes: int = 8 << 20,
    ) -> None:
        self.node_id = node_id
        self.directory = Path(directory)
        self.memory_budget = memory_budget
        self.chunk_cache_bytes = chunk_cache_bytes
        self.storage = StorageManager(
            self.directory,
            memory_budget=memory_budget,
            chunk_cache_bytes=chunk_cache_bytes,
        )
        self.counters = NodeCounters()
        self.alive = True
        #: removed from the grid for good (post-drain); node ids are
        #: never renumbered, so a retired node keeps its slot forever.
        self.retired = False
        #: load-batch cursors recovered by the last :meth:`replay_wal`
        self.load_cursors_restored = 0
        self.wal = WriteAheadLog(self.directory / "node.wal")

    # -- liveness ------------------------------------------------------------------

    def check_alive(self) -> None:
        if not self.alive:
            raise NodeFailedError(self.node_id)

    def fail(self) -> None:
        """Crash this node: storage unreachable until :meth:`restart`."""
        self.alive = False
        _flight_emit("node_down", node=self.node_id)

    def restart(self) -> None:
        """Come back from a crash with empty storage (the WAL survives).

        A crash loses all in-memory state (write buffers, bucket catalog,
        R-trees); the simulated restart therefore discards the whole
        storage manager and deletes stale bucket files.  Partitions must
        be re-created and repopulated — from the WAL plus surviving
        replicas — by :meth:`Grid.rebuild_node`.
        """
        for stale in self.directory.glob("*/bucket_*.bkt"):
            stale.unlink(missing_ok=True)
        self.storage = StorageManager(
            self.directory,
            memory_budget=self.memory_budget,
            chunk_cache_bytes=self.chunk_cache_bytes,
        )
        self.alive = True
        _flight_emit("node_up", node=self.node_id)

    # -- storage ----------------------------------------------------------------------

    def create_partition(
        self,
        array_name: str,
        schema: ArraySchema,
        stride: Optional[Sequence[int]] = None,
        codec: str = "auto",
    ) -> PersistentArray:
        """Create this node's partition of a distributed array."""
        self.check_alive()
        return self.storage.create_array(
            array_name, schema, stride=stride, codec=codec
        )

    def partition(self, array_name: str) -> PersistentArray:
        self.check_alive()
        return self.storage.get_array(array_name)

    def store(self, array_name: str, cells: Sequence[Record]) -> None:
        """WAL-then-store a batch of ``(coords, values)`` records: the one
        way into this node's storage, besides :meth:`replay_wal`."""
        self.check_alive()
        partition = self.partition(array_name)
        for coords, values in cells:
            self.wal.log_write(array_name, coords, values)
            partition.append(coords, values)
        self.counters.add("cells_stored", len(cells))

    def delete(self, array_name: str, coords: tuple) -> bool:
        """WAL-then-delete one cell (rebalance cutover cleanup).

        Logged before applying so a crash after the cleanup replays the
        delete too — otherwise WAL replay would resurrect replica copies
        the ring no longer places here.
        """
        self.check_alive()
        self.wal.log_delete(array_name, coords)
        return self.partition(array_name).delete(coords)

    def has_cell(self, array_name: str, coords: tuple) -> bool:
        """O(1): does this node currently hold *coords*?  False when the
        node is down — a dead node can't serve anything."""
        if not self.alive:
            return False
        try:
            return self.storage.get_array(array_name).contains(coords)
        except Exception:
            return False

    def commit_load_batch(
        self, array_name: str, epoch: "int | str", seq: int
    ) -> None:
        """Durably commit one load batch on this node's partition.

        The WAL is the commit: the ``load_commit`` marker lands in the log
        after the batch's cell writes (which :meth:`store` already
        logged), the log is flushed, and the partition's cursor advances
        in memory.  The cells stay buffered until the memory budget or
        the end of the load spills them into stride-aligned buckets
        (Section 2.8); :meth:`replay_wal` is what brings both back after
        a crash.  *epoch* may be a scoped string key (e.g. ``"0/p2"``)
        when one node's storage backs several replica chains.
        """
        self.check_alive()
        self.wal.log_load_commit(array_name, epoch, seq)
        self.wal.commit()
        partition = self.partition(array_name)
        partition.restore_load_cursor(epoch, seq)
        partition.stats.load_batches += 1

    def blocks(
        self,
        array_name: str,
        window: Optional[tuple[Coords, Coords]] = None,
        attr_ranges: Optional[dict] = None,
    ) -> Iterator[Chunk]:
        """A partition's stored blocks
        (:meth:`~repro.storage.manager.PersistentArray.blocks`).  A node
        killed mid-read raises :class:`NodeFailedError` at the next block,
        for the grid's failover logic to retry on a replica."""
        self.check_alive()
        for block in self.partition(array_name).blocks(window, attr_ranges):
            self.check_alive()
            yield block

    def scan_partition(
        self,
        array_name: str,
        window: Optional[tuple[Coords, Coords]] = None,
        attr_ranges: Optional[dict] = None,
    ) -> Iterator[tuple[Coords, Optional[Cell]]]:
        """The cells of :meth:`blocks`, each stored cell once."""
        for block in self.blocks(array_name, window, attr_ranges):
            yield from block.cells()

    def cell_count(self, array_name: str) -> int:
        """Distinct cells stored in a partition — O(1) via the live-cell
        counter, not a full scan."""
        return self.partition(array_name).live_cells

    # -- recovery ---------------------------------------------------------------------

    def replay_wal(self, array_names: "set[str] | None" = None) -> int:
        """Replay write records from the per-node WAL into live partitions.

        Partitions must already exist.  Records for unknown arrays (e.g.
        arrays since dropped) are skipped.  A torn final record ends the
        replay silently; mid-log corruption raises ``StorageError``.
        Returns the number of cells restored.  Replayed cells are applied
        directly (not re-logged), so the WAL does not self-amplify.
        """
        self.load_cursors_restored = 0
        # Drop a torn final record *on disk* before replaying: post-recovery
        # appends must not concatenate onto the partial line, which would
        # turn a legal torn tail into mid-log corruption.
        self.wal.truncate_torn_tail()
        known = array_names if array_names is not None else set(
            self.storage.names()
        )
        restored = 0
        for record in self.wal.entries():
            op = record.get("op")
            if op == "load_commit" and record["array"] in known:
                # The marker follows its batch's cell writes in the log,
                # so the cursor never claims cells the replay lacks.
                self.partition(record["array"]).restore_load_cursor(
                    record["epoch"], record["seq"]
                )
                self.load_cursors_restored += 1
                continue
            if op == "delete" and record["array"] in known:
                # Cutover cleanup must survive a crash: without replaying
                # deletes, the write records earlier in the log would
                # resurrect copies the ring has since moved elsewhere.
                self.partition(record["array"]).delete(
                    tuple(record["coords"])
                )
                continue
            if op != "write" or record["array"] not in known:
                continue
            values = record["values"]
            self.partition(record["array"]).append(
                tuple(record["coords"]),
                None if values is None else tuple(values),
            )
            restored += 1
        return restored

    def __repr__(self) -> str:
        state = "up" if self.alive else "DOWN"
        return f"<Node {self.node_id} [{state}]: {self.storage.names()}>"
