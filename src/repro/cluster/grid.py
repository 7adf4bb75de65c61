"""The simulated shared-nothing grid (Section 2.7).

A :class:`Grid` owns N :class:`~repro.cluster.node.Node` workers, the
delivery fabric every stored cell passes through, the catalog of
distributed arrays, elastic membership, and the
:class:`~repro.cluster.ledger.DataMovementLedger` in which every byte
that crosses a node boundary is recorded with a reason.  The array side
— :class:`DistributedArray`, re-exported here — is
:mod:`~repro.cluster.operators` over :mod:`~repro.cluster.readpath` and
:mod:`~repro.cluster.writepath`.

At grid scale "there will always be broken nodes":
:meth:`Grid.rebuild_node` brings a crashed node back by replaying its
per-node WAL and copying anything missing (metered ``"rebuild"``) from
surviving replicas.  A statement's partition tasks run on its own
thread; the grid's :class:`PartitionScheduler` fans them out over
``parallelism`` workers only while its reads can wait (an injected slow
read, a hedge's delay), the one thing threads under one interpreter
lock overlap.  The injector is thread-safe and keyed-deterministic, so
a drill reproduces either way.
"""

from __future__ import annotations

import threading
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from ..core.errors import (
    GridError,
    NodeFailedError,
    PartitioningError,
    StorageError,
    TransientIOError,
)
from ..core.schema import ArraySchema
from ..obs import tracing
from ..obs.recorder import emit as _flight_emit
from .faults import FailoverEvent, FaultInjector
from .ledger import COORDINATOR, DataMovementLedger, Transfer
from .node import Node, Record
from .operators import DistributedArray
from .partitioning import Partitioner
from .readpath import partition_blocks
from .rebalance import Rebalancer, RebalanceReport
from .replication import RebuildReport, ReplicaPlacement
from .resilience import CircuitBreaker, ResiliencePolicy, RetryPolicy
from .scheduler import PartitionScheduler, default_parallelism

__all__ = [
    "COORDINATOR", "Transfer", "DataMovementLedger", "DistributedArray", "Grid",
]

Coords = tuple[int, ...]


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
        # Remembered for elastic growth: add_node() provisions new
        # workers with the same storage knobs as the founding members.
        self.directory = Path(directory)
        self.memory_budget = memory_budget
        self.chunk_cache_bytes = chunk_cache_bytes
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
        self.nodes: list[Node] = []
        self.breakers: list[CircuitBreaker] = []
        for _ in range(n_nodes):
            self._provision_node()
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
        # The width of a fan-out whose reads can wait (`_reads_wait`).
        if parallelism is None:
            parallelism = default_parallelism(n_nodes)
        self.parallelism = parallelism
        self.scheduler = PartitionScheduler(parallelism, waits=self._reads_wait)
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
        #: per node, the ``(array, coords)`` delivered while it was down
        self._missed: dict[int, set[tuple[str, Coords]]] = {}

    def _reads_wait(self) -> bool:
        """Whether a partition read can sleep: a slow-read fault or a hedge."""
        return self.resilience.hedge.enabled or (
            self.faults is not None and self.faults.slows_reads()
        )

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

    def _provision_node(self) -> Node:
        """Append one worker, and its breaker, under the next node id."""
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
        return node

    def _migrate_arrays(
        self,
        members: tuple[int, ...],
        max_transfer_cells_per_tick: int,
        interleave: Optional[Callable[[], None]],
    ) -> list[RebalanceReport]:
        """Rebalance every array whose placement does not already fit
        *members*; one report per migrated array."""
        reports: list[RebalanceReport] = []
        for name in self.names():
            arr = self._arrays[name]
            target = self._ring_target(arr, members)
            if target.descriptor() == arr.partitioner.descriptor():
                continue  # already places nothing outside *members*
            reports.append(
                self.rebalance(
                    name, target,
                    max_transfer_cells_per_tick=max_transfer_cells_per_tick,
                    interleave=interleave,
                )
            )
        return reports

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
        node = self._provision_node()
        for name, arr in self._arrays.items():
            node.create_partition(name, arr.schema, stride=arr.stride)
        _flight_emit("node_add", node=node.node_id, members=len(self.nodes))
        return node.node_id, self._migrate_arrays(
            self.members(), max_transfer_cells_per_tick, interleave
        )

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
        if self.nodes[node_id].retired:
            raise GridError(f"node {node_id} is retired")
        members = tuple(m for m in self.members() if m != node_id)
        if not members:
            raise GridError("cannot drain the grid's last member")
        _flight_emit("node_drain", node=node_id, remaining=len(members))
        return self._migrate_arrays(
            members, max_transfer_cells_per_tick, interleave
        )

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
        """Count a resilience event grid-wide and on the open operator
        span, so EXPLAIN's per-operator figures sum to the snapshot's."""
        with self._resilience_lock:
            self.resilience_counters[name] = (
                self.resilience_counters.get(name, 0) + n
            )
        tracing.add_current(name, n)
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
        cells: Sequence[Record],
    ) -> list[Coords]:
        """Send a batch of ``(coords, values)`` records to a node, each one
        metered transfer of *nbytes*; returns the coordinates stored.

        In record order the fault injector draws a drop and a corruption;
        drops, and every record to a dead node, go to the ledger's
        ``dropped`` list.  One store-fault draw gates the rest, which are
        metered *before* the store: a scheduled kill firing on any of
        them loses the whole batch unacknowledged, exactly like a real
        crash between receive and ack.
        """
        # One delivery at a time grid-wide: the injector's draws, the
        # liveness check, the metering (which may fire a kill) and the
        # store stay one atomic sequence even when scheduler workers
        # (parallel repartition/rebuild) deliver concurrently.
        with self._deliver_lock:
            node, faults, kept = self.nodes[dst], self.faults, []
            for coords, values in cells:
                verdict = "deliver" if node.alive else "drop"
                if faults is not None and node.alive:
                    verdict, values = faults.intercept(
                        src, dst, nbytes, reason, values
                    )
                if verdict == "drop":
                    self.ledger.record_dropped(src, dst, nbytes, reason)
                else:
                    kept.append((coords, values))
            if kept and faults is not None:
                # Transient I/O fault at the receiving disk: the bytes
                # moved but nothing was stored.  Recorded as dropped, then
                # raised for the caller's retry policy to absorb.
                try:
                    self.store_latency_ms += faults.intercept_store(dst)
                except TransientIOError:
                    for _ in kept:
                        self.ledger.record_dropped(src, dst, nbytes, reason)
                    raise
            if kept:
                self.ledger.record(src, dst, nbytes, reason, len(kept))  # may kill
            if not node.alive:
                # What a dead node misses, its rebuild refreshes.
                self._missed.setdefault(dst, set()).update((array_name, c) for c, _ in cells)
                return []
            if not kept:
                return []
            node.counters.add("bytes_received", nbytes * len(kept))
            if 0 <= src < len(self.nodes):
                self.nodes[src].counters.add("bytes_sent", nbytes * len(kept))
            node.store(array_name, kept)
            stored = [coords for coords, _values in kept]
            if array_name in self._arrays:
                self._arrays[array_name]._note_coords(stored)
            return stored

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
        (3) copies every cell the node should hold but doesn't (WAL gaps),
        or was sent while it was down, from the first surviving replica in
        each affected chain, metered as ``"rebuild"``.  A cell it holds and
        missed no write of keeps its value: only a delivery it missed
        makes a replica's copy the newer one.
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
        missed = self._missed.pop(node_id, set())
        before = self.ledger.total_bytes("rebuild")

        def copy_partition(arr: DistributedArray, p: int,
                           have: frozenset[Coords]) -> int:
            """Copy partition *p*'s missing cells from a surviving replica.

            `have` is a task-local snapshot: the coords each task copies
            belong to its own partition only, so partition tasks never
            race on the same cell address.
            """
            chain = arr.partition_chain(p)
            local_have, copied = set(have), 0
            sources = [s for s in chain if s != node_id and self.nodes[s].alive]
            for source in sources:
                try:
                    for block in partition_blocks(arr, source, p):
                        self.nodes[source].check_alive()
                        missing = [
                            (coords, None if cell is None else cell.values)
                            for coords, cell in block.cells()
                            if coords not in local_have
                        ]
                        stored = self.deliver(
                            source, node_id, arr.cell_nbytes, "rebuild",
                            arr.name, missing,
                        )
                        local_have.update(stored)
                        copied += len(stored)
                    break  # one surviving source suffices
                except NodeFailedError:
                    continue  # source died mid-copy: try the next one
            return copied

        tasks = []
        for name, arr in self._arrays.items():
            have = frozenset(node.partition(name).live_coords())
            have -= {c for a, c in missed if a == name}
            for p in arr.partitions():
                if node_id not in arr.partition_chain(p):
                    continue
                tasks.append(
                    lambda arr=arr, p=p, have=have: copy_partition(arr, p, have)
                )
        from_replicas = sum(self.scheduler.map(tasks))
        for name in self._arrays:
            node.partition(name).flush()
        # A rebuilt node is healthy by construction: close its breaker so
        # queries stop detouring past it for a stale cooldown.
        self.breakers[node_id].record_success()
        report = RebuildReport(
            node_id,
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
