"""Deterministic fault injection for the simulated grid (Section 2.7).

"Self-orchestrated ... recovery" is a stated SciDB requirement because a
grid large enough for LSST always contains broken nodes.  This module
supplies the *failures*: a seedable :class:`FaultInjector` that can

* kill nodes — immediately, or scheduled ``after`` the N-th metered
  transfer, which is how a crash lands *mid-query* deterministically
  (the grid's ledger ticks the injector on every transfer it records);
* drop or corrupt individual cell deliveries (seeded Bernoulli per
  transfer), observable in the ledger's ``dropped`` list;
* tear the tail off a node's write-ahead log mid-record, exercising the
  torn-tail path of :meth:`~repro.storage.wal.WriteAheadLog.entries`;
* inject *transient I/O faults* into the ingest path: intermittent store
  failures (seeded Bernoulli or scheduled per-site bursts) that surface
  as :class:`~repro.core.errors.TransientIOError` and are absorbed by the
  loader's bounded-retry policy, and *slow sites* whose simulated latency
  is charged to the load report instead of wall-clock;
* kill the *loader itself* at a seeded record mid-stream
  (:meth:`FaultInjector.schedule_load_crash`), which is how the
  checkpoint/resume experiments (E16) plant a deterministic crash at 25/
  50/75% of the stream.

Every injected fault is appended to :attr:`FaultInjector.events`, and the
same seed reproduces the same fault sequence byte-for-byte — the
benchmarks rely on that to report deterministic availability numbers.

**Thread-safety and keyed randomness.**  A slow-read drill fans reads
out over scheduler workers, and statements on several threads share a
grid, so the injector is mutated concurrently.  All internal
state sits behind one re-entrant lock, and Bernoulli draws no longer
consume a single shared RNG stream (whose draw *order* would depend on
thread interleaving): each draw is keyed — hashed from ``(seed, kind,
src, dst, per-key sequence number)`` — so the verdict for the N-th
delivery on a given edge is a pure function of the seed and that edge's
history, independent of how deliveries from different edges interleave.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from ..core.errors import GridError, LoadInterrupted, TransientIOError
from ..obs.recorder import emit as _flight_emit

if TYPE_CHECKING:
    from .grid import Grid, Transfer
    from .node import Node

__all__ = ["FaultEvent", "FailoverEvent", "FaultInjector"]


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, in injection order."""

    kind: str  #: "node_kill" | "transfer_drop" | "transfer_corrupt" |
    #: "wal_tear" | "io_transient" | "io_transient_read" | "slow_store" |
    #: "slow_read" | "load_crash"
    tick: int  #: metered-transfer count at injection time
    target: int  #: node id (kills, WAL tears) or destination site (transfers)
    detail: str = ""


@dataclass(frozen=True)
class FailoverEvent:
    """One failover step a query took around a dead replica.

    ``backoff_ms`` is the *deterministic* backoff the grid's
    :class:`~repro.cluster.resilience.RetryPolicy` charges — capped
    exponential with seeded jitter keyed on ``(array, partition)``
    (simulated time — the in-process grid does not sleep it).
    """

    array: str
    partition: int
    failed_site: int
    attempt: int
    backoff_ms: float


class FaultInjector:
    """Seedable source of node, network, and log faults (thread-safe).

    Attach to a grid either via ``Grid(..., fault_injector=inj)`` or
    :meth:`attach`.  All randomness is *keyed* off ``seed`` (see the
    module docstring) so a run is reproducible from ``(workload, seed)``
    alone — even when scheduler workers exercise the injector
    concurrently.
    """

    def __init__(
        self,
        seed: int = 0,
        drop_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        io_fault_rate: float = 0.0,
    ) -> None:
        if not all(
            0.0 <= r <= 1.0
            for r in (drop_rate, corrupt_rate, io_fault_rate)
        ):
            raise GridError("fault rates must be probabilities in [0, 1]")
        self.seed = seed
        self.drop_rate = drop_rate
        self.corrupt_rate = corrupt_rate
        self.io_fault_rate = io_fault_rate
        self.events: list[FaultEvent] = []
        self.tick = 0
        self._kill_at: dict[int, int] = {}  # node_id -> tick threshold
        self._io_bursts: dict[int, int] = {}  # site -> remaining forced faults
        self._read_bursts: dict[int, int] = {}  # site -> remaining read faults
        self._slow_sites: dict[int, float] = {}  # site -> penalty_ms per store
        self._slow_reads: dict[int, float] = {}  # site -> penalty_ms per read
        self._draw_seq: dict[Any, int] = {}  # draw key -> next sequence number
        self._load_records = 0  # the loader's record clock
        self._load_crash_at: Optional[int] = None
        self.grid: Optional["Grid"] = None
        # One re-entrant lock over all mutable state: events, clocks,
        # schedules, and draw sequences are touched from scheduler worker
        # threads once reads fan out under a drill.  Re-entrant because
        # on_transfer can fire inside an intercept that already holds it.
        self._lock = threading.RLock()

    def _draw(self, kind: str, *key: Any) -> float:
        """One keyed uniform draw in [0, 1).

        The per-key sequence counter makes repeated draws on the same key
        independent, while keeping the N-th draw for a key a pure function
        of ``(seed, kind, key, N)`` — no shared RNG stream to race on.
        """
        with self._lock:
            seq = self._draw_seq.get((kind, key), 0)
            self._draw_seq[(kind, key)] = seq + 1
        payload = repr((self.seed, kind, key, seq)).encode()
        return zlib.crc32(payload) / 2**32

    def _record(self, event: FaultEvent) -> None:
        """Append *event* and mirror it into the flight recorder.

        The recorder copy carries the same tick/target/detail under the
        kind ``fault.<kind>``, so a drill's injected-fault ledger can be
        reconciled 1:1 against ``db.events()`` after the fact.
        """
        self.events.append(event)
        _flight_emit(
            "fault." + event.kind,
            node=event.target if event.target >= 0 else None,
            tick=event.tick,
            info=event.detail,
        )

    # -- wiring ------------------------------------------------------------------

    def attach(self, grid: "Grid") -> "FaultInjector":
        if self.grid is not None and self.grid is not grid:
            raise GridError("fault injector is already attached to a grid")
        self.grid = grid
        grid.faults = self
        grid.ledger.on_record = self.on_transfer
        return self

    def _require_grid(self) -> "Grid":
        if self.grid is None:
            raise GridError("fault injector is not attached to a grid")
        return self.grid

    def _node(self, node_id: int) -> "Node":
        grid = self._require_grid()
        if not 0 <= node_id < len(grid.nodes):
            raise GridError(
                f"no node {node_id} on a {len(grid.nodes)}-node grid"
            )
        return grid.nodes[node_id]

    # -- node failures -----------------------------------------------------------

    def kill(self, node_id: int) -> None:
        """Kill a node now: its storage becomes unreachable until rebuilt."""
        node = self._node(node_id)
        with self._lock:
            if node.alive:
                node.fail()
                self._record(
                    FaultEvent("node_kill", self.tick, node_id, "explicit kill")
                )

    def schedule_kill(self, node_id: int, after: int) -> None:
        """Kill *node_id* once *after* more transfers have been metered.

        Because every cross-node byte ticks the injector, this is how a
        crash is planted deterministically in the middle of a load, a
        gather, or a shuffle.
        """
        if after < 0:
            raise GridError("schedule_kill needs after >= 0")
        self._node(node_id)
        with self._lock:
            self._kill_at[node_id] = self.tick + after

    def on_transfer(self, transfer: "Transfer") -> None:
        """Ledger hook: advance simulated time, firing scheduled kills."""
        with self._lock:
            self.tick += 1
            grid = self.grid
            if grid is None:
                return
            due = [n for n, at in self._kill_at.items() if self.tick >= at]
            for node_id in due:
                del self._kill_at[node_id]
                node = grid.nodes[node_id]
                if node.alive:
                    node.fail()
                    self._record(
                        FaultEvent(
                            "node_kill", self.tick, node_id,
                            f"scheduled at transfer {self.tick}",
                        )
                    )

    # -- transfer faults -----------------------------------------------------------

    def intercept(
        self,
        src: int,
        dst: int,
        nbytes: int,
        reason: str,
        values: Optional[tuple],
    ) -> tuple[str, Optional[tuple]]:
        """Decide the fate of one cell delivery: deliver, drop, or corrupt.

        Returns ``(verdict, values)`` where verdict is ``"deliver"`` or
        ``"drop"``; a corrupted delivery still arrives, with its float
        payload deterministically perturbed.
        """
        if self.drop_rate and self._draw("drop", src, dst) < self.drop_rate:
            with self._lock:
                self._record(
                    FaultEvent("transfer_drop", self.tick, dst, reason)
                )
            return "drop", values
        if (
            self.corrupt_rate
            and values is not None
            and self._draw("corrupt", src, dst) < self.corrupt_rate
        ):
            corrupted = tuple(
                -v if isinstance(v, float) else v for v in values
            )
            with self._lock:
                self._record(
                    FaultEvent("transfer_corrupt", self.tick, dst, reason)
                )
            return "deliver", corrupted
        return "deliver", values

    # -- WAL faults ------------------------------------------------------------------

    def tear_wal_tail(self, node: "Node", nbytes: Optional[int] = None) -> int:
        """Truncate the final record of *node*'s WAL mid-write.

        Removes *nbytes* from the end of the log (default: half of the
        final record), simulating a crash during an append.  Returns the
        number of bytes torn off.
        """
        node.wal.commit()
        path = node.wal.path
        body = path.read_bytes().rstrip(b"\n")
        if not body:
            return 0
        last_nl = body.rfind(b"\n")
        last_len = len(body) - last_nl - 1
        cut = min(nbytes if nbytes is not None else max(1, last_len // 2),
                  len(body))
        path.write_bytes(body[: len(body) - cut])
        with self._lock:
            self._record(
                FaultEvent(
                    "wal_tear", self.tick, node.node_id, f"tore {cut} bytes"
                )
            )
        return cut

    # -- transient I/O faults (the ingest path) ----------------------------------

    def schedule_transient_io(self, site: int, failures: int) -> None:
        """Force the next *failures* stores on *site* to fail transiently.

        Deterministic complement to ``io_fault_rate``: the loader's
        bounded-retry policy must absorb exactly this burst (or give up,
        when the burst exceeds ``max_retries``).
        """
        if failures < 0:
            raise GridError("schedule_transient_io needs failures >= 0")
        self._node(site)
        with self._lock:
            self._io_bursts[site] = self._io_bursts.get(site, 0) + failures

    def set_slow_site(self, site: int, penalty_ms: float) -> None:
        """Charge *penalty_ms* of simulated latency per store on *site*."""
        if penalty_ms < 0:
            raise GridError("slow-site penalty must be >= 0 ms")
        self._node(site)
        with self._lock:
            self._slow_sites[site] = penalty_ms

    def intercept_store(self, site: int) -> float:
        """Gate one store on *site*: may raise, returns latency charged.

        Raises :class:`TransientIOError` for a scheduled burst fault or a
        seeded Bernoulli ``io_fault_rate`` hit; otherwise returns the
        site's slow-site penalty (0.0 when healthy) for the caller to
        charge as simulated time.
        """
        with self._lock:
            burst = self._io_bursts.get(site, 0)
            if burst > 0:
                self._io_bursts[site] = burst - 1
                self._record(
                    FaultEvent(
                        "io_transient", self.tick, site, "scheduled burst"
                    )
                )
                raise TransientIOError(
                    f"site {site}: injected transient append failure"
                )
        if self.io_fault_rate and self._draw("io", site) < self.io_fault_rate:
            with self._lock:
                self._record(
                    FaultEvent("io_transient", self.tick, site, "bernoulli")
                )
            raise TransientIOError(
                f"site {site}: injected transient append failure"
            )
        with self._lock:
            penalty = self._slow_sites.get(site, 0.0)
            if penalty:
                self._record(
                    FaultEvent("slow_store", self.tick, site, f"{penalty} ms")
                )
        return penalty

    # -- transient faults and latency on the *read* path ---------------------------

    def schedule_transient_reads(self, site: int, failures: int) -> None:
        """Force the next *failures* partition reads from *site* to fail
        transiently.

        The read path's counterpart of :meth:`schedule_transient_io`: each
        gated read raises :class:`TransientIOError`, which the grid's
        retry policy classifies as transient and absorbs (or fails over
        past, once the node's circuit breaker opens).
        """
        if failures < 0:
            raise GridError("schedule_transient_reads needs failures >= 0")
        self._node(site)
        with self._lock:
            self._read_bursts[site] = (
                self._read_bursts.get(site, 0) + failures
            )

    def set_slow_reads(self, site: int, penalty_ms: float) -> None:
        """Delay every partition read served by *site* by *penalty_ms*.

        Unlike :meth:`set_slow_site` (pure accounting), the read penalty
        is *slept* by the reader — under a deadline, in deadline-aware
        slices — so slow-node drills exercise real tail latency and the
        hedging/deadline machinery, not just a counter.
        """
        if penalty_ms < 0:
            raise GridError("slow-read penalty must be >= 0 ms")
        self._node(site)
        with self._lock:
            self._slow_reads[site] = penalty_ms

    def slows_reads(self) -> bool:
        with self._lock:
            return any(self._slow_reads.values())

    def intercept_read(self, site: int, partition: int, attempt: int) -> float:
        """Gate one partition read from *site*: may raise, returns the
        read-latency penalty (ms) the caller must sleep.

        Raises :class:`TransientIOError` while a scheduled read burst
        remains.  Events are tagged with ``(partition, attempt)`` so a
        drill can reconcile injected read faults against the retry
        attempts that absorbed them.
        """
        with self._lock:
            burst = self._read_bursts.get(site, 0)
            if burst > 0:
                self._read_bursts[site] = burst - 1
                self._record(
                    FaultEvent(
                        "io_transient_read", self.tick, site,
                        f"p{partition} attempt {attempt}",
                    )
                )
                raise TransientIOError(
                    f"site {site}: injected transient read failure "
                    f"(partition {partition}, attempt {attempt})"
                )
            penalty = self._slow_reads.get(site, 0.0)
            if penalty:
                self._record(
                    FaultEvent(
                        "slow_read", self.tick, site,
                        f"{penalty} ms, p{partition} attempt {attempt}",
                    )
                )
        return penalty

    # -- loader crashes ---------------------------------------------------------------

    def schedule_load_crash(self, after_records: int) -> None:
        """Kill the bulk loader once it has consumed *after_records* more.

        The loader ticks :meth:`on_load_record` per consumed record; when
        the clock hits the threshold a :class:`LoadInterrupted` is raised
        from inside the stream — a process kill planted deterministically
        at a seeded point mid-load.
        """
        if after_records < 1:
            raise GridError("schedule_load_crash needs after_records >= 1")
        with self._lock:
            self._load_crash_at = self._load_records + after_records

    def on_load_record(self) -> None:
        """Loader hook: advance the record clock, firing a scheduled crash."""
        with self._lock:
            self._load_records += 1
            if (
                self._load_crash_at is None
                or self._load_records < self._load_crash_at
            ):
                return
            self._load_crash_at = None
            self._record(
                FaultEvent(
                    "load_crash", self.tick, -1,
                    f"loader killed at record {self._load_records}",
                )
            )
            n = self._load_records
        raise LoadInterrupted(f"injected loader crash at record {n}")

    def counts(self) -> dict[str, int]:
        """Injected faults by kind — computed under the lock, over a
        snapshot, so a drill can reconcile mid-flight without tearing."""
        with self._lock:
            events = list(self.events)
        out: dict[str, int] = {}
        for e in events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out
