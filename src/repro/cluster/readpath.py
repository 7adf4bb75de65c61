"""The grid's read path: logical partitions, read resiliently (Section 2.7).

Reads are organised around *logical partitions* — partition ``p`` is the
set of cells whose primary site is ``p``, and with k-way replication it
is stored on every site of ``placement.chain(p, n, k)``.  Everything
above this module (operators, repartition, rebalance planning) sees the
grid through ONE function, :func:`read_partitions`, which answers per
partition with ``(serving site, blocks)`` or "missing"; everything below
it reaches a node's storage through ONE function,
:func:`partition_blocks` — the one place a node's stored blocks become a
partition's blocks.  The unit of exchange is the block
(:class:`~repro.core.array.Chunk`), from storage to each operator's merge.

What sits between them is the resilience algorithm
(:meth:`_PartitionRead.partition`: bounded retries along the replica
chain, per-node circuit breakers, hedged backup reads with exactly-once
metering, cooperative deadlines, and during an elastic migration the
fallback to the new homes), and none of it leaks upward: a caller sees a
served partition, a missing one it opted into, or
:class:`~repro.core.errors.QuorumError`.
"""

from __future__ import annotations

import queue
import threading
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Sequence

import numpy as np

from ..core.array import Chunk, coalesce
from ..core.cells import Cell
from ..core.errors import (
    DeadlineExceededError,
    NodeFailedError,
    QuorumError,
    TransientIOError,
)
from ..obs import tracing
from .array import Planes
from .ledger import COORDINATOR
from .resilience import (
    Deadline,
    MeterBuffer,
    current_deadline,
    sleep_under_deadline,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .operators import DistributedArray

__all__ = ["Blocks", "partition_blocks", "read_partitions"]

Coords = tuple[int, ...]
Window = Optional[tuple[Coords, Coords]]


class Blocks(list):
    """A partition's blocks (:class:`~repro.core.array.Chunk`\\ s), read
    the way a :class:`~repro.core.array.SciArray` is read, so an
    operator's local phase takes either."""

    #: per block, the ``(m, 2, ndim)`` boxes of its segments or ``None``
    #: (one segment), where the read was a grouped one (:func:`partition_blocks`)
    boxes: Optional[list] = None

    def blocks(self, attrs: Optional[Sequence] = None) -> Iterator[tuple[Coords, dict, Any]]:
        """``(origin, planes of *attrs* (default: all), state)`` per block."""
        for block in self:
            planes = block.data if attrs is None else {a: block.data[a] for a in attrs}
            yield block.origin, planes, block.state

    def planes(self, lo: Coords, hi: Coords) -> tuple[dict, np.ndarray]:
        """The box ``lo..hi`` as ``SciArray.planes`` reads it: views of the
        one block covering it, else the blocks' cells in it over EMPTY."""
        shape = tuple(h - l + 1 for l, h in zip(lo, hi))
        cuts = [b for b in (b.sliced((lo, hi)) for b in self) if b is not None]
        if len(cuts) == 1 and cuts[0].shape == shape:
            return cuts[0].data, cuts[0].state
        blank = {n: np.zeros((), p.dtype) for n, p in cuts[0].data.items()} if cuts else {}
        (box,) = coalesce([Chunk(lo, shape, np.zeros(shape, np.uint8), blank), *cuts])
        return box.data, box.state

    def cells(self) -> Iterator[tuple[Coords, Optional[Cell]]]:
        """The occupied cells, block by block."""
        for block in self:
            yield from block.cells()

    def count_present(self) -> int:
        return sum(block.present_count for block in self)


def partition_blocks(
    arr: "DistributedArray",
    site: int,
    p: int,
    window: Window = None,
    attr_ranges: Optional[dict] = None,
    deadline: Optional[Deadline] = None,
    read: str = "blocks",
) -> Blocks:
    """The blocks node *site* stores for logical partition *p* of *arr*,
    read as its :meth:`~repro.cluster.node.Node.blocks` or as the one read
    of its partition's ``"merged"`` or ``"segmented"``
    (:class:`~repro.storage.manager.PersistentArray`; the segments kept as
    :attr:`Blocks.boxes`).

    A node's partition store backs every replica chain it is a member
    of, so each block is masked to the cells whose primary is *p* —
    which both deduplicates replicas and makes per-partition reads
    exactly-once.  *deadline* is checked at every block.  Raises
    :class:`NodeFailedError` when the node is (or goes) down mid-read.
    """
    node, blocks, boxes = arr.grid.nodes[site], [], None
    if read == "blocks":
        found = node.blocks(arr.name, window, attr_ranges)
    else:  # one read, after which the node must still be up
        found = getattr(node.partition(arr.name), read)(window, attr_ranges)
        found, boxes = found if read == "segmented" else (found, None)
        node.check_alive()
    for block in found:
        if deadline is not None:
            deadline.check(f"scan of partition {p} on node {site}")
        blocks.append(block)
    masked = [
        Chunk(b.origin, b.shape, b.state * (sites == p), b.data)
        for b, sites in zip(blocks, arr.partitioner.site_planes(blocks))
    ]
    kept = [i for i, block in enumerate(masked) if block.state.any()]
    out = Blocks(masked[i] for i in kept)
    out.boxes = boxes and [boxes[i] for i in kept]
    return out


def read_partitions(
    arr: "DistributedArray",
    window: Window = None,
    reason: Optional[str] = None,
    *,
    degraded: bool = False,
    tolerate_deadline: bool = False,
    partitions: Optional[Sequence[int]] = None,
    attr_ranges: Optional[dict] = None,
    local: Optional[Callable[[Blocks], Any]] = None,
    merged: bool = False,
) -> tuple[dict[int, tuple[int, Any]], list[tuple[str, int]]]:
    """Read logical partitions of *arr*, one scheduler task each.

    Returns ``(served, missing)``: *served* maps each partition, in
    partition order regardless of which worker finished first (so every
    caller merges exactly as a serial read would), to ``(serving site,
    blocks)`` — blocks restricted to *window*, value-pruned by
    *attr_ranges* (pruned buckets' occupied cells come back NULL) and,
    with *reason* set, their cells metered as moved from the serving
    site to the coordinator, and *merged* (:func:`partition_blocks`).
    *local*, when given, runs on the blocks inside the partition's task —
    the operator goes to the data — read as a grouped read
    (``"segmented"``), and its result takes the blocks' place.

    *missing* lists ``(array name, partition)`` for partitions nothing
    could serve, and is empty unless the caller opted in: a fully dead
    chain raises :class:`QuorumError` (first failing partition wins
    deterministically) unless *degraded*, and a read that ran out of
    deadline budget raises :class:`DeadlineExceededError` unless
    *tolerate_deadline* (the ``on_unavailable="partial"`` path) —
    partial coverage instead of a failed query.
    """
    if partitions is None:
        partitions = arr.partitions()
    how = "segmented" if local is not None else "merged" if merged else "blocks"
    read = _PartitionRead(arr, window, reason, attr_ranges, how)

    def task(p: int) -> Optional[tuple[int, Any]]:
        try:
            site, blocks = read.partition(p)
        except QuorumError:
            if not degraded:
                raise
            return None
        except DeadlineExceededError:
            if not tolerate_deadline:
                raise
            return None
        return site, (blocks if local is None else local(blocks))

    results = arr.grid.scheduler.map(
        [(lambda p=p: task(p)) for p in partitions]
    )
    served = {p: r for p, r in zip(partitions, results) if r is not None}
    missing = [(arr.name, p) for p in partitions if p not in served]
    return served, missing


@dataclass(frozen=True)
class _PartitionRead:
    """One fan-out's constants (what is read, how it is metered) and the
    resilience algorithm that serves each of its partitions."""

    arr: "DistributedArray"
    window: Window
    reason: Optional[str]
    attr_ranges: Optional[dict]
    read: str

    def partition(self, p: int) -> tuple[int, Blocks]:
        """Read partition *p* from the first surviving replica.

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

        Raises :class:`QuorumError` when the chain (and any migration's
        new homes) is exhausted; :class:`DeadlineExceededError`
        propagates.
        """
        arr, grid = self.arr, self.arr.grid
        chain = arr.partition_chain(p)
        policy = grid.resilience
        deadline = current_deadline()
        attempt = 0
        for pass_no in range(1, policy.retry.max_attempts + 1):
            final_pass = pass_no == policy.retry.max_attempts
            for site in chain:
                attempt += 1
                if deadline is not None and deadline.expired:
                    grid._count_resilience("deadline_misses")
                    deadline.check(f"read of partition {p}")
                if not grid.nodes[site].alive:
                    grid._log_failover(arr.name, p, site, attempt)
                    continue
                if not grid.breakers[site].allow(force=final_pass):
                    grid._count_resilience("breaker_skips")
                    continue
                backup = (
                    self._hedge_backup_site(chain, site)
                    if policy.hedge.enabled else None
                )
                try:
                    if backup is None:
                        served, blocks = self._settled_attempt(
                            site, p, attempt, deadline
                        )
                    else:
                        served, blocks = self._hedged_attempt(
                            site, backup, p, attempt, deadline
                        )
                except DeadlineExceededError:
                    raise  # never retried, whatever the policy calls transient
                except Exception as exc:
                    if not policy.retry.retryable(exc):
                        raise
                    # Failed over: charge the policy's capped backoff.
                    grid._log_failover(arr.name, p, site, attempt)
                    continue
                return self._serve(served, blocks, served != chain[0])
        fallback = self._dual_resolve(p)
        if fallback is not None:
            return fallback
        raise QuorumError(
            f"partition {p} of {arr.name!r}: no surviving replica among "
            f"sites {chain} after {attempt} attempts"
        )

    def _serve(
        self, site: int, blocks: Blocks, failed_over: bool
    ) -> tuple[int, Blocks]:
        if failed_over:
            self.arr.grid.nodes[site].counters.add("failovers_served")
        tracing.mark_current("nodes", site)
        tracing.add_current("cells_scanned", sum(b.cell_count for b in blocks))
        return site, blocks

    # -- one attempt against one site ----------------------------------------------

    def _attempt(
        self,
        site: int,
        p: int,
        attempt: int,
        deadline: Optional[Deadline],
        buf: Optional[MeterBuffer] = None,
    ) -> Blocks:
        """One read attempt of partition *p* against a single *site*.

        Sleeps any injected slow-read penalty (deadline-aware slices),
        then reads the site's share of *p*.  Metering goes to the grid's
        ledger/counters directly, or into *buf* when this is a hedged
        attempt whose meters must stay private until it wins.

        Raises :class:`NodeFailedError` (node died, possibly mid-read),
        :class:`TransientIOError` (injected read fault), or
        :class:`DeadlineExceededError` — classification is the caller's
        job.
        """
        grid = self.arr.grid
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
        if buf is None:
            record = grid.ledger.record
            bump = node.counters.add
        else:
            record = buf.record
            bump = lambda name, n=1: buf.counter(node, name, n)  # noqa: E731
        reason, nbytes = self.reason, self.arr.cell_nbytes
        blocks = partition_blocks(
            self.arr, site, p, self.window, self.attr_ranges, deadline,
            self.read,
        )
        cells = sum(block.cell_count for block in blocks)
        if reason is not None and faults is not None:
            # Per-cell metering exists so the injector's transfer clock
            # ticks *during* the read — a scheduled kill can land
            # mid-read and exercise the partial-read-discard path.
            for _ in range(cells):
                node.check_alive()
                bump("cells_scanned")
                record(site, COORDINATOR, nbytes, reason)
            return blocks
        # Without an injector the clock has no observer, and the per-cell
        # ledger/counter locks become the contention hot-spot under
        # parallel fan-out — so gathers are metered as one bulk transfer
        # per partition (same total bytes).  Local (un-gathered) reads
        # count as scans too.
        bump("cells_scanned", cells)
        if reason is not None and cells:
            record(site, COORDINATOR, cells * nbytes, reason)
        return blocks

    def _settle(self, site: int, exc: Optional[BaseException]) -> None:
        """Settle *site*'s breaker with one finished attempt's outcome."""
        breaker = self.arr.grid.breakers[site]
        if exc is None:
            breaker.record_success()
        elif not isinstance(
            exc, DeadlineExceededError
        ) and self.arr.grid.resilience.retry.retryable(exc):
            breaker.record_failure()
        else:
            # The budget ran out (or the failure is not the node's to
            # answer for): release the probe, don't judge the node.
            breaker.abandon()

    def _settled_attempt(
        self, site: int, p: int, attempt: int, deadline: Optional[Deadline]
    ) -> tuple[int, Blocks]:
        try:
            blocks = self._attempt(site, p, attempt, deadline)
        except Exception as exc:
            self._settle(site, exc)
            if isinstance(exc, DeadlineExceededError):
                self.arr.grid._count_resilience("deadline_misses")
            raise
        self._settle(site, None)
        return site, blocks

    # -- hedging ---------------------------------------------------------------------

    def _hedge_backup_site(
        self, chain: tuple[int, ...], primary: int
    ) -> Optional[int]:
        """The replica a hedged read would back *primary* up with: the
        next alive site of the chain (wrapping) whose breaker admits a
        request; ``None`` when the chain offers no backup."""
        grid = self.arr.grid
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
        attempt: int,
        deadline: Optional[Deadline],
    ) -> tuple[int, Blocks]:
        """Read partition *p* from *site*, hedging against *backup*.

        The primary attempt runs in a helper thread, metering into a
        private :class:`MeterBuffer`.  If it has not answered within the
        hedge delay, a backup attempt is launched against *backup* and
        the first success wins; the winner's buffer is committed (on this
        thread, so the open operator span absorbs the movement) and the
        loser's is discarded — exactly-once accounting by construction,
        for the counters of the attempt's own span, which carries the
        statement's id, too.  Each attempt settles its own site's breaker.
        Raises the primary attempt's failure only after *both* attempts
        have failed.
        """
        grid = self.arr.grid
        policy = grid.resilience
        results: "queue.Queue[tuple[int, Any, Optional[BaseException]]]" = (
            queue.Queue()
        )
        statement = tracing.current_span()

        def run(attempt_site: int) -> None:
            buf, trace = MeterBuffer(), None
            if statement is not None:
                trace = tracing.Span("hedged read")
                trace.query_id = statement.root.query_id
            try:
                with tracing.adopt(trace):
                    blocks = self._attempt(attempt_site, p, attempt, deadline, buf)
            except BaseException as exc:  # classified by the consumer
                results.put((attempt_site, None, exc))
            else:
                results.put((attempt_site, (blocks, buf, trace), None))

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
            self._settle(attempt_site, exc)
            if exc is None:
                blocks, buf, trace = payload
                buf.commit(grid)
                for key, n in (trace.counters if trace else {}).items():
                    tracing.add_current(key, n)
                if attempt_site != site:
                    grid._count_resilience("hedge_wins")
                return attempt_site, blocks
            if isinstance(exc, DeadlineExceededError):
                deadline_exc = exc
            elif policy.retry.retryable(exc):
                failures.append((attempt_site, exc))
            else:
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
                grid._log_failover(self.arr.name, p, failed_site, attempt)
        if deadline_exc is not None:
            # Out of time beats out of retries: the deadline propagates.
            grid._count_resilience("deadline_misses")
            raise deadline_exc
        raise next((e for s, e in failures if s == site), failures[0][1])

    # -- mid-migration fallback ------------------------------------------------------

    def _dual_resolve(self, p: int) -> Optional[tuple[int, Blocks]]:
        """Serve partition *p* from the migration's *new* homes after the
        old chain is exhausted, each home's blocks masked to the copies
        it holds trusted (:meth:`~repro.cluster.rebalance.Migration.owed`),
        each cell once, only cells whose *old* primary is *p* (the dedup
        rule every chain read applies).  Metering is buffered per site
        and committed all-or-nothing (:class:`MeterBuffer`).

        Returns ``None`` (not an error) when there is no migration, its
        plan has not read the population yet, or the new homes cannot
        account for every known cell of *p* — the caller then raises
        :class:`QuorumError` exactly as before.
        """
        arr, grid, window = self.arr, self.arr.grid, self.window
        mig = arr._migration
        if mig is None or not mig.planned:
            return None
        alive = [s for s in mig.new_partitioner.sites() if grid.nodes[s].alive]
        got, kept, per_site = Planes(mig.known.stride), [], Counter()
        for site in alive:
            try:
                blocks = partition_blocks(
                    arr, site, p, window, self.attr_ranges, current_deadline())
            except (NodeFailedError, TransientIOError):
                continue  # another member may still cover these cells
            for b in blocks:
                keep = mig.owed(b)[2][site] & ~got.over(b) & b.state.astype(bool)
                if keep.any():
                    got.add(np.argwhere(keep) + b.origin)
                    kept.append(Chunk(b.origin, b.shape, b.state * keep, b.data))
                    per_site[site] += int(np.count_nonzero(keep))
        # Complete or nothing: every known cell of p (in the window) found,
        # else the ordinary failure path.
        with mig._lock:
            known = mig.known.boxes()
        for box in known:
            lost = box.state & ~got.over(box) & (arr.partitioner.site_planes([box])[0] == p)
            lost = Chunk(box.origin, box.shape, lost, {})
            lost = lost if window is None else lost.sliced(window)
            if lost is not None and lost.state.any():
                return None
        # Only a complete read meters: per-site bulk meters and scan counters.
        buf = MeterBuffer()
        for site, count in per_site.items():
            buf.counter(grid.nodes[site], "cells_scanned", count)
            if self.reason is not None:
                buf.record(site, COORDINATOR, count * arr.cell_nbytes, self.reason)
        buf.commit(grid)
        served = max(per_site or alive[:1], key=lambda s: (per_site[s], -s), default=None)
        if served is None:
            return None
        grid._count_resilience("dual_reads")
        return self._serve(served, Blocks(kept), True)
